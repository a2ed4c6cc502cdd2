"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

Each workload is a closed loop with one caller: one library call at a time,
``jobs=1`` everywhere, so the process-pool paths are not measured.

- ``spectrum``: ``verify_spectrum`` over ``corpus_pairs`` for pes, cs and ees
  (300 pairs each, up to 8 events, 2 labels) plus the class-matching
  fixtures.  Many small cold structures, each used once: the canon kernel
  dominates, through pomset coding and ``restrict``; the ``full_matrix``
  calls also carry the history-preserving universe and fixpoint.  300 pairs
  rather than 150 because the p95 of 465 random pairs moves by about 20%
  from one seed to the next.
- ``search``: the exhaustive sb/iso single-label search up to 7 events,
  which must end in ``NoPairFound``.  Warm, heavy reuse of each class
  representative: step-mode ``bisim``, ``build_lts`` and the fingerprints.
  The search has no random input, so the seed does not apply.

``tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import hashlib

SPECTRUM_CLASSES = ("pes", "cs", "ees")

#: Fixture pairs that ``verify_spectrum`` appends for each class.
SPECTRUM_FIXTURES = {"pes": 8, "cs": 3, "ees": 4}

#: sha256 of ``SpectrumReport.summary_table()`` per class at the default seed.
SPECTRUM_DIGESTS = {
    "pes": "11212634f4ea074f1e09a7eeed257f1e541ed33e50901fd0b500e65c6432d225",
    "cs": "758384aa432477858ba964c0e72efc111ebacc7697df096c05db1c79ccd504fb",
    "ees": "dc5dd898891c98a881b38fb24908b0b90310b96ea79f70a4f57d282e59082a38",
}
SPECTRUM_DEFAULT_SEED = 1

SEARCH_CLASSES = (1, 2, 5, 16, 63, 318, 2045)


def _bits(es, verdicts):
    return "".join("1" if verdicts[rel] else "0" for rel in es.MATRIX_ORDER)


class Spectrum:
    op_span = "equivalences.full_matrix"

    def setup(self, es, seed, tiny):
        count, max_events = (4, 4) if tiny else (300, 8)
        return [
            (cls, es.corpus_pairs(es.CorpusSpec(cls, count, max_events, alphabet=2, seed=seed)))
            for cls in SPECTRUM_CLASSES
        ]

    def operations(self, inputs):
        return sum(len(pairs) + SPECTRUM_FIXTURES[cls] for cls, pairs in inputs)

    def run(self, es, inputs):
        return [
            es.verify_spectrum(pairs, es.DIAGRAMS[cls], include_fixtures=True, jobs=1)
            for cls, pairs in inputs
        ]

    def check(self, es, inputs, reports, seed, tiny):
        """(failed operations, problems, search facts)."""
        fixture_bits = {fx.name: _bits(es, fx.expected) for fx in es.builtin_fixtures()}
        failed, problems = 0, []
        for (cls, pairs), report in zip(inputs, reports):
            want = len(pairs) + SPECTRUM_FIXTURES[cls]
            if len(report.results) != want:
                problems.append(f"{cls}: {len(report.results)} pairs checked, expected {want}")
                failed += abs(want - len(report.results))
            bad = set()
            for res in report.results:
                if res.violations:
                    bad.add(res.left_name)
                    problems.append(f"{cls}: {res.left_name}: {res.violations[0]}")
                if res.left_name.startswith("fx:"):
                    name = res.left_name.split(":")[1]
                    if res.matrix.bits() != fixture_bits[name]:
                        bad.add(res.left_name)
                        problems.append(f"{cls}: fixture {name} gave {res.matrix.bits()}")
            if seed == SPECTRUM_DEFAULT_SEED and not tiny:
                digest = hashlib.sha256(report.summary_table().encode()).hexdigest()
                if digest != SPECTRUM_DIGESTS[cls]:
                    problems.append(f"{cls}: verdict digest {digest} differs from the frozen one")
                    bad = {res.left_name for res in report.results}
            failed += len(bad)
        return failed, problems, (0, 0)


class Search:
    op_span = "search"

    def setup(self, es, seed, tiny):
        from esequiv.errors import NoPairFound

        spec = es.SearchSpec(
            coarse=es.Relation.SB,
            fine=es.Relation.ISO,
            max_events=4 if tiny else len(SEARCH_CLASSES),
            alphabet=1,
        )
        return spec, NoPairFound

    def operations(self, inputs):
        return 1

    def run(self, es, inputs):
        spec, no_pair = inputs
        try:
            es.find_minimal_pairs(spec)
        except no_pair as exc:
            return exc.certificate
        return None

    def check(self, es, inputs, certificate, seed, tiny):
        spec = inputs[0]
        if certificate is None:
            return 1, ["search found a pair; expected NoPairFound"], (0, 0)
        classes, tested, problems = [], 0, []
        for line in certificate.splitlines():
            if line.startswith("size "):
                # "size k: N classes, B buckets (largest L), G groups, P pairs tested, ..."
                fields = line.split()
                classes.append(int(fields[2]))
                tested += int(fields[fields.index("pairs") - 1])
        want = list(SEARCH_CLASSES[: spec.max_events])
        if classes != want:
            problems.append(f"class counts {classes}, expected {want}")
        last = f"exhausted all sizes up to {spec.max_events}: no pair"
        if certificate.splitlines()[-1:] != [last]:
            problems.append(f"certificate does not end with {last!r}")
        return (1 if problems else 0), problems, (sum(classes), tested)


WORKLOADS = {"spectrum": Spectrum(), "search": Search()}
