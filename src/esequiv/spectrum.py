"""Curated fixture pairs, random corpora, and diagram verification.

A diagram is a claimed shape of the lattice of the ten relations for one
class of structures: groups of relations that coincide, and proper
inclusions between them.  ``verify_spectrum`` replays a corpus of pairs
through the full verdict matrix and reports any violation of the claimed
equalities and inclusions, plus which proper inclusions were actually
witnessed by a separating pair.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass, field

from .algebra import from_expr
from .errors import InvalidCorpusSpec, SelfConflict, UnsatisfiableSpec
from .equivalences import INCLUSION_ARROWS, MATRIX_ORDER, Relation, VerdictMatrix, full_matrix
from .structure import EventStructure, StructureClass, build, classify

R = Relation


@dataclass(frozen=True)
class Fixture:
    """A named pair with its frozen expected verdicts."""

    name: str
    left: EventStructure
    right: EventStructure
    expected: dict
    note: str


def _expected(true_rels):
    return {rel: rel in true_rels for rel in MATRIX_ORDER}


def builtin_fixtures():
    """The curated separating pairs, one per proper inclusion they witness."""
    e43 = build(4, {0: "a", 1: "a", 2: "b", 3: "b"}, causes=[(0, 2), (0, 3), (1, 3)])
    f43 = build(4, {0: "a", 1: "a", 2: "b", 3: "b"}, causes=[(0, 2), (1, 3)])
    e45 = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 7), (5, 7), (3, 6), (4, 6)],
    )
    f45 = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
    )
    ex22 = from_expr("(a||b) + (a;b)")
    return (
        Fixture(
            name="it-not-ib-cs",
            left=from_expr("a + (a||a)"),
            right=from_expr("a||a"),
            expected=_expected({R.IT, R.ST, R.PT}),
            note="conflict-only pair with equal traces but a stuck branch",
        ),
        Fixture(
            name="hb-not-hhb-cs",
            left=from_expr("a || (a + (a||a))"),
            right=from_expr("(a || (a + (a||a))) + (a||a)"),
            expected=_expected({R.IT, R.ST, R.PT, R.IB, R.SB, R.PB, R.WHB, R.HB}),
            note="backtracking exposes the extra two-event branch",
        ),
        Fixture(
            name="hhb-not-iso-cs",
            left=from_expr("a"),
            right=from_expr("a+a"),
            expected=_expected(set(MATRIX_ORDER) - {R.ISO}),
            note="duplicated alternative is behaviourally invisible",
        ),
        Fixture(
            name="seq-vs-par-ees",
            left=from_expr("a;a"),
            right=from_expr("a||a"),
            expected=_expected({R.IT, R.IB}),
            note="interleaving cannot see the missing two-event step",
        ),
        Fixture(
            name="it-not-ib-ees",
            left=from_expr("(a||b);(a||b)"),
            right=from_expr("(a;b)||(b;a)"),
            expected=_expected({R.IT}),
            note="equal 13-word trace language, branching differs",
        ),
        Fixture(
            name="st-not-ib-ees",
            left=e43,
            right=f43,
            expected=_expected({R.IT, R.ST}),
            note="step traces agree though one a-branch loses its b",
        ),
        Fixture(
            name="sb-not-whb-ees",
            left=e45,
            right=f45,
            expected=_expected({R.IT, R.ST, R.IB, R.SB}),
            note="smallest single-label conflict-free pair: step bisimilar, non-isomorphic",
        ),
        Fixture(
            name="par-choice-self",
            left=ex22,
            right=ex22,
            expected=_expected(set(MATRIX_ORDER)),
            note="sanity: a structure against itself satisfies everything",
        ),
    )


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Reproducible recipe for a list of random structures."""

    structure_class: str  # "pes" | "cs" | "ees"
    count: int
    max_events: int
    alphabet: int = 2
    min_events: int = 1
    order_density: float = 0.35
    conflict_density: float = 0.35
    seed: int = 0
    retries: int = 200


_LETTERS = "abcdefghij"


def generate_corpus(spec: CorpusSpec):
    """Deterministic list of valid structures of the requested class;
    raises `InvalidCorpusSpec` for a recipe outside the generator's bounds."""
    _check_spec(spec)
    rng = random.Random(spec.seed)
    out = []
    for _ in range(spec.count):
        out.append(_generate_one(spec, rng))
    return out


def _check_spec(spec):
    if spec.structure_class not in ("pes", "cs", "ees"):
        raise InvalidCorpusSpec(f"unknown class {spec.structure_class!r}")
    if not 1 <= spec.alphabet <= len(_LETTERS):
        raise InvalidCorpusSpec(f"alphabet {spec.alphabet} is outside 1..{len(_LETTERS)}")
    if spec.min_events < 1:
        raise InvalidCorpusSpec(f"min_events {spec.min_events} is below 1")
    if spec.min_events > spec.max_events:
        raise InvalidCorpusSpec(f"min_events {spec.min_events} exceeds max_events {spec.max_events}")
    if spec.count < 0:
        raise InvalidCorpusSpec(f"count {spec.count} is negative")


def _random_labels(rng, n, alphabet):
    return {e: _LETTERS[rng.randrange(alphabet)] for e in range(n)}


def _random_order(rng, n, p):
    """Random strict order: orient edges low -> high, then close. Pairs list."""
    causes = []
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                causes.append((i, j))
    return causes


def _generate_one(spec, rng):
    n = rng.randint(spec.min_events, spec.max_events)
    if spec.structure_class == "cs":
        labels = _random_labels(rng, n, spec.alphabet)
        conflicts = [
            (i, j)
            for j in range(n)
            for i in range(j)
            if rng.random() < spec.conflict_density
        ]
        return build(n, labels, (), conflicts)
    if spec.structure_class == "ees":
        labels = _random_labels(rng, n, spec.alphabet)
        return build(n, labels, _random_order(rng, n, spec.order_density), ())
    # pes: random order plus random conflicts on incomparable pairs; the
    # inheritance closure may force a self-conflict, in which case we redraw
    for _ in range(spec.retries):
        labels = _random_labels(rng, n, spec.alphabet)
        causes = _random_order(rng, n, spec.order_density)
        trial = build(n, labels, causes, ())
        conflicts = [
            (i, j)
            for j in range(n)
            for i in range(j)
            if not ((trial.down[j] >> i) & 1)
            and rng.random() < spec.conflict_density
        ]
        try:
            return build(n, labels, causes, conflicts)
        except SelfConflict:
            continue
    raise UnsatisfiableSpec(
        f"could not draw a valid PES in {spec.retries} attempts (n={n})"
    )


def corpus_pairs(spec: CorpusSpec):
    """Disjoint consecutive pairs from a corpus of 2*count structures."""
    _check_spec(spec)  # so that a bad count is named as given
    structures = generate_corpus(dataclasses.replace(spec, count=2 * spec.count))
    return [
        (f"{spec.structure_class}-{i}L", structures[2 * i], f"{spec.structure_class}-{i}R", structures[2 * i + 1])
        for i in range(spec.count)
    ]


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """Claimed shape of the lattice for one structure class."""

    name: str
    groups: tuple  # tuple of tuples of relations that coincide
    arrows: tuple  # (finer relation, coarser relation) proper inclusions
    note: str = ""


FIG_PES = Diagram(
    name="pes",
    groups=tuple((rel,) for rel in MATRIX_ORDER),
    arrows=INCLUSION_ARROWS,
)

FIG_CS = Diagram(
    name="cs",
    groups=(
        (R.IT, R.ST, R.PT),
        (R.IB, R.SB, R.PB, R.WHB, R.HB),
        (R.HHB,),
        (R.ISO,),
    ),
    arrows=((R.IB, R.IT), (R.HHB, R.IB), (R.ISO, R.HHB)),
    note="labels are irrelevant for this class: the same chain holds for "
    "single-label corpora",
)

FIG_EES = Diagram(
    name="ees",
    groups=(
        (R.IT,),
        (R.IB,),
        (R.ST,),
        (R.SB,),
        (R.PT, R.PB, R.WHB, R.HB, R.HHB, R.ISO),
    ),
    arrows=((R.IB, R.IT), (R.ST, R.IT), (R.SB, R.IB), (R.SB, R.ST), (R.PT, R.SB)),
    note="finite structures only: with infinitely many events the collapsed "
    "group splits apart, and finite corpora cannot settle how far",
)

DIAGRAMS = {"pes": FIG_PES, "cs": FIG_CS, "ees": FIG_EES}


@dataclass
class PairResult:
    left_name: str
    right_name: str
    matrix: VerdictMatrix
    violations: list = field(default_factory=list)


@dataclass
class SpectrumReport:
    diagram: Diagram
    results: list
    arrow_witnesses: dict

    @property
    def violations(self):
        out = []
        for res in self.results:
            out.extend((res.left_name, res.right_name, v) for v in res.violations)
        return out

    def summary_table(self) -> str:
        header = "left right " + " ".join(r.value for r in MATRIX_ORDER)
        lines = [header]
        for res in self.results:
            lines.append(f"{res.left_name} {res.right_name} {res.matrix.bits()}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        lines = [
            f"diagram: {self.diagram.name}",
            f"pairs checked: {len(self.results)}",
            f"violations: {len(self.violations)}",
        ]
        for left, right, msg in self.violations:
            lines.append(f"  VIOLATION {left} vs {right}: {msg}")
        lines.append("proper inclusions:")
        for arrow, wit in sorted(
            self.arrow_witnesses.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            fine, coarse = arrow
            status = (
                f"strictness witnessed by {wit[0]} vs {wit[1]}"
                if wit
                else "inclusion verified, no separating pair in corpus"
            )
            lines.append(f"  {coarse.value} over {fine.value}: {status}")
        if self.diagram.note:
            lines.append(f"note: {self.diagram.note}")
        return "\n".join(lines) + "\n"


def _check_pair(args):
    left_name, left, right_name, right, diagram = args
    matrix = full_matrix(left, right)
    violations = []
    for group in diagram.groups:
        values = {matrix[rel] for rel in group}
        if len(values) > 1:
            names = ",".join(r.value for r in group)
            violations.append(f"group {{{names}}} not uniform: {matrix.bits()}")
    for fine, coarse in diagram.arrows:
        if matrix[fine] and not matrix[coarse]:
            violations.append(
                f"inclusion {fine.value} -> {coarse.value} violated: {matrix.bits()}"
            )
    return PairResult(left_name, right_name, matrix, violations)


def verify_spectrum(pairs, diagram: Diagram, include_fixtures=True, jobs=1):
    """Check every pair's matrix against the diagram's claims.

    `pairs` is a list of (left_name, left, right_name, right).  Fixtures of
    the diagram's class are appended so every proper inclusion has a chance
    of being witnessed.  Violations are report content, never exceptions.
    With `jobs` > 1 the pairs are checked by a pool of at most that many
    worker processes and at most one per CPU.
    """
    pairs = list(pairs)
    if include_fixtures:
        tag = StructureClass[diagram.name.upper()]
        for fx in builtin_fixtures():
            if tag in classify(fx.left) and tag in classify(fx.right):
                pairs.append((f"fx:{fx.name}:L", fx.left, f"fx:{fx.name}:R", fx.right))
    tasks = [(ln, l, rn, r, diagram) for ln, l, rn, r in pairs]
    # the pool starts all its workers at once, so no more than there are CPUs
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls multiprocessing, socket and pickle
        # into every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_pair, tasks, chunksize=8))
    else:
        results = [_check_pair(t) for t in tasks]
    witnesses = {arrow: None for arrow in diagram.arrows}
    for res in results:
        for fine, coarse in diagram.arrows:
            if witnesses[(fine, coarse)] is None:
                if res.matrix[coarse] and not res.matrix[fine]:
                    witnesses[(fine, coarse)] = (res.left_name, res.right_name)
    return SpectrumReport(diagram=diagram, results=results, arrow_witnesses=witnesses)
