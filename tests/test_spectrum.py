import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys

import pytest

from esequiv.equivalences import Relation, full_matrix
from esequiv.errors import UnsatisfiableSpec
from esequiv.semantics import build_lts, has_autoconcurrency
from esequiv.spectrum import (
    FIG_CS,
    FIG_EES,
    FIG_PES,
    DIAGRAMS,
    CorpusSpec,
    builtin_fixtures,
    corpus_pairs,
    generate_corpus,
    verify_spectrum,
)
from esequiv.structure import StructureClass, classify

R = Relation


class TestFixtures:
    def test_all_match_expected(self):
        for fx in builtin_fixtures():
            assert full_matrix(fx.left, fx.right).verdicts == fx.expected, fx.name

    def test_expected_matrices_are_diagram_consistent(self):
        for fx in builtin_fixtures():
            for fine, coarse in FIG_PES.arrows:
                assert not fx.expected[fine] or fx.expected[coarse], fx.name

    def test_key_separations_present(self):
        by_name = {fx.name: fx for fx in builtin_fixtures()}
        fx = by_name["hb-not-hhb-cs"]
        assert fx.expected[R.HB] and not fx.expected[R.HHB]
        fx = by_name["hhb-not-iso-cs"]
        assert fx.expected[R.HHB] and not fx.expected[R.ISO]
        fx = by_name["st-not-ib-ees"]
        assert fx.expected[R.ST] and not fx.expected[R.IB]
        assert not fx.expected[R.PT] and not fx.expected[R.SB]
        fx = by_name["sb-not-whb-ees"]
        assert fx.expected[R.SB] and not fx.expected[R.WHB]


class TestCorpus:
    def test_deterministic(self):
        spec = CorpusSpec(structure_class="cs", count=20, max_events=8, alphabet=1, seed=7)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_class_contracts(self):
        for cls, tag in (
            ("cs", StructureClass.CS),
            ("ees", StructureClass.EES),
            ("pes", StructureClass.PES),
        ):
            spec = CorpusSpec(structure_class=cls, count=30, max_events=8, seed=3)
            for s in generate_corpus(spec):
                assert tag in classify(s)

    def test_pes_retry_budget(self):
        # zero retries with hostile densities must eventually refuse
        hit = False
        for seed in range(200):
            spec = CorpusSpec(
                structure_class="pes",
                count=1,
                max_events=6,
                min_events=6,
                order_density=0.5,
                conflict_density=0.9,
                seed=seed,
                retries=1,
            )
            try:
                generate_corpus(spec)
            except UnsatisfiableSpec:
                hit = True
                break
        assert hit


class TestVerify:
    def test_cs_diagram_zero_violations(self):
        spec = CorpusSpec(structure_class="cs", count=40, max_events=8, alphabet=1, seed=11)
        report = verify_spectrum(corpus_pairs(spec), FIG_CS)
        assert report.violations == []
        # the three proper inclusions of the chain are all witnessed
        assert all(wit is not None for wit in report.arrow_witnesses.values())

    def test_ees_diagram_zero_violations(self):
        spec = CorpusSpec(structure_class="ees", count=40, max_events=8, alphabet=2, seed=12)
        report = verify_spectrum(corpus_pairs(spec), FIG_EES)
        assert report.violations == []
        assert all(wit is not None for wit in report.arrow_witnesses.values())

    def test_pes_diagram_zero_violations(self):
        spec = CorpusSpec(structure_class="pes", count=40, max_events=8, seed=13)
        report = verify_spectrum(corpus_pairs(spec), FIG_PES)
        assert report.violations == []

    def test_report_renders_deterministically(self):
        spec = CorpusSpec(structure_class="cs", count=10, max_events=6, seed=14)
        r1 = verify_spectrum(corpus_pairs(spec), FIG_CS)
        r2 = verify_spectrum(corpus_pairs(spec), FIG_CS)
        assert r1.render() == r2.render()
        assert r1.summary_table() == r2.summary_table()

    def test_parallel_matches_serial(self, monkeypatch):
        # the pool has at most one worker per CPU: claim two, so that a
        # one-CPU runner still runs the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = CorpusSpec(structure_class="ees", count=12, max_events=7, seed=15)
        serial = verify_spectrum(corpus_pairs(spec), FIG_EES, jobs=1)
        parallel = verify_spectrum(corpus_pairs(spec), FIG_EES, jobs=2)
        assert serial.summary_table() == parallel.summary_table()

    @pytest.mark.parametrize(
        "cpus, jobs, workers", [(4, 1000, 4), (8, 3, 3), (1, 8, None), (None, 8, None)]
    )
    def test_pool_has_at_most_one_worker_per_cpu(self, cpus, jobs, workers, monkeypatch):
        started = []

        class StubPool:
            """Records its size and runs the tasks in this process, so no
            worker is ever started."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = CorpusSpec(structure_class="ees", count=3, max_events=5, seed=15)
        report = verify_spectrum(corpus_pairs(spec), FIG_EES, jobs=jobs)
        # one CPU, or an unknown count, runs serially without a pool
        assert started == ([] if workers is None else [workers])
        assert report.render() == verify_spectrum(corpus_pairs(spec), FIG_EES).render()

    def test_import_leaves_the_pool_out(self):
        # the pool is imported only by a run with jobs > 1
        code = "import esequiv, sys; print('concurrent.futures' in sys.modules)"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "False\n"


class TestCollapses:
    def test_single_label_ees_it_equals_ib(self):
        spec = CorpusSpec(
            structure_class="ees", count=60, max_events=9, alphabet=1, seed=16
        )
        pairs = corpus_pairs(spec)
        for _, left, _, right in pairs:
            li = build_lts(left, "interleaving")
            ri = build_lts(right, "interleaving")
            from esequiv.equivalences import bisim, trace_equiv

            it = trace_equiv(li, ri)
            ib = bisim(li, ri)
            assert it == ib
            # and either verdict holds exactly when the event counts agree
            assert it == (left.n == right.n)

    def test_no_autoconcurrency_collapses_hb_whb(self):
        rng = random.Random(67)
        from conftest import random_structure
        from esequiv.equivalences import hb_equiv, whb_equiv

        pairs_checked = 0
        while pairs_checked < 25:
            a = random_structure(rng, max_events=6, alphabet=2)
            b = random_structure(rng, max_events=6, alphabet=2)
            if has_autoconcurrency(a) or has_autoconcurrency(b):
                continue
            assert hb_equiv(a, b) == whb_equiv(a, b)
            pairs_checked += 1


class TestReports:
    #: sha256 of render() + summary_table() for 100 pairs at seed 1, up to
    #: 8 events, 2 labels: the bytes of ``esequiv spectrum --table``
    DIGESTS = {
        "pes": "712d96121fa34a26b351a4fef996e6134511eb8248a70864d3089d174794ef52",
        "cs": "be2459c4c80ad477effe881acbd0b6bfbcd88e4d9c362a7375cb9366721c656d",
        "ees": "168c86450ab0d0f83bfb3636b1865ade52d72a166394509f3f60baa483213813",
    }

    def test_report_bytes_are_pinned(self):
        for cls, digest in self.DIGESTS.items():
            spec = CorpusSpec(structure_class=cls, count=100, max_events=8, alphabet=2, seed=1)
            report = verify_spectrum(corpus_pairs(spec), DIAGRAMS[cls])
            text = report.render() + report.summary_table()
            assert hashlib.sha256(text.encode()).hexdigest() == digest, cls
