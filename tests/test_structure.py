import random

import pytest

from esequiv.errors import (
    CausalityConflictOverlap,
    CycleInCausality,
    DanglingId,
    InvalidLabel,
    SelfConflict,
)
from esequiv.structure import (
    StructureClass,
    build,
    canonical_form,
    classify,
    concurrency,
    isomorphic,
    minimal_conflict_pairs,
    relabel,
    transitive_reduction,
)
from esequiv.algebra import from_expr
from esequiv.formats import dumps_es, loads_es
from esequiv.spectrum import CorpusSpec, corpus_pairs

from conftest import ODD_LABELS, random_structure
from oracles import o_iso, o_minimal_conflicts


class TestBuild:
    def test_example_pair_closure(self, ex22):
        # minimal conflicts {0,2},{1,2} close to all four unordered pairs
        assert sorted(ex22.conflict_pairs()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert sorted(ex22.causality_pairs()) == [(2, 3)]

    def test_empty(self):
        s = build(0, {})
        assert s.n == 0
        assert classify(s) == {
            StructureClass.PES,
            StructureClass.CS,
            StructureClass.EES,
        }

    def test_inheritance_forces_self_conflict(self):
        # choice below a join event has no prime semantics
        with pytest.raises(SelfConflict):
            build(3, {0: "a", 1: "b", 2: "c"}, causes=[(0, 2), (1, 2)], conflicts=[(0, 1)])

    def test_closure_accepts_reduction_or_closure(self):
        red = build(3, {0: "a", 1: "b", 2: "c"}, causes=[(0, 1), (1, 2)])
        clo = build(3, {0: "a", 1: "b", 2: "c"}, causes=[(0, 1), (1, 2), (0, 2)])
        assert red == clo

    def test_cycle(self):
        with pytest.raises(CycleInCausality):
            build(2, {0: "a", 1: "b"}, causes=[(0, 1), (1, 0)])
        with pytest.raises(CycleInCausality):
            build(1, {0: "a"}, causes=[(0, 0)])

    def test_dangling(self):
        with pytest.raises(DanglingId):
            build(2, {0: "a", 1: "b"}, causes=[(0, 5)])
        with pytest.raises(DanglingId):
            build(2, {0: "a"})

    def test_direct_overlap(self):
        with pytest.raises(CausalityConflictOverlap):
            build(2, {0: "a", 1: "b"}, causes=[(0, 1)], conflicts=[(0, 1)])

    def test_rebuild_is_identity(self):
        rng = random.Random(5)
        for _ in range(60):
            s = random_structure(rng)
            again = build(s.n, dict(enumerate(s.labels)), s.causality_pairs(), s.conflict_pairs())
            assert again == s

    def test_inheritance_soundness(self):
        rng = random.Random(6)
        for _ in range(60):
            s = random_structure(rng)
            for a, b in s.causality_pairs():
                # conflicts of a cause are inherited by the effect
                assert s.conflicts[a] & ~s.conflicts[b] == 0


class TestDerived:
    def test_concurrency_example_pair(self, ex22):
        assert concurrency(ex22) == {(0, 1)}

    def test_concurrency_trivial(self):
        assert concurrency(build(0, {})) == frozenset()
        assert concurrency(from_expr("a||a")) == {(0, 1)}

    def test_classify(self):
        assert StructureClass.CS in classify(from_expr("a+a"))
        assert StructureClass.EES not in classify(from_expr("a+a"))
        assert StructureClass.EES in classify(from_expr("a;a"))
        assert StructureClass.CS not in classify(from_expr("a;a"))

    def test_transitive_reduction_unique(self):
        s = build(3, {0: "a", 1: "b", 2: "c"}, causes=[(0, 1), (1, 2), (0, 2)])
        assert transitive_reduction(s) == [(0, 1), (1, 2)]

    def test_minimal_conflicts_example(self, ex22):
        assert minimal_conflict_pairs(ex22) == [(0, 2), (1, 2)]

    def test_minimal_conflicts_match_the_oracle(self):
        # seeded structures with conflict, and algebra sums and choices; the
        # written text reads back to the same structure
        inputs = [
            s
            for cls in ("pes", "cs")
            for _, left, _, right in corpus_pairs(CorpusSpec(cls, 60, 7, alphabet=2, seed=4))
            for s in (left, right)
        ]
        inputs += [from_expr("+".join(["a"] * k)) for k in range(1, 13)]
        inputs += [
            from_expr(text)
            for text in (
                "(a||b) + (a;b)", "a;(b+c)", "(a;b;c) + (a;(b||c))", "(a+b)||(c+d)",
                "a;((b;c)+(d||e)+f)", "(a;(b+c)) + (a;b)", "((a||c);d) + (a+b)",
            )
        ]
        assert sum(1 for s in inputs if any(s.conflicts)) > 100
        for s in inputs:
            assert minimal_conflict_pairs(s) == o_minimal_conflicts(s)
            assert loads_es(dumps_es(s)) == s


class TestIsomorphism:
    def test_not_iso_extra_branch(self):
        assert isomorphic(from_expr("a"), from_expr("a+a")) == (False, None)

    def test_self_iso(self, ex22):
        ok, mapping = isomorphic(ex22, ex22)
        assert ok
        assert sorted(mapping) == list(range(4))

    def test_eight_event_pair_not_iso(self, pair_sb_not_whb):
        left, right = pair_sb_not_whb
        assert isomorphic(left, right)[0] is False

    def test_witness_is_an_isomorphism(self):
        rng = random.Random(7)
        for _ in range(40):
            s = random_structure(rng, max_events=6)
            perm = list(range(s.n))
            rng.shuffle(perm)
            t = build(
                s.n,
                {perm[e]: s.labels[e] for e in range(s.n)},
                [(perm[a], perm[b]) for a, b in s.causality_pairs()],
                [(perm[a], perm[b]) for a, b in s.conflict_pairs()],
            )
            ok, mapping = isomorphic(s, t)
            assert ok
            for a in range(s.n):
                assert s.labels[a] == t.labels[mapping[a]]
            for a, b in s.causality_pairs():
                assert (t.down[mapping[b]] >> mapping[a]) & 1
            for a, b in s.conflict_pairs():
                assert (t.conflicts[mapping[a]] >> mapping[b]) & 1

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(120):
            s = random_structure(rng, max_events=6)
            t = random_structure(rng, max_events=6)
            assert isomorphic(s, t)[0] == o_iso(s, t)


class TestCanonicalForm:
    def test_commutative_par(self):
        assert canonical_form(from_expr("a||b")) == canonical_form(from_expr("b||a"))

    def test_labels_break_symmetry(self):
        assert canonical_form(from_expr("a;b")) != canonical_form(from_expr("b;a"))

    def test_respects_isomorphism(self):
        rng = random.Random(9)
        for _ in range(120):
            s = random_structure(rng, max_events=6)
            t = random_structure(rng, max_events=6)
            assert (canonical_form(s) == canonical_form(t)) == o_iso(s, t)

    def test_relabel(self):
        s = from_expr("a;b")
        t = relabel(s, {"a": "x", "b": "y"})
        assert t.labels == ("x", "y")
        assert t.down == s.down


class TestLabels:
    def test_nul_pair_rejected(self):
        # with NUL in a label these two would share a canonical form
        # without being isomorphic
        for labels in ({0: "a\x00b", 1: "c"}, {0: "a", 1: "b\x00c"}):
            with pytest.raises(InvalidLabel):
                build(2, labels)

    @pytest.mark.parametrize(
        "label", ["", " ", "a b", "a\tb", "a\nb", "#", "a#b", "a\x00", "\u00a0", "\u2028", "\ud800"]
    )
    def test_rejected_by_build_and_relabel(self, label):
        with pytest.raises(InvalidLabel):
            build(1, [label])
        with pytest.raises(InvalidLabel):
            relabel(from_expr("a"), {"a": label})

    def test_canonical_form_iff_isomorphic_on_odd_labels(self):
        rng = random.Random(31)
        for _ in range(120):
            names = dict(zip("abc", rng.sample(ODD_LABELS, 3)))
            s = relabel(random_structure(rng, max_events=5, alphabet=3), names)
            t = relabel(random_structure(rng, max_events=5, alphabet=3), names)
            assert (canonical_form(s) == canonical_form(t)) == o_iso(s, t)
