import hashlib
import inspect
import math
import random
import time
from collections import Counter

import pytest

import esequiv.equivalences as eq
import esequiv.semantics as semantics
from esequiv.algebra import from_expr
from esequiv.equivalences import (
    INCLUSION_ARROWS,
    MATRIX_ORDER,
    GameWitness,
    Relation,
    TraceWitness,
    bisim,
    check,
    full_matrix,
    hb_equiv,
    hhb_equiv,
    pomset_trace_equiv,
    trace_equiv,
    whb_equiv,
)
from esequiv.errors import ModeMismatch, SizeLimit, ValidationError
from esequiv.semantics import (
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    MODES,
    Semantics,
    build_lts,
)
from esequiv.spectrum import CorpusSpec, builtin_fixtures, corpus_pairs
from esequiv.structure import EventStructure, build

from conftest import random_structure
from oracles import (
    game_witness_problems,
    o_distinguishing_depth,
    o_hb,
    o_hhb,
    o_whb,
    o_whb_relation,
)

R = Relation


def lts(expr, mode):
    return build_lts(from_expr(expr), mode)


class TestTraceEquiv:
    def test_stuck_choice_same_traces(self):
        assert trace_equiv(
            lts("a + (a||a)", MODE_INTERLEAVING), lts("a||a", MODE_INTERLEAVING)
        )

    def test_thirteen_word_language(self):
        assert trace_equiv(
            lts("(a||b);(a||b)", MODE_INTERLEAVING),
            lts("(a;b)||(b;a)", MODE_INTERLEAVING),
        )

    def test_step_sees_the_double_a(self):
        ok, wit = trace_equiv(
            lts("a;a", MODE_STEP), lts("a||a", MODE_STEP), witness=True
        )
        assert not ok
        assert wit == TraceWitness(side="right", sequence=(("a", "a"),))

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            trace_equiv(lts("a", MODE_STEP), lts("a", MODE_INTERLEAVING))

    def test_witness_is_minimal(self):
        ok, wit = trace_equiv(
            lts("a;b", MODE_INTERLEAVING), lts("b;a", MODE_INTERLEAVING), witness=True
        )
        assert not ok
        assert wit.sequence == ("a",)  # shortest, then lexicographically least


class TestBisim:
    def test_stuck_choice_not_bisimilar(self):
        ok, wit = bisim(
            lts("a + (a||a)", MODE_INTERLEAVING),
            lts("a||a", MODE_INTERLEAVING),
            witness=True,
        )
        assert not ok
        assert isinstance(wit, GameWitness)

    def test_step_bisim_immediate(self, pair_st_not_ib):
        left, right = pair_st_not_ib
        assert bisim(build_lts(left, MODE_STEP), build_lts(right, MODE_STEP)) is False
        assert trace_equiv(build_lts(left, MODE_STEP), build_lts(right, MODE_STEP))

    def test_eight_event_pair_step_bisimilar(self, pair_sb_not_whb):
        left, right = pair_sb_not_whb
        ok, wit = bisim(
            build_lts(left, MODE_STEP), build_lts(right, MODE_STEP), witness=True
        )
        assert ok
        assert (0, 0) in wit.members

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            bisim(lts("a", MODE_STEP), lts("a", MODE_INTERLEAVING))

    def test_game_witnesses_replay(self):
        fixture = next(fx for fx in builtin_fixtures() if fx.name == "it-not-ib-cs")
        rng = random.Random(61)
        pairs = [(fixture.left, fixture.right)]
        for _ in range(300):
            alphabet = rng.choice([1, 2])
            pairs.append(
                (
                    random_structure(rng, max_events=5, alphabet=alphabet),
                    random_structure(rng, max_events=5, alphabet=alphabet),
                )
            )
        deep = 0
        for left, right in pairs:
            for mode in MODES:
                la, lb = build_lts(left, mode), build_lts(right, mode)
                ok, wit = bisim(la, lb, witness=True)
                depth = o_distinguishing_depth(la, lb)
                assert ok == (depth is None)
                if not ok:
                    assert game_witness_problems(la, lb, wit) == [], (left, right, mode)
                    deep += depth > 1
        assert deep > 100  # the lines are not all one stuck move


class TestPomsetTrace:
    def test_reflexive(self, ex22):
        assert pomset_trace_equiv(ex22, ex22)

    def test_chain_vs_antichain(self):
        ok, wit = pomset_trace_equiv(
            from_expr("a;a"), from_expr("a||a"), witness=True
        )
        assert not ok
        assert wit.configuration == 0b11

    def test_a_size_below_the_largest_differs(self):
        # the codes are compared size by size: both sides have the one
        # 2-event pomset a<b, but only the left has the 1-event pomset c
        left, right = from_expr("(a;b)+c"), from_expr("(a;b)+a")
        for rel in (R.PT, R.PB):
            assert check(rel, left, right) is False
        ok, wit = pomset_trace_equiv(left, right, witness=True)
        assert not ok and wit.side == "left" and wit.configuration == 0b100

    def test_step_equivalent_pair_differs(self, pair_st_not_ib):
        left, right = pair_st_not_ib
        assert not pomset_trace_equiv(left, right)


class TestHistoryPreserving:
    def test_whb_fails_on_eight_event_pair(self, pair_sb_not_whb):
        left, right = pair_sb_not_whb
        assert not whb_equiv(left, right)

    def test_whb_reflexive(self, ex22):
        assert whb_equiv(ex22, ex22)

    def test_whb_chain_vs_antichain(self):
        assert not whb_equiv(from_expr("a;a"), from_expr("a||a"))

    def test_whb_members_are_the_naive_fixpoint(self):
        # a positive whb lists exactly the naive greatest fixpoint, with
        # configurations as masks; a negative one leaves the roots out of it
        rng = random.Random(67)
        pairs = [(fx.left, fx.right) for fx in builtin_fixtures()]
        for i in range(90):
            cls = ("pes", "cs", "ees")[i % 3]
            alphabet = rng.choice([1, 2])
            a, b = (
                random_structure(rng, max_events=5, alphabet=alphabet, classes=(cls,))
                for _ in range(2)
            )
            pairs += [(a, b), (a, a)]
        related = 0
        for left, right in pairs:
            want = tuple(sorted(
                (sum(1 << e for e in X), sum(1 << e for e in Y))
                for X, Y in o_whb_relation(left, right)
            ))
            ok, wit = whb_equiv(left, right, witness=True)
            assert ok == ((0, 0) in want)
            if ok:
                related += left is not right
                assert wit.members == want, (left, right)
            else:
                assert wit is None
        assert related >= 3  # some related pairs are not a structure with itself

    def test_hb_holds_on_backtrack_pair(self):
        left = from_expr("a || (a + (a||a))")
        right = from_expr("(a || (a + (a||a))) + (a||a)")
        assert hb_equiv(left, right)
        assert not hhb_equiv(left, right)

    def test_hb_duplicate_choice(self):
        assert hb_equiv(from_expr("a"), from_expr("a+a"))
        assert hhb_equiv(from_expr("a"), from_expr("a+a"))

    def test_hb_chain_vs_antichain(self):
        assert not hb_equiv(from_expr("a;a"), from_expr("a||a"))

    def test_hhb_reflexive(self, ex22):
        assert hhb_equiv(ex22, ex22)

    def test_triple_bound(self):
        # the 8-atom antichain has sum(C(8, j)**2 * j!) = 1,441,729 triples
        # (7 atoms: 130,922); the count stops as soon as it passes the bound
        atoms = from_expr("||".join(["a"] * 8))
        bound = f"at least {eq.MAX_TRIPLES + 1} history-preserving triples; limit is 262144"
        with pytest.raises(SizeLimit, match=bound):
            hb_equiv(atoms, atoms)


class TestFullMatrix:
    def test_seq_vs_par(self):
        m = full_matrix(from_expr("a;a"), from_expr("a||a"))
        assert m.bits() == "1010000000"  # it and ib only

    def test_self(self, ex22):
        assert full_matrix(ex22, ex22).bits() == "1" * 10

    def test_eight_event_pair(self, pair_sb_not_whb):
        m = full_matrix(*pair_sb_not_whb)
        assert m[R.IT] and m[R.ST] and m[R.IB] and m[R.SB]
        for rel in (R.PT, R.PB, R.WHB, R.HB, R.HHB, R.ISO):
            assert not m[rel]

    def test_empty_structures(self):
        empty = build(0, {})
        assert full_matrix(empty, empty).bits() == "1" * 10
        assert full_matrix(empty, from_expr("a")).bits() == "0" * 10

    def test_inclusion_arrows_on_random_pairs(self):
        rng = random.Random(47)
        for _ in range(30):
            a = random_structure(rng, max_events=6)
            b = random_structure(rng, max_events=6)
            m = full_matrix(a, b)  # raises SpectrumViolation on any breach
            for fine, coarse in INCLUSION_ARROWS:
                assert not m[fine] or m[coarse]

    def test_relations_are_equivalences(self):
        rng = random.Random(53)
        structures = [random_structure(rng, max_events=5) for _ in range(8)]
        for s in structures[:4]:
            m = full_matrix(s, s)
            assert m.bits() == "1" * 10  # reflexivity
        for s in structures:
            for t in structures[:3]:
                left = full_matrix(s, t).verdicts
                right = full_matrix(t, s).verdicts
                assert left == right  # symmetry
        # transitivity spot check on one relation chain
        a, b, c = structures[:3]
        for rel in MATRIX_ORDER:
            if check(rel, a, b) and check(rel, b, c):
                assert check(rel, a, c)


class TestDispatch:
    #: structure class -> seeds of one-label pairs (up to 5 events) that are
    #: hb but not hhb related
    HB_NOT_HHB_SEEDS = {"cs": (86, 711), "pes": (5239, 15848)}

    @pytest.mark.parametrize("rel", list(MATRIX_ORDER))
    def test_check_agrees_with_matrix(self, rel, pair_st_not_ib):
        rng = random.Random(59)
        pairs = [pair_st_not_ib] + [
            (random_structure(rng, max_events=5), random_structure(rng, max_events=5))
            for _ in range(40)
        ]
        # a lone check starts hhb from the whole triple universe, the matrix
        # from hb's survivors: both must reach the same verdict and members
        hb_not_hhb = [
            (fx.left, fx.right) for fx in builtin_fixtures() if fx.name == "hb-not-hhb-cs"
        ]
        for cls, seeds in self.HB_NOT_HHB_SEEDS.items():
            for seed in seeds:
                seeded = random.Random(seed)
                hb_not_hhb.append(tuple(
                    random_structure(seeded, max_events=5, alphabet=1, classes=(cls,))
                    for _ in range(2)
                ))
        pairs += hb_not_hhb + [(from_expr("a"), from_expr("a+a"))]
        for left, right in pairs:
            m = full_matrix(left, right, witness=True)
            assert check(rel, left, right) == m[rel]
            assert check(rel, left, right, witness=True) == (m.verdicts[rel], m.witnesses[rel])
        if rel in (R.HB, R.HHB):
            oracle = o_hb if rel is R.HB else o_hhb
            for left, right in hb_not_hhb:
                assert oracle(left, right) == (rel is R.HB)
                assert check(rel, left, right) == (rel is R.HB)

    def test_witness_modes(self):
        ok, wit = check(R.ISO, from_expr("a;b"), from_expr("a;b"), witness=True)
        assert ok and wit is not None
        ok, wit = check(R.HHB, from_expr("a"), from_expr("a+a"), witness=True)
        assert ok and wit.kind == "hereditary-history-bisimulation"

    def test_one_pair_serves_hhb_before_hb(self):
        # hhb must not prune the triples hb reads later
        fx = next(fx for fx in builtin_fixtures() if fx.name == "hb-not-hhb-cs")
        pair = eq.Pair.of(fx.left, fx.right)
        assert eq.Pair.of(pair) is pair
        assert not check(R.HHB, pair)
        assert hb_equiv(pair) and whb_equiv(pair)
        with pytest.raises(TypeError, match="one Pair"):
            whb_equiv(fx.left)

    def test_matrix_decides_each_relation_once_and_builds_triples_for_whb_pairs(
        self, monkeypatch, ex22, pair_st_not_ib
    ):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                mode = getattr(args[0], "mode", None)  # the LTS deciders
                calls[name if mode is None else (name, mode)] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in (
            "trace_equiv", "bisim", "pomset_trace_equiv", "whb_equiv",
            "hb_equiv", "hhb_equiv", "_iso", "_enumerate_isos",
        ):
            monkeypatch.setattr(eq, name, counting(name, getattr(eq, name)))
        real_bisim, real_classes, in_mode = eq._bisim, eq._classes, [None]

        def bisim_counting(moves_a, moves_b, states_a, states_b, mode, witness):
            in_mode[0] = mode  # the untagged class passes run inside `_bisim`
            return real_bisim(moves_a, moves_b, states_a, states_b, mode, witness)

        def classes(moves, count, table, tag=None):
            calls["tagged _classes" if tag is not None else ("_classes", in_mode[0])] += 1
            return real_classes(moves, count, table, tag)

        monkeypatch.setattr(eq, "_bisim", bisim_counting)
        monkeypatch.setattr(eq, "_classes", classes)
        real_build = semantics.build_lts

        def build_lts_counting(s, mode):
            calls[("build_lts", mode)] += 1
            return real_build(s, mode)

        monkeypatch.setattr(semantics, "build_lts", build_lts_counting)

        def rounds_at_root(s, mode):  # read off the full system
            succ = real_build(s, mode).successors
            labels = [frozenset(label for label, _ in moves) for moves in succ]
            if mode == MODE_POMSET:  # one round: the roots' labels
                return labels[0]
            return frozenset((label, labels[j]) for label, j in succ[0])

        # it and st run the subset search over the memos, so neither calls
        # trace_equiv nor builds a system
        once = Counter({
            "pomset_trace_equiv": 1,
            "whb_equiv": 1,
            "hb_equiv": 1,
            "hhb_equiv": 1,
            "_iso": 1,
        })
        # it-not-ib-cs fails whb at the roots, although 5 of its
        # configuration pairs have equal whb class; whb holds on
        # hb-not-hhb-cs, where 21 of the 46 pairs of equal pomset are whb pairs
        fixtures = {fx.name: (fx.left, fx.right) for fx in builtin_fixtures()}
        pairs = [
            pair_st_not_ib,
            fixtures["it-not-ib-cs"],
            fixtures["hb-not-hhb-cs"],
            (ex22, ex22),
            (from_expr("a;(b||c)"), from_expr("(a;b)||c")),
            (from_expr("a"), from_expr("a+a")),
        ]
        related = [whb_equiv(left, right, witness=True) for left, right in pairs]
        assert {ok for ok, _ in related} == {True, False}
        seen_agree = {m: set() for m in MODES}
        for (left, right), (ok, wit) in zip(pairs, related):
            calls.clear()
            full_matrix(left, right, witness=True)
            # the pair builds the triples of every pair whb relates once, for
            # hb and hhb together, and none at all when whb fails at the roots
            assert calls.pop("_enumerate_isos", 0) == (len(wit.members) if ok else 0)
            # ib and sb run the class pass over the memos' moves, once per
            # side, only when the roots agree for two rounds, and pb only
            # when the roots offer the same move labels; whb runs its tagged
            # pass, once per side, only when the interleaving roots agree
            # for two rounds and the configurations' code sets, the pomset
            # roots' labels, are equal.  No system is built, and the public
            # `bisim` is not called
            agree = {m: rounds_at_root(left, m) == rounds_at_root(right, m) for m in MODES}
            for mode in MODES:
                assert calls.pop(("_classes", mode), 0) == (2 if agree[mode] else 0)
                seen_agree[mode].add(agree[mode])
            gated = agree[MODE_INTERLEAVING] and agree[MODE_POMSET]
            assert calls.pop("tagged _classes", 0) == (2 if gated else 0)
            assert calls == once
        assert all(seen == {True, False} for seen in seen_agree.values())


class TestRootRefutation:
    """`check` refutes ib and sb within two game rounds, and pb from the
    roots' move labels, before any class pass and without building a
    system; its verdicts and witnesses must be those of `bisim` over the
    fully built systems, on the pairs it refutes and the others."""

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_check_equals_bisim_over_built_systems(self, seed, structure_class):
        spec = CorpusSpec(structure_class, 60, 6, alphabet=2, seed=seed)
        pairs = [(left, right) for _, left, _, right in corpus_pairs(spec)]
        pairs += [(fx.left, fx.right) for fx in builtin_fixtures()]
        refuted = Counter()
        for left, right in pairs:
            for rel in (R.IB, R.SB, R.PB):
                mode = eq._MODE_OF[rel]
                la, lb = build_lts(left, mode), build_lts(right, mode)
                for w in (False, True):
                    assert check(rel, left, right, witness=w) == bisim(la, lb, witness=w)
                refuted[rel] += {lab for lab, _ in la.successors[0]} != {
                    lab for lab, _ in lb.successors[0]
                }
        # both paths are taken for every relation
        assert all(0 < refuted[rel] < len(pairs) for rel in (R.IB, R.SB, R.PB))

    @pytest.mark.parametrize(
        "rel", [R.IT, R.ST, R.IB, R.SB, R.WHB, R.PB, R.HB, R.HHB]
    )
    def test_event_bound_comes_first(self, rel):
        wide = from_expr("||".join(["a"] * 31))
        for left, right in ((wide, from_expr("a")), (from_expr("a;a"), wide)):
            with pytest.raises(SizeLimit, match="^structure has 31 events; limit is 30$"):
                check(rel, left, right)

    def test_step_roots_keep_the_configurations_bound(self):
        atoms = from_expr("||".join(["a"] * 25))
        text = "^structure has at least 65537 configurations; limit is 65536$"
        for right in (atoms, from_expr("a")):
            with pytest.raises(SizeLimit, match=text):
                check(R.SB, atoms, right)

    def test_pomset_roots_refute_before_the_transition_bound(self, monkeypatch):
        atoms = from_expr("||".join(["a"] * 12))
        chain = from_expr(";".join(["a"] * 12))
        # 3^12 - 2^12 pomset transitions: a pair that agrees at the roots
        # still reaches the bound
        text = "^at least 262147 pomset transitions; limit is 262144$"
        with pytest.raises(SizeLimit, match=text):
            check(R.PB, atoms, atoms)
        monkeypatch.setattr(semantics, "build_lts", None)  # no system is built
        times = []
        for _ in range(3):
            start = time.process_time()
            assert check(R.PB, atoms, chain) is False
            times.append(time.process_time() - start)
        assert min(times) < 0.1
        ok, wit = check(R.PB, chain, atoms, witness=True)
        assert not ok and wit.moves[0][0] == "left" and wit.stuck_side == "right"

    def test_pomset_gate_refuses_unclosed_causality(self):
        # e2's cause e1 has the cause e0, which e2 lacks: the pomset mode
        # refuses the structure before any root is compared, with or
        # without a witness, whichever side it is on
        unclosed = EventStructure(
            labels=("a", "a", "a"), down=(0, 0b001, 0b010), conflicts=(0, 0, 0)
        )
        atoms = from_expr("a||a||a")
        text = "^causality is not transitively closed at event 2$"
        for left, right in ((unclosed, atoms), (atoms, unclosed)):
            for w in (False, True):
                with pytest.raises(ValidationError, match=text):
                    check(R.PB, left, right, witness=w)
        with pytest.raises(ValidationError, match=text):
            Semantics(unclosed).moves(0, MODE_POMSET)
        # the other modes read no causes-first order, so they accept it: its
        # configurations form a chain, with no step of two events
        assert check(R.IB, unclosed, atoms) is True
        assert check(R.SB, unclosed, atoms) is False

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    def test_two_rounds_refute_exactly_the_pairs_won_within_two_moves(self, structure_class):
        # the gate refutes a pair iff the attacker's fewest winning moves
        # are 1 or 2, and its line is then the one of the classes
        paths = Counter()
        for alphabet in (1, 2):
            for seed in (1, 2):
                spec = CorpusSpec(structure_class, 40, 6, alphabet=alphabet, seed=seed)
                for _, left, _, right in corpus_pairs(spec):
                    for rel in (R.IB, R.SB):
                        mode = eq._MODE_OF[rel]
                        la, lb = build_lts(left, mode), build_lts(right, mode)
                        depth = o_distinguishing_depth(la, lb)
                        refuted = not eq.Pair.of(left, right).two_rounds_agree(mode)
                        assert refuted == (depth in (1, 2)), (left, right, mode)
                        ok, wit = check(rel, left, right, witness=True)
                        assert (ok, wit) == bisim(la, lb, witness=True)
                        if refuted:
                            assert len(wit.moves) == depth
                            assert game_witness_problems(la, lb, wit) == []
                            paths[f"round {depth}"] += 1
                        else:
                            paths["holds" if ok else "class pass"] += 1
        # all four paths are taken
        assert set(paths) == {"round 1", "round 2", "class pass", "holds"}

    def test_two_rounds_refute_before_the_transition_bound(self, monkeypatch):
        # the 16-atom antichain has 16 * 2^15 interleaving transitions, and
        # against itself its class pass stops at the bound; against a;b its a
        # leads to another a, where a;b offers only b: two moves win, read
        # off the moves of the root and its 16 successors
        atoms = from_expr("||".join(["a"] * 16))
        monkeypatch.setattr(semantics, "build_lts", None)
        monkeypatch.setattr(eq, "_classes", None)
        for w in (False, True):
            ma = Semantics(atoms)
            got = check(R.IB, ma, from_expr("a;b"), witness=w)
            assert sum(moves is not None for moves in ma._listed[MODE_INTERLEAVING][0]) == 17
        line = GameWitness(
            moves=(("left", "a"), ("left", "a")), stuck_side="right", stuck_label="a",
            position=(1, 1),
        )
        assert got == (False, line)
        # the roots' labels come first: the 12-atom antichain's steps a,
        # a,a, ... against the 12-chain's a alone refute sb at the roots,
        # before the successors' steps, most of 3^12 - 2^12, are made
        atoms, chain = from_expr("||".join(["a"] * 12)), from_expr(";".join(["a"] * 12))
        ok, wit = check(R.SB, atoms, chain, witness=True)
        assert not ok and wit.moves == (("left", ("a", "a")),)

    def test_one_two_round_test_per_mode(self, monkeypatch):
        # ib and whb's gate read one interleaving verdict, and a refuted
        # witness reuses the test the gate built
        built = Counter()
        real = eq._two_rounds

        def counted(moves_a, moves_b):
            built[inspect.getclosurevars(moves_a).nonlocals["mode"]] += 1
            return real(moves_a, moves_b)

        monkeypatch.setattr(eq, "_two_rounds", counted)
        pairs = [(fx.left, fx.right) for fx in builtin_fixtures()]
        corpus = corpus_pairs(CorpusSpec("pes", 30, 5, seed=1))
        pairs += [(left, right) for _, left, _, right in corpus]
        refuted = 0
        for left, right in pairs:
            built.clear()
            got = full_matrix(left, right, witness=True)
            assert set(built) <= set(MODES) and max(built.values(), default=0) <= 1, built
            refuted += not got[R.IB]
        assert refuted

    @pytest.mark.parametrize("mode", MODES)
    def test_stuck_side_reads_no_class(self, mode):
        # a side stuck at the position: the line ends there without `same`
        def same(x, y):
            raise AssertionError(f"class of {(x, y)} read at a stuck position")

        for left, right, side in (("a;b", "b", "left"), ("b", "a||b", "right")):
            la, lb = lts(left, mode), lts(right, mode)
            wit = eq._bisim_line(
                la.successors.__getitem__, lb.successors.__getitem__, la.states, lb.states, same
            )
            assert wit == bisim(la, lb, witness=True)[1]
            assert wit.moves == ((side, wit.stuck_label),) and wit.position == (0, 0)

    def test_step_traces_refute_before_the_transition_bound(self, monkeypatch):
        atoms = from_expr("||".join(["a"] * 12))
        chain = from_expr(";".join(["a"] * 12))
        # 3^12 - 2^12 step transitions: the search over the antichain against
        # itself reaches them all and stops at the bound
        text = "^at least 262147 step transitions; limit is 262144$"
        with pytest.raises(SizeLimit, match=text):
            check(R.ST, atoms, atoms)
        # against the chain it stops after the roots, at the step a,a
        monkeypatch.setattr(semantics, "build_lts", None)  # no system is built
        assert check(R.ST, atoms, chain) is False
        ok, wit = check(R.ST, atoms, chain, witness=True)
        assert not ok and wit == TraceWitness(side="left", sequence=(("a", "a"),))


class TestLazyDeciders:
    """`check` decides it and st by a subset search over the memos' moves,
    and whb, hb and hhb fail at once when the interleaving roots' move
    labels or the configurations' code sets differ; its verdicts and
    witnesses must be those of the deciders over fully built systems, on
    the pairs the new paths cut short and the others."""

    @staticmethod
    def pairs(seed, structure_class):
        spec = CorpusSpec(structure_class, 60, 6, alphabet=2, seed=seed)
        pairs = [(left, right) for _, left, _, right in corpus_pairs(spec)]
        return pairs + [(fx.left, fx.right) for fx in builtin_fixtures()]

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_trace_search_equals_trace_equiv_over_built_systems(self, seed, structure_class):
        pairs = self.pairs(seed, structure_class)
        cut, related = Counter(), Counter()
        for left, right in pairs:
            for rel in (R.IT, R.ST):
                mode = eq._MODE_OF[rel]
                la, lb = build_lts(left, mode), build_lts(right, mode)
                for w in (False, True):
                    ma, mb = Semantics(left), Semantics(right)
                    assert check(rel, ma, mb, witness=w) == trace_equiv(la, lb, witness=w)
                # the search makes the moves only of the configurations it
                # reaches: all of them when it holds, maybe fewer when not
                expanded = sum(
                    moves is not None for m in (ma, mb) for moves in m._listed[mode][0]
                )
                cut[rel] += expanded < len(la.states) + len(lb.states)
                related[rel] += trace_equiv(la, lb)
        # both paths are taken for every relation
        for rel in (R.IT, R.ST):
            assert 0 < cut[rel] and 0 < related[rel] < len(pairs)
            assert cut[rel] <= len(pairs) - related[rel]

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_whb_equals_the_tagged_class_pass_over_built_systems(self, seed, structure_class):
        pairs = self.pairs(seed, structure_class)
        paths = Counter()
        for left, right in pairs:
            table, cls, sems = {}, [], (Semantics(left), Semantics(right))
            for m in sems:
                lts = build_lts(m, MODE_INTERLEAVING)
                tags = [table.setdefault(m.code(x), len(table)) for x in lts.states]
                cls.append(eq._classes(
                    lts.successors.__getitem__, len(lts.states), table, tags.__getitem__
                ))
            (ca, cb), ok = cls, cls[0][0] == cls[1][0]
            members = eq._class_pairs(sems[0].configurations, ca, sems[1].configurations, cb)
            full = (ok, eq.RelationWitness("weak-history-bisimulation", members) if ok else None)
            assert check(R.WHB, left, right) == ok
            assert check(R.WHB, left, right, witness=True) == full
            pair = eq.Pair.of(left, right)
            if not pair.two_rounds_agree(MODE_INTERLEAVING):
                paths["rounds"] += 1
            elif not pair.codes_agree:
                paths["codes"] += 1
            else:
                paths["pass"] += 1
        # all three paths are taken
        assert set(paths) == {"rounds", "codes", "pass"}

    def test_refuted_roots_build_nothing_for_the_history_relations(self, monkeypatch):
        # a;b against b;a: the interleaving roots offer a against b;
        # a;a against a||a: the roots agree on a, the codes differ at size 2
        monkeypatch.setattr(semantics, "build_lts", None)
        monkeypatch.setattr(eq, "_classes", None)
        for left, right in ((from_expr("a;b"), from_expr("b;a")),
                            (from_expr("a;a"), from_expr("a||a"))):
            for rel in (R.WHB, R.HB, R.HHB):
                assert check(rel, left, right) is False
                assert check(rel, left, right, witness=True) == (False, None)

    def test_whb_verdict_lists_no_configuration_pairs(self, monkeypatch):
        # an antichain against itself: all size-k configurations share a
        # class, so listing the related pairs grows with C(2n, n); the
        # verdict reads the classes only, and one memo's codes agree unread
        s = from_expr("||".join("a" * 6))
        members = check(R.WHB, s, s, witness=True)[1].members
        assert len(members) == math.comb(12, 6)
        monkeypatch.setattr(eq, "_class_pairs", None)
        assert check(R.WHB, s, s) is True
        monkeypatch.setattr(Semantics, "sized_codes", None)
        assert check(R.PT, s, s) is True
        assert check(R.WHB, s, s) is True

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    def test_code_gate_agrees_with_the_oracles(self, structure_class):
        # whb, hb and hhb are refuted by the code sets alone when the
        # interleaving roots agree for two rounds; the oracles decide them
        # without that gate
        gated = 0
        for alphabet in (1, 2):
            for seed in (1, 2):
                spec = CorpusSpec(structure_class, 40, 5, alphabet=alphabet, seed=seed)
                for _, left, _, right in corpus_pairs(spec):
                    pair = eq.Pair.of(left, right)
                    if not pair.two_rounds_agree(MODE_INTERLEAVING) or pair.codes_agree:
                        continue
                    gated += 1
                    for rel, oracle in ((R.WHB, o_whb), (R.HB, o_hb), (R.HHB, o_hhb)):
                        assert check(rel, left, right) is False
                        assert oracle(left, right) is False
        assert gated > 0


class TestNoSystemBuilt:
    """Every verdict reads the memos' moves: no relation constructs an
    `Lts`, and the class pass over the memos keeps the transition bound of
    a built system, message for message."""

    @staticmethod
    def refuse_systems(monkeypatch):
        def refuse(self):
            raise AssertionError(f"a {self.mode} system was built")

        monkeypatch.setattr(semantics.Lts, "__post_init__", refuse)

    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    def test_matrix_equals_the_deciders_over_built_systems(self, structure_class, monkeypatch):
        spec = CorpusSpec(structure_class, 60, 6, alphabet=2, seed=1)
        pairs = [(left, right) for _, left, _, right in corpus_pairs(spec)]
        pairs += [(fx.left, fx.right) for fx in builtin_fixtures()]
        expected = []
        for left, right in pairs:
            systems = {m: (build_lts(left, m), build_lts(right, m)) for m in MODES}
            by_lts = {
                rel: (trace_equiv if rel in (R.IT, R.ST) else bisim)(
                    *systems[mode], witness=True
                )
                for rel, mode in eq._MODE_OF.items()
            }
            expected.append((by_lts, full_matrix(left, right, witness=True)))
        self.refuse_systems(monkeypatch)
        for (left, right), (by_lts, before) in zip(pairs, expected):
            matrix = full_matrix(left, right, witness=True)
            assert matrix == before
            for rel, (ok, wit) in by_lts.items():
                assert (matrix[rel], matrix.witnesses[rel]) == (ok, wit)

    # the antichain of n atoms against itself: its roots agree in every mode,
    # so the class pass reads moves until the bound refuses them
    @pytest.mark.parametrize(
        "rel, n", [(R.IB, 16), (R.SB, 12), (R.PB, 12), (R.WHB, 16)], ids=str
    )
    def test_class_pass_raises_the_message_of_a_built_system(self, rel, n, monkeypatch):
        s = from_expr("||".join(["a"] * n))
        mode = MODE_INTERLEAVING if rel is R.WHB else eq._MODE_OF[rel]
        with pytest.raises(SizeLimit) as built:
            build_lts(s, mode)
        self.refuse_systems(monkeypatch)
        with pytest.raises(SizeLimit) as checked:
            check(rel, s, s)
        assert str(checked.value) == str(built.value)


class TestWitnessPin:
    """Verdicts and witnesses of every relation over a fixed set of pairs,
    pinned as one digest: a change that moves any verdict or witness line
    changes it."""

    def test_verdicts_and_witnesses_are_pinned(self):
        pairs = []
        for structure_class in ("pes", "cs", "ees"):
            for seed in (1, 2):
                spec = CorpusSpec(structure_class, 150, 7, alphabet=2, seed=seed)
                pairs += [(left, right) for _, left, _, right in corpus_pairs(spec)]
        pairs += [(fx.left, fx.right) for fx in builtin_fixtures()]
        assert len(pairs) == 908
        digest = hashlib.sha256()
        for left, right in pairs:
            m = full_matrix(left, right, witness=True)
            digest.update(repr((m.verdicts, m.witnesses)).encode())
            for rel in MATRIX_ORDER:
                digest.update(repr(check(rel, left, right, witness=True)).encode())
        assert digest.hexdigest() == (
            "83bd161d3f9cdbfd188350772127e3880d5518e7e210135554c6bc1a3eb5fc19"
        )

