import dataclasses
import hashlib
import random
import re
import time
from collections import Counter

import pytest

from esequiv import semantics, structure
from esequiv.algebra import from_expr
from esequiv.equivalences import Relation, _LanguageTable, check, full_matrix
from esequiv.errors import NotAConfiguration, SizeLimit, ValidationError
from esequiv.semantics import (
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    MAX_CONFIGURATIONS,
    MAX_TRANSITIONS,
    Lts,
    Semantics,
    build_lts,
    configurations,
    has_autoconcurrency,
    is_configuration,
    poset_of,
    trace_language,
)
from esequiv.search import SearchSpec, enumerate_posets, find_minimal_pairs
from esequiv.spectrum import CorpusSpec, builtin_fixtures, generate_corpus
from esequiv.structure import EventStructure, build, canonical_form

from conftest import random_structure
from oracles import in_conflict, o_configs, o_enabled, o_iso, o_step_succ


def masks(*event_sets):
    return sorted(sum(1 << e for e in es) for es in event_sets)


class TestConfigurations:
    def test_example_pair(self, ex22):
        got = sorted(configurations(ex22))
        assert got == masks((), (0,), (1,), (2,), (0, 1), (2, 3))
        # the b below a's cause is not reachable alone; conflicts bar {0, 2}
        assert not is_configuration(ex22, 0b1000)
        assert not is_configuration(ex22, 0b0101)

    def test_empty(self):
        assert configurations(build(0, {})) == (0,)

    def test_two_triangles_eight_downsets(self, pair_st_not_ib):
        left, _ = pair_st_not_ib
        assert len(configurations(left)) == 8

    def test_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            s = random_structure(rng, max_events=7)
            got = {frozenset(e for e in range(s.n) if (m >> e) & 1) for m in configurations(s)}
            assert got == o_configs(s)

    def test_count_bound(self, monkeypatch):
        assert len(configurations(build(16, ["a"] * 16))) == MAX_CONFIGURATIONS
        # 2**25 configurations: the expansion stops as soon as it passes the bound
        expanded = []
        enabled = semantics._enabled
        monkeypatch.setattr(
            semantics, "_enabled", lambda rows, m: expanded.append(m) or enabled(rows, m)
        )
        bound = f"at least {MAX_CONFIGURATIONS + 1} configurations; limit is {MAX_CONFIGURATIONS}"
        with pytest.raises(SizeLimit, match=bound):
            configurations(build(25, ["a"] * 25))
        # counted where the expansion computes enabled events, so a count of
        # 0 would mean the hook no longer sees the expansion
        assert 0 < len(expanded) <= MAX_CONFIGURATIONS


class TestPosets:
    def test_chain_from_example(self, ex22):
        chain = poset_of(ex22, 0b1100)
        assert canonical_form(chain) == canonical_form(from_expr("a;b"))

    def test_antichain_from_example(self, ex22):
        anti = poset_of(ex22, 0b0011)
        assert canonical_form(anti) != canonical_form(from_expr("a;b"))

    def test_empty_poset(self, ex22):
        assert canonical_form(poset_of(ex22, 0)) == canonical_form(poset_of(ex22, 0))

    def test_order_distinguishes_same_multiset(self):
        assert canonical_form(from_expr("a;a")) != canonical_form(from_expr("a||a"))

    def test_rejects_non_configuration(self, ex22):
        with pytest.raises(NotAConfiguration):
            poset_of(ex22, 0b1000)

    def test_codes_match_brute_isomorphism_up_to_seven(self):
        rng = random.Random(43)
        from oracles import o_iso

        posets = [random_structure(rng, max_events=7, classes=("ees",)) for _ in range(40)]
        for i, p in enumerate(posets):
            for q in posets[i + 1 : i + 4]:
                assert (canonical_form(p) == canonical_form(q)) == o_iso(p, q)


class TestLts:
    def test_example_interleaving(self, ex22):
        lts = build_lts(ex22, MODE_INTERLEAVING)
        assert len(lts.states) == 6
        assert len(lts.transitions) == 6
        assert (0, "a", 0b0001) in lts.transitions
        assert (0, "a", 0b0100) in lts.transitions
        assert (0, "b", 0b0010) in lts.transitions
        assert (0b0100, "b", 0b1100) in lts.transitions

    def test_step_includes_joint_and_singletons(self):
        lts = build_lts(from_expr("a||b"), MODE_STEP)
        labels_from_root = {(l, d) for s, l, d in lts.transitions if s == 0}
        assert (("a", "b"), 0b11) in labels_from_root
        assert (("a",), 0b01) in labels_from_root
        assert (("b",), 0b10) in labels_from_root
        assert len(lts.transitions) == 5

    def test_pomset_edge_count_is_subset_pairs(self):
        rng = random.Random(29)
        for _ in range(30):
            s = random_structure(rng, max_events=6)
            lts = build_lts(s, MODE_POMSET)
            confs = configurations(s)
            expected = sum(
                1 for x in confs for y in confs if x != y and (x & y) == x
            )
            assert len(lts.transitions) == expected

    def test_pomset_moves_reach_every_larger_configuration(self):
        # a < b and a # c, but not b # c: b is outside {c}'s conflicts, yet
        # no move from {c} may add it without a
        loose = EventStructure(labels=("a", "b", "c"), down=(0, 0b001, 0), conflicts=(0b100, 0, 0b001))
        # events numbered against causality: e3 < e2 < e1 < e0, e3 # e4
        backwards = build(5, "abcde", causes=[(3, 2), (2, 1), (1, 0)], conflicts=[(3, 4)])
        rng = random.Random(53)
        structures = [loose, backwards] + [random_structure(rng, max_events=6) for _ in range(40)]
        for s in structures:
            lts = build_lts(s, MODE_POMSET)
            for mask, moves in zip(lts.states, lts.successors):
                larger = [y for y in lts.states if y & mask == mask and y != mask]
                assert sorted(lts.states[j] for _, j in moves) == sorted(larger)
                assert all(label == Semantics(s).code(lts.states[j] & ~mask) for label, j in moves)

    def test_pomset_moves_refuse_unclosed_causality(self):
        # e1 < e0 and e2 < e1 but not e2 < e0: causes-first by count would
        # list e0 before its cause e1; a cycle has no causes-first order
        unclosed = EventStructure(labels=("a", "b", "c"), down=(0b010, 0b100, 0), conflicts=(0, 0, 0))
        cyclic = EventStructure(labels=("a", "b"), down=(0b11, 0b11), conflicts=(0, 0))
        for s in (unclosed, cyclic):
            for mode in (MODE_INTERLEAVING, MODE_STEP):
                build_lts(s, mode)
            with pytest.raises(ValidationError):
                build_lts(s, MODE_POMSET)
            with pytest.raises(ValidationError):
                _LanguageTable().root(s, MODE_POMSET)

    def test_systems_are_pinned(self):
        # sha256 of every system's repr, in all three modes, over a seeded
        # corpus: any change to the states, moves, labels or their order shows
        digest = hashlib.sha256()
        for cls in ("pes", "cs", "ees"):
            for seed in (1, 2):
                for s in generate_corpus(CorpusSpec(cls, 200, 7, alphabet=3, seed=seed)):
                    for mode in (MODE_INTERLEAVING, MODE_STEP, MODE_POMSET):
                        digest.update(repr(build_lts(s, mode)).encode())
        assert digest.hexdigest() == (
            "3acb92c518e92c79ee112f3375eb8e52338ea9f6c9900842ad249037a3473374"
        )

    def test_singleton_slices_agree(self):
        rng = random.Random(31)
        for _ in range(25):
            s = random_structure(rng, max_events=6)
            inter = set(build_lts(s, MODE_INTERLEAVING).transitions)
            steps = build_lts(s, MODE_STEP).transitions
            poms = build_lts(s, MODE_POMSET).transitions
            single_steps = {
                (src, lab[0], dst) for src, lab, dst in steps if len(lab) == 1
            }
            assert single_steps == inter
            single_poms = {
                (src, dst)
                for src, lab, dst in poms
                if (dst & ~src).bit_count() == 1
            }
            assert single_poms == {(src, dst) for src, _, dst in inter}

    def test_size_limit(self):
        big = build(31, {i: "a" for i in range(31)})
        with pytest.raises(SizeLimit):
            build_lts(big, MODE_INTERLEAVING)

    def test_transition_bound(self):
        # 3**12 - 2**12 = 527,345 pomset transitions, counted state by state
        bound = f"pomset transitions; limit is {MAX_TRANSITIONS}"
        with pytest.raises(SizeLimit, match=bound) as err:
            build_lts(build(12, ["a"] * 12), MODE_POMSET)
        count = int(re.search(r"at least (\d+) ", str(err.value)).group(1))
        # past the bound by less than one state's moves (at most 2**12 - 1)
        assert MAX_TRANSITIONS < count < MAX_TRANSITIONS + 2**12

    def test_wide_antichain_codes_each_size_once(self, monkeypatch):
        # the 65,535 subsets of the root fall into 16 pomsets, one per size
        monkeypatch.setattr(semantics, "_POMSET_CODES", {})
        real, calls = structure.canon_encode, []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(structure, "canon_encode", counting)
        with pytest.raises(SizeLimit, match="pomset transitions"):
            build_lts(build(16, ["a"] * 16), MODE_POMSET)
        assert len(calls) <= 16

    def test_moves_are_counted_before_they_are_coded(self, monkeypatch):
        # 65,535 moves from the root alone: the state that passes the bound
        # must raise before any of its pomsets is coded
        real, calls = Semantics.code, []

        def counting(self, mask):
            calls.append(mask)
            return real(self, mask)

        monkeypatch.setattr(Semantics, "code", counting)
        with pytest.raises(SizeLimit, match=f"pomset transitions; limit is {MAX_TRANSITIONS}"):
            build_lts(build(16, ["a"] * 16), MODE_POMSET)
        assert 0 < len(calls) <= MAX_TRANSITIONS

    def test_step_transition_bound(self):
        # 3**16 - 2**16 steps, as many as pomset moves on an antichain
        with pytest.raises(SizeLimit, match=f"step transitions; limit is {MAX_TRANSITIONS}"):
            build_lts(build(16, ["a"] * 16), MODE_STEP)

    def test_step_groups_follow_conflict_free_groups(self):
        # 30 pairwise-conflicting events enabled at the root: 30 groups, not
        # a walk over 2**30 submasks
        s = from_expr("+".join(["a"] * 30))
        start = time.perf_counter()
        lts = build_lts(s, MODE_STEP)
        assert time.perf_counter() - start < 5
        assert lts.successors[0] == tuple((("a",), j) for j in range(1, 31))
        assert len(lts.transitions) == 30

    def test_step_moves_match_the_oracle(self):
        rng = random.Random(47)
        structures = [random_structure(rng, max_events=7) for _ in range(60)]
        structures += [s for n in range(1, 7) for s in enumerate_posets(n)]
        enabled_conflicts = 0
        for s in structures:
            lts = build_lts(s, MODE_STEP)
            for mask, moves in zip(lts.states, lts.successors):
                X = frozenset(e for e in range(s.n) if mask >> e & 1)
                got = {(label, lts.states[j]) for label, j in moves}
                want = {(label, sum(1 << e for e in Y)) for label, Y in o_step_succ(s, X)}
                assert got == want
                assert len(moves) == len(got)
                assert list(moves) == sorted(moves)
                free = o_enabled(s, X)
                enabled_conflicts += any(in_conflict(s, e, f) for e in free for f in free)
        # the walk's conflict test is exercised, not only the conflict-free case
        assert enabled_conflicts > 0

    def test_rejects_systems_the_deciders_cannot_read(self):
        # the deciders index states by the table; a bad index must not reach them
        good = ((0, 1), ((("a", 1),), ()))
        assert Lts(MODE_INTERLEAVING, *good).transitions == ((0, "a", 1),)
        for states, successors in (
            ((0, 1), ((("a", 2),), ())),  # target index out of range
            ((0, 1), ((("a", -1),), ())),
            ((0, 1), ((("a", 1),),)),  # one successor tuple for two states
            ((0, 1), ((("a", 1),), (), ())),
            ((0, 1), ((("a", 1),), (("b", 0),))),  # a move to a smaller state
            ((0, 1, 2), ((("a", 1),), (("b", 1),), ())),  # to itself
            ((0, 1, 1), ((("a", 1),), (("b", 2),), ())),  # to an equal state
            ((0, 1, 2), ((("a", 1),), (("b", 2),), ())),  # {e0} to {e1}
            ((1, 3), ((("a", 1),), ())),  # the first state is not empty
            ((), ()),
        ):
            with pytest.raises(ValidationError):
                Lts(MODE_INTERLEAVING, states, successors)

    def test_cs_steps_and_pomsets_coincide(self):
        # without causality a pomset is just a multiset
        rng = random.Random(37)
        for _ in range(25):
            s = random_structure(rng, max_events=7, classes=("cs",))
            steps = build_lts(s, MODE_STEP).transitions
            poms = build_lts(s, MODE_POMSET).transitions
            assert len(steps) == len(poms)
            step_edges = {(src, dst) for src, _, dst in steps}
            assert step_edges == {(src, dst) for src, _, dst in poms}
            # the pomset label is determined by the step label and vice versa
            by_edge = {}
            for src, lab, dst in steps:
                by_edge[(src, dst)] = lab
            seen = {}
            for src, lab, dst in poms:
                step_lab = by_edge[(src, dst)]
                assert seen.setdefault(lab, step_lab) == step_lab

    def test_ees_full_set_is_configuration(self):
        rng = random.Random(41)
        for _ in range(25):
            s = random_structure(rng, max_events=7, classes=("ees",))
            assert is_configuration(s, s.all_mask)
            # a transition is enabled everywhere except at the full set
            lts = build_lts(s, MODE_INTERLEAVING)
            stuck = [m for m, moves in zip(lts.states, lts.successors) if not moves]
            assert stuck == [s.all_mask]


class TestTraceLanguage:
    def test_stuck_choice(self):
        lts = build_lts(from_expr("a + (a||a)"), MODE_INTERLEAVING)
        assert {"".join(w) for w in trace_language(lts)} == {"", "a", "aa"}

    def test_thirteen_words(self):
        expected = {
            "", "a", "b", "ab", "ba", "aba", "abb", "baa", "bab",
            "abab", "abba", "baab", "baba",
        }
        for expr in ("(a||b);(a||b)", "(a;b)||(b;a)"):
            lts = build_lts(from_expr(expr), MODE_INTERLEAVING)
            assert {"".join(w) for w in trace_language(lts)} == expected


class TestAutoconcurrency:
    def test_examples(self):
        assert has_autoconcurrency(from_expr("a||a"))
        assert not has_autoconcurrency(from_expr("a;a"))
        assert not has_autoconcurrency(from_expr("a+a"))
        assert not has_autoconcurrency(from_expr("a||b"))

    def test_conflicting_causes_propagate(self):
        # the conflict of the causes is inherited by the two a's themselves
        s = build(
            4,
            {0: "b", 1: "b", 2: "a", 3: "a"},
            causes=[(0, 2), (1, 3)],
            conflicts=[(0, 1)],
        )
        assert (s.conflicts[2] >> 3) & 1
        assert not has_autoconcurrency(s)


class TestSemanticsMemo:
    def test_memo_agrees_with_the_functions(self):
        rng = random.Random(67)
        for _ in range(20):
            s = random_structure(rng, max_events=6)
            sem = Semantics(s)
            assert sem.configurations == configurations(s)
            # one expansion gives both, in configuration order
            assert list(sem.enabled) == list(sem.configurations)
            for mask, events in sem.enabled.items():
                X = frozenset(e for e in range(s.n) if mask >> e & 1)
                assert events == sorted(o_enabled(s, X))
            for mode in (MODE_INTERLEAVING, MODE_STEP, MODE_POMSET):
                lts = build_lts(sem, mode)
                assert lts == build_lts(s, mode)
                # a built system holds the memo's own move tuples
                assert all(moves is sem.moves(i, mode) for i, moves in enumerate(lts.successors))
            assert isinstance(sem.codes, frozenset)
            assert sem.codes == {canonical_form(poset_of(s, m)) for m in sem.configurations}
            for m in sem.configurations:
                assert sem.code(m) == canonical_form(poset_of(s, m))

    def test_full_matrix_canonizes_each_key_once(self, monkeypatch):
        canonize, calls = semantics._canonize, Counter()

        def counting(key):
            calls[key] += 1
            return canonize(key)

        def no_restrict(s, mask):
            raise AssertionError("a pomset code built a substructure")

        monkeypatch.setattr(semantics, "_canonize", counting)
        monkeypatch.setattr(semantics, "restrict", no_restrict)
        for fx in builtin_fixtures():
            monkeypatch.setattr(semantics, "_POMSET_CODES", {})  # nothing coded yet
            calls.clear()
            full_matrix(fx.left, fx.right)
            assert calls, fx.name
            twice = [key for key, n in calls.items() if n > 1]
            assert not twice, (fx.name, twice[:3])

    def test_memos_stay_off_the_structures(self):
        """No fact outlives its call: structures keep only their own fields."""
        fields = {f.name for f in dataclasses.fields(EventStructure)}
        allowed = fields | {"up", "minimal_events"}  # its own cached properties
        left, right = from_expr("a || (a;b)"), from_expr("a;(a||b)")
        full_matrix(left, right, witness=True)
        for rel in Relation:
            check(rel, left, right)
        res = find_minimal_pairs(
            SearchSpec(coarse=Relation.IT, fine=Relation.IB, max_events=3, alphabet=2)
        )
        inputs = [left, right] + [s for pair in res.pairs for s in pair]
        for s in inputs:
            assert set(vars(s)) <= allowed, sorted(vars(s))


def _holds_conflict(s, mask):
    return any(s.conflicts[e] & mask for e in range(s.n) if mask >> e & 1)


def pomset_steps(s):
    """The event sets of the pomset moves: differences of nested configurations."""
    configs = configurations(s)
    return sorted({y & ~x for x in configs for y in configs if y & x == x and y != x})


class TestPomsetCodeTable:
    def test_codes_are_exact_after_warming(self):
        for fx in builtin_fixtures():
            full_matrix(fx.left, fx.right)
        # equal label ranks, different labels: a;b warms the table for b;c
        for expr in ("a;b", "a||b", "a+b"):
            Semantics(from_expr(expr)).codes
        rng = random.Random(71)
        probes = [from_expr("b;c"), from_expr("b||c"), from_expr("c;b")]
        probes += [random_structure(rng, max_events=6, alphabet=rng.randint(1, 3)) for _ in range(60)]
        for s in probes:
            sem = Semantics(s)
            for m in sem.configurations:
                assert sem.code(m) == canonical_form(poset_of(s, m))
            for m in pomset_steps(s):
                assert sem.code(m) == canonical_form(structure.restrict(s, m))
        assert Semantics(from_expr("b;c")).code(0b11) != Semantics(from_expr("a;b")).code(0b11)

    def test_keys_are_exact_on_any_mask(self, monkeypatch):
        # every configuration, every pomset step, and masks holding a conflict
        rng = random.Random(17)
        probes, conflicted = [], 0
        for _ in range(150):
            s = random_structure(rng, max_events=6, alphabet=rng.randint(1, 3), classes=("pes",))
            rivals = {m for m in (rng.randrange(1, 1 << s.n) for _ in range(12)) if _holds_conflict(s, m)}
            conflicted += len(rivals)
            probes += [(s, m) for m in sorted(set(configurations(s)) | set(pomset_steps(s)) | rivals)]
        assert conflicted
        first = {}
        for s, m in probes:
            key = semantics._order_key(s, m)
            assert len(key) == 2
            # packed cause rows alone stay an int, so no table grows
            assert isinstance(key[1], tuple if _holds_conflict(s, m) else int)
            sub = structure.restrict(s, m)
            met = first.setdefault(key, sub)
            assert met is sub or o_iso(met, sub), (s, m)
        # the keys do merge masks, so the check is not vacuous
        assert len(first) < len(probes)
        for s, m in probes:  # cold: every code is canonized from its key
            monkeypatch.setattr(semantics, "_POMSET_CODES", {})
            assert Semantics(s).code(m) == canonical_form(structure.restrict(s, m)), (s, m)
        monkeypatch.setattr(semantics, "_POMSET_CODES", {})
        for _ in range(2):  # warming, then warm
            for s, m in probes:
                assert Semantics(s).code(m) == canonical_form(structure.restrict(s, m)), (s, m)

    def test_a_conflict_is_part_of_the_key(self):
        choice, par = from_expr("a+b"), from_expr("a||b")
        for first, second in ((par, choice), (choice, par)):
            for s in (first, second):
                assert Semantics(s).code(0b11) == canonical_form(structure.restrict(s, 0b11))
        assert Semantics(choice).code(0b11) != Semantics(par).code(0b11)
        # two fields on any mask, as `search._next_level` unpacks them
        labels, rows = semantics._order_key(choice, 0b11)
        assert labels == ("a", "b") and rows == (0, 0b0110)
        assert semantics._order_key(par, 0b11) == (("a", "b"), 0)

    def test_bound_clears_the_table(self, monkeypatch):
        pairs = [(fx.left, fx.right) for fx in builtin_fixtures()]
        monkeypatch.setattr(semantics, "_POMSET_CODES", {})
        want = [repr(full_matrix(a, b, witness=True)) for a, b in pairs]
        sizes = []

        class Watched(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        monkeypatch.setattr(semantics, "MAX_POMSET_CODES", 4)
        monkeypatch.setattr(semantics, "_POMSET_CODES", Watched())
        assert [repr(full_matrix(a, b, witness=True)) for a, b in pairs] == want
        for s in {s for pair in pairs for s in pair}:
            sem = Semantics(s)
            for m in sem.configurations:
                assert sem.code(m) == canonical_form(poset_of(s, m))
        assert len(sizes) > 4 and max(sizes) <= 4
