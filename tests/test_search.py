import hashlib
import itertools
import random
import re
import time
import weakref
from collections import Counter

import pytest

from esequiv.algebra import from_expr
from esequiv.equivalences import _MODE_OF, Relation, _classes, bisim, check, implies, trace_equiv
from esequiv import equivalences, search, semantics
from esequiv.errors import ModeMismatch, NoPairFound, NotAnEes, SizeLimit, ValidationError
from esequiv.formats import dumps_es
from esequiv.search import (
    SearchSpec,
    _LanguageTable,
    _buckets,
    _extended,
    _keyer,
    _process_bucket,
    _poset_levels,
    enumerate_posets,
    find_minimal_pairs,
    it_fingerprint,
    source_deleted_multiset,
    st_fingerprint,
)
from esequiv.semantics import MODE_POMSET, MODES, Semantics, _order_key, build_lts, trace_language
from esequiv.spectrum import CorpusSpec, corpus_pairs
from esequiv.structure import EventStructure, build, canonical_form, isomorphic

from oracles import o_configs, o_ib, o_pb, o_pomsets, o_sb, o_step_traces, o_traces

R = Relation


def _partition(keys):
    """The classes of equal keys, as a set of frozensets of positions."""
    classes = {}
    for idx, key in enumerate(keys):
        classes.setdefault(key, set()).add(idx)
    return {frozenset(c) for c in classes.values()}


# one-label class counts for sizes 0..6, frozen from the over-numbered
# oracle below (all transitively closed relations inside i<j, deduplicated)
ONE_LABEL_COUNTS = [1, 1, 2, 5, 16, 63, 318]


def oracle_class_count(n, alphabet=1):
    """Every poset admits a numbering where the order respects <, so listing
    all transitively closed pair sets inside the upper triangle hits every
    isomorphism class."""
    letters = "abc"[:alphabet]
    pairs = list(itertools.combinations(range(n), 2))
    forms = set()
    for picks in itertools.product((False, True), repeat=len(pairs)):
        down = [0] * n
        for chosen, (i, j) in zip(picks, pairs):
            if chosen:
                down[j] |= 1 << i
        ok = True
        for j in range(n):
            m = down[j]
            acc = m
            mm = m
            while mm:
                low = mm & -mm
                acc |= down[low.bit_length() - 1]
                mm ^= low
            if acc != m:
                ok = False
                break
        if not ok:
            continue
        for labels in itertools.product(letters, repeat=n):
            forms.add(
                canonical_form(
                    EventStructure(labels=labels, down=tuple(down), conflicts=(0,) * n)
                )
            )
    return len(forms)


class TestEnumerate:
    def test_single_event(self):
        assert len(list(enumerate_posets(1, 1))) == 1

    def test_three_events(self):
        assert len(list(enumerate_posets(3, 1))) == 5

    def test_counts_match_oracle_single_label(self):
        for n in range(1, 7):
            assert len(list(enumerate_posets(n, 1))) == oracle_class_count(n)
            assert len(list(enumerate_posets(n, 1))) == ONE_LABEL_COUNTS[n]

    def test_counts_match_oracle_two_labels(self):
        for n in range(1, 5):
            assert len(list(enumerate_posets(n, 2))) == oracle_class_count(n, 2)

    def test_no_duplicates_and_all_valid(self):
        reps = list(enumerate_posets(5, 2))
        forms = {canonical_form(s) for s in reps}
        assert len(forms) == len(reps)
        for s in reps:
            rebuilt = build(s.n, dict(enumerate(s.labels)), s.causality_pairs(), ())
            assert rebuilt == s

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            list(enumerate_posets(10, 1))
        with pytest.raises(SizeLimit):
            list(enumerate_posets(3, 4))
        with pytest.raises(SizeLimit, match=r"0\.\.9 events, got -1"):
            list(enumerate_posets(-1, 1))
        assert list(enumerate_posets(0, 1)) == [EventStructure(labels=(), down=(), conflicts=())]

    def test_class_bound(self, monkeypatch):
        # above the largest level built anywhere: 198,296 two-label classes
        # of 7 events
        assert search.MAX_SEARCH_CLASSES > 198_296
        # 5 one-label classes of 3 events, 16 of 4
        monkeypatch.setattr(search, "MAX_SEARCH_CLASSES", 5)
        assert len(list(enumerate_posets(3, 1))) == 5
        with pytest.raises(SizeLimit, match=r"^at least 6 classes of 4 events; limit is 5$"):
            list(enumerate_posets(4, 1))
        with pytest.raises(SizeLimit, match="limit is 5$"):
            find_minimal_pairs(SearchSpec(coarse=R.SB, fine=R.ISO, max_events=6))

    def test_class_bound_refuses_a_level_before_building_it(self, monkeypatch):
        # a fresh top event on each of the 7 two-label classes of 2 events,
        # with either letter, gives 14 distinct classes of 3 events
        monkeypatch.setattr(search, "MAX_SEARCH_CLASSES", 13)
        real, canonized = search.canonical_form, []
        monkeypatch.setattr(
            search, "canonical_form", lambda s: canonized.append(s.n) or real(s)
        )
        with pytest.raises(SizeLimit, match=r"^at least 14 classes of 3 events; limit is 13$"):
            list(enumerate_posets(3, 2))
        assert canonized and max(canonized) == 2


class TestOrderKeys:
    """Candidates are deduplicated by order key before they are canonized."""

    #: (max_events, alphabet) -> sha256 of the .es text of every level, in
    #: order, frozen from an enumeration that canonized every candidate
    LEVEL_DIGESTS = {
        (6, 1): "d6602f2225ca44e6769deef36107fdf17c06577d8de26b089e15e0e98366e69d",
        (4, 2): "f2a4de68a43678efb160e0f1004c59c84338cf58bb979fc504a247d747e3f38f",
    }

    @pytest.mark.parametrize("case", list(LEVEL_DIGESTS), ids=lambda c: f"{c[0]}-{c[1]}")
    def test_levels_are_pinned(self, case):
        levels = _poset_levels(*case)
        text = "".join(dumps_es(s) for level in levels for s in level)
        assert _sha(text) == self.LEVEL_DIGESTS[case]

    def test_fewer_candidates_are_canonized(self, monkeypatch):
        # of the 939 candidates up to 6 events, the order keys leave 458
        # to canonize
        real, calls = search.canonical_form, []
        monkeypatch.setattr(
            search, "canonical_form", lambda s: calls.append(s) or real(s)
        )
        for _ in _poset_levels(6, 1):
            pass
        assert 0 < len(calls) <= 458

    @pytest.mark.parametrize("max_events, alphabet", [(6, 1), (5, 2), (4, 3)])
    def test_equal_keys_are_isomorphic(self, max_events, alphabet):
        first, candidates = {}, 0
        for level in _poset_levels(max_events - 1, alphabet):
            for base in level:
                for downset in semantics.configurations(base):
                    for letter in "abc"[:alphabet]:
                        cand = _extended(base, downset, letter)
                        candidates += 1
                        met = first.setdefault(_order_key(cand, cand.all_mask), cand)
                        assert isomorphic(met, cand)[0]
        # the keys do merge candidates, so the check is not vacuous
        assert len(first) < candidates


class TestSourceDeleted:
    def test_parallel_pair(self):
        single = canonical_form(from_expr("a"))
        assert source_deleted_multiset(from_expr("a||a")) == (single, single)

    def test_chain(self):
        assert source_deleted_multiset(from_expr("a;b")) == (
            canonical_form(from_expr("b")),
        )

    def test_eight_event_pair_equal_multisets(self, pair_sb_not_whb):
        left, right = pair_sb_not_whb
        assert source_deleted_multiset(left) == source_deleted_multiset(right)

    def test_requires_conflict_free(self):
        with pytest.raises(NotAnEes):
            source_deleted_multiset(from_expr("a+a"))


class TestFingerprints:
    # one class table for every pair and for both modes, as in a search
    table = _LanguageTable()

    def test_it_fingerprint_exact(self):
        rng = random.Random(71)
        from conftest import random_structure

        for _ in range(40):
            a = random_structure(rng, max_events=6, classes=("ees",))
            b = random_structure(rng, max_events=6, classes=("ees",))
            same_lang = trace_equiv(
                build_lts(a, "interleaving"), build_lts(b, "interleaving")
            )
            assert (it_fingerprint(a, self.table) == it_fingerprint(b, self.table)) == same_lang

    def test_st_fingerprint_exact(self):
        rng = random.Random(73)
        from conftest import random_structure

        for _ in range(40):
            a = random_structure(rng, max_events=6, classes=("ees",))
            b = random_structure(rng, max_events=6, classes=("ees",))
            same_lang = trace_equiv(build_lts(a, "step"), build_lts(b, "step"))
            assert (st_fingerprint(a, self.table) == st_fingerprint(b, self.table)) == same_lang

    @staticmethod
    def _structures():
        """Every one-label poset up to 6 events, every two-label poset up to
        4, and 40 seeded pes and cs structures with conflicts."""
        from conftest import random_structure

        out = [s for level in _poset_levels(6, 1) for s in level]
        out += [s for level in _poset_levels(4, 2) for s in level]
        rng = random.Random(79)
        conflicting = []
        while len(conflicting) < 40:
            s = random_structure(
                rng, max_events=5, alphabet=rng.choice((1, 2)), classes=("pes", "cs")
            )
            if any(s.conflicts):
                conflicting.append(s)
        return out + conflicting

    @pytest.mark.parametrize(
        "fingerprint, language", [(it_fingerprint, o_traces), (st_fingerprint, o_step_traces)]
    )
    def test_fingerprint_partition_is_the_language_partition(self, fingerprint, language):
        structures = self._structures()
        table = _LanguageTable()
        got = _partition(fingerprint(s, table) for s in structures)
        want = _partition(frozenset(language(s)) for s in structures)
        assert got == want
        # equal languages do occur, so the partition is not all singletons
        assert len(want) < len(structures)


def _oracle_partition(structures, same, language):
    """The classes of `same`, an equivalence that implies equal `language`,
    as `_partition` gives them: each structure is compared with the first
    member of every class of its language.  Structures are taken by their
    number of configurations, so each class's first member is its
    smallest, and the naive oracle compares the fewest pairs of states."""
    classes = []  # (language, member indices)
    for idx in sorted(range(len(structures)), key=lambda i: len(o_configs(structures[i]))):
        s = structures[idx]
        key = frozenset(language(s))
        for lang, members in classes:
            if lang == key and same(structures[members[0]], s):
                members.append(idx)
                break
        else:
            classes.append((key, [idx]))
    return {frozenset(members) for _, members in classes}


class TestResidualRoots:
    """`_LanguageTable.root` reads each class off the residual structures
    and builds no system; its ids must partition structures as the class
    pass over the built systems does."""

    @pytest.mark.parametrize("mode", ["interleaving", "step", "pomset"])
    @pytest.mark.parametrize("structure_class", ["pes", "cs", "ees"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_roots_and_languages_equal_the_built_systems(self, seed, structure_class, mode):
        spec = CorpusSpec(structure_class, 60, 6, alphabet=2, seed=seed)
        structures = [s for _, a, _, b in corpus_pairs(spec) for s in (a, b)]
        table, shared = _LanguageTable(), {}
        roots = [table.root(s, mode) for s in structures]
        systems = [build_lts(s, mode) for s in structures]
        assert _partition(roots) == _partition(
            _classes(lts.successors.__getitem__, len(lts.states), shared)[0] for lts in systems
        )
        if mode == "pomset":  # languages are read for interleaving and step classes only
            assert len(set(roots)) < len(structures)
            return
        languages = [table.language((root,)) for root in roots]
        assert _partition(languages) == _partition(map(trace_language, systems))
        # the corpus does hold bisimilar and trace-equivalent pairs
        assert len(set(languages)) <= len(set(roots)) < len(structures)

    @pytest.mark.parametrize(
        "mode, same, language",
        [
            ("interleaving", o_ib, o_traces),
            ("step", o_sb, o_step_traces),
            ("pomset", o_pb, o_pomsets),
        ],
    )
    def test_root_partition_is_the_bisimulation_partition(self, mode, same, language):
        structures = TestFingerprints._structures()
        table = _LanguageTable()
        got = _partition(table.root(s, mode) for s in structures)
        assert got == _oracle_partition(structures, same, language)
        assert len(got) < len(structures)

    def test_a_repeated_root_expands_nothing(self, monkeypatch):
        real, made = equivalences._moves, Counter()

        def moves(sem, events, mode, *args):
            made[mode] += 1
            return real(sem, events, mode, *args)

        monkeypatch.setattr(equivalences, "_moves", moves)
        table = _LanguageTable()
        s = from_expr("(a;b) || (a + c;a)")
        for mode in MODES:
            first = table.root(s, mode)
            assert made[mode] > 0
            made.clear()
            # a memo of the same structure is the same question
            assert table.root(s, mode) == table.root(Semantics(s), mode) == first
            assert not made

    def test_a_wide_antichain_is_bounded(self):
        # 25 one-label atoms have 26 residual keys, but the root alone has
        # 2^25 - 1 step groups: the group list stops past the move budget
        wide = from_expr("||".join(["a"] * 25))
        started = time.perf_counter()
        with pytest.raises(SizeLimit, match="step transitions; limit is 262144$"):
            st_fingerprint(wide, _LanguageTable())
        assert time.perf_counter() - started < 1
        started = time.perf_counter()
        try:
            it_fingerprint(wide, _LanguageTable())
        except SizeLimit:
            pass
        assert time.perf_counter() - started < 1

    def test_events_and_expanded_states_are_bounded(self, monkeypatch):
        with pytest.raises(SizeLimit, match="^structure has 31 events; limit is 30$"):
            _LanguageTable().root(from_expr("||".join(["a"] * 31)), "interleaving")
        monkeypatch.setattr(equivalences, "MAX_CONFIGURATIONS", 4)
        # a;b;c;d expands its five prefixes, each residual a shorter chain
        with pytest.raises(SizeLimit, match="^at least 5 configurations to expand; limit is 4$"):
            _LanguageTable().root(from_expr("a;b;c;d"), "interleaving")
        assert _LanguageTable().root(from_expr("a;b;c"), "interleaving") is not None
        with pytest.raises(ModeMismatch, match="^unknown mode 'trace'$"):
            _LanguageTable().root(from_expr("a"), "trace")

    @pytest.mark.parametrize("fingerprint", [it_fingerprint, st_fingerprint])
    def test_uninherited_conflicts_are_refused(self, fingerprint):
        # a < b and a # c, but not b # c: the residual of {c} would be a free b
        loose = EventStructure(labels=("a", "b", "c"), down=(0, 0b001, 0), conflicts=(0b100, 0, 0b001))
        with pytest.raises(ValidationError, match="^conflicts are not inherited along causality$"):
            fingerprint(loose, _LanguageTable())
        closed = build(3, ["a", "b", "c"], causes=[(0, 1)], conflicts=[(0, 2)])
        assert fingerprint(closed, _LanguageTable()) is not None


class TestSearch:
    @pytest.mark.parametrize("max_events", [0, -2, 10])
    def test_bound_outside_the_sizes_raises(self, max_events):
        # a bound below 1 would search no size and still certify exhaustion
        spec = SearchSpec(coarse=R.SB, fine=R.ISO, max_events=max_events)
        with pytest.raises(SizeLimit, match=rf"1\.\.9 events, got {max_events}$"):
            find_minimal_pairs(spec)

    def test_smallest_it_not_st_pair(self):
        res = find_minimal_pairs(
            SearchSpec(coarse=R.IT, fine=R.ST, max_events=4, alphabet=1)
        )
        assert res.size == 2
        assert len(res.pairs) == 1
        left, right = res.pairs[0]
        assert isomorphic(left, from_expr("a||a"))[0]
        assert isomorphic(right, from_expr("a;a"))[0]

    def test_stops_enumerating_at_the_size_it_returns(self, monkeypatch):
        real, calls = search.canonical_form, []
        monkeypatch.setattr(
            search, "canonical_form", lambda s: calls.append(s) or real(s)
        )
        res = find_minimal_pairs(SearchSpec(coarse=R.IT, fine=R.ST, max_events=6))
        assert res.size == 2
        assert calls and max(s.n for s in calls) == 2

    def test_filters_do_not_change_results(self):
        for coarse, fine in ((R.IT, R.ST), (R.IT, R.IB), (R.SB, R.ISO)):
            results = []
            for use in (True, False):
                try:
                    res = find_minimal_pairs(
                        SearchSpec(
                            coarse=coarse,
                            fine=fine,
                            max_events=5,
                            alphabet=2 if coarse is R.IT and fine is R.IB else 1,
                            use_filters=use,
                        )
                    )
                    results.append(
                        (res.size, [(canonical_form(a), canonical_form(b)) for a, b in res.pairs])
                    )
                except NoPairFound as err:
                    results.append(("none", err.max_events))
            assert results[0] == results[1], (coarse, fine)

    def test_sdm_filter_narrows_the_question(self):
        # the source-deleted multiset is a requirement added to the bucket
        # key, not an invariant of the coarse relation: a||a and a;a are it
        # related and st separated, but delete a minimal event from each and
        # the multisets differ, so with the filter no pair is found
        found = find_minimal_pairs(SearchSpec(coarse=R.IT, fine=R.ST, max_events=3))
        assert found.size == 2 and len(found.pairs) == 1
        with pytest.raises(NoPairFound) as err:
            find_minimal_pairs(
                SearchSpec(coarse=R.IT, fine=R.ST, max_events=3, sdm_filter=True)
            )
        assert err.value.certificate.splitlines()[-1] == "exhausted all sizes up to 3: no pair"

    def test_smallest_it_not_ib_pair_two_labels(self):
        # the minimum is well below the classic 8-event example
        res = find_minimal_pairs(
            SearchSpec(coarse=R.IT, fine=R.IB, max_events=5, alphabet=2)
        )
        assert res.size == 3
        assert len(res.pairs) == 2  # the a/b-swapped twins
        left = from_expr("a || (a;b)")
        right = from_expr("a;(a||b)")
        assert any(
            (isomorphic(p, left)[0] and isomorphic(q, right)[0])
            or (isomorphic(p, right)[0] and isomorphic(q, left)[0])
            for p, q in res.pairs
        )

    def test_iso_coarse_finds_nothing(self):
        with pytest.raises(NoPairFound) as err:
            find_minimal_pairs(SearchSpec(coarse=R.ISO, fine=R.IT, max_events=4))
        assert "no pair" in err.value.certificate

    def test_certificate_mentions_every_size(self):
        res = find_minimal_pairs(
            SearchSpec(coarse=R.IT, fine=R.ST, max_events=4, alphabet=1)
        )
        text = res.certificate()
        assert "size 1:" in text and "size 2:" in text
        assert "first qualifying pairs at size 2" in text

    def test_pb_coarse_groups_are_classes(self):
        # on conflict-free structures the whole poset is a configuration
        # pomset, so pb already forces isomorphism: every group is one class
        for use in (True, False):
            with pytest.raises(NoPairFound) as err:
                find_minimal_pairs(
                    SearchSpec(
                        coarse=R.PB, fine=R.WHB, max_events=5, alphabet=2, use_filters=use
                    )
                )
            sizes = re.findall(
                r"size \d+: (\d+) classes, .* (\d+) groups, (\d+) pairs tested",
                err.value.certificate,
            )
            assert len(sizes) == 5
            for classes, groups, tested in sizes:
                assert (groups, tested) == (classes, "0")

    def test_bucket_key_partition_equals_all_three_invariants(self):
        # the key holds only the finest trace invariant the coarse relation
        # implies; the partition must be the one all implied invariants give
        table = _LanguageTable()
        for reps in list(_poset_levels(5, 2))[1:]:
            full = []
            for s in reps:
                sem = Semantics(s)
                full.append((tuple(sorted(s.labels)), it_fingerprint(sem, table),
                             st_fingerprint(sem, table), sem.codes))
            for coarse in R:
                keep = (True, True, implies(coarse, R.ST), implies(coarse, R.PT))
                old = [tuple(v for v, k in zip(key, keep) if k) for key in full]
                spec = SearchSpec(coarse=coarse, fine=R.ISO, max_events=5, alphabet=2)
                key_of, _ = _keyer(spec)
                new = [key_of(Semantics(s), table) for s in reps]
                assert _partition(new) == _partition(old), coarse

    @pytest.mark.parametrize("coarse", [R.IB, R.SB, R.PB])
    @pytest.mark.parametrize("alphabet, max_events", [(1, 6), (2, 4)])
    @pytest.mark.parametrize("use_filters", [True, False])
    def test_class_groups_equal_pairwise_groups(self, coarse, alphabet, max_events, use_filters):
        spec = SearchSpec(
            coarse=coarse, fine=R.ISO, max_events=max_events, alphabet=alphabet,
            use_filters=use_filters,
        )
        # a trace language implied by the coarse relation, from the naive
        # oracles, spares pairwise tests that cannot succeed
        language = o_traces if coarse is R.IB else o_step_traces
        mode = _MODE_OF[coarse]
        key_of, decided = _keyer(spec)
        for reps in list(_poset_levels(max_events, alphabet))[1:]:
            # one table per size, as in a search: with filters on, ib and sb
            # keys read the roots that grouping reads again from it
            table = _LanguageTable()
            for indices in _buckets(reps, key_of, table).values():
                members = [reps[i] for i in indices]
                systems = [build_lts(s, mode) for s in members]
                keys = [frozenset(language(s)) for s in members]
                pairwise = []
                for idx in range(len(members)):
                    for group in pairwise:
                        first = group[0]
                        if keys[first] == keys[idx] and bisim(systems[first], systems[idx]):
                            group.append(idx)
                            break
                    else:
                        pairwise.append([idx])
                groups, tested, _ = _process_bucket(members, coarse, R.ISO, table, decided)
                assert (groups, tested) == (pairwise, 0)
                # a table that has read no root groups them the same way
                fresh = _process_bucket(members, coarse, R.ISO, _LanguageTable(), decided)
                assert fresh[:2] == (pairwise, 0)

    @pytest.mark.parametrize("fine", [r for r in R if r is not R.ISO])
    @pytest.mark.parametrize("coarse", [R.IT, R.ST, R.IB])
    @pytest.mark.parametrize("alphabet, max_events", [(1, 5), (2, 4)])
    def test_fine_groups_equal_all_pairs_checks(self, coarse, fine, alphabet, max_events):
        spec = SearchSpec(coarse=coarse, fine=fine, max_events=max_events, alphabet=alphabet)
        key_of, decided = _keyer(spec)
        for reps in list(_poset_levels(max_events, alphabet))[1:]:
            table = _LanguageTable()
            for indices in _buckets(reps, key_of, table).values():
                members = [reps[i] for i in indices]
                assert _process_bucket(
                    members, coarse, fine, table, decided
                ) == _all_pairs_bucket(members, coarse, fine)

    @pytest.mark.parametrize("fine", [R.IB, R.SB, R.PB])
    @pytest.mark.parametrize("coarse", [R.IT, R.ST])
    def test_class_keyed_fine_relations_make_no_check(self, coarse, fine, monkeypatch):
        # the fine groups come from root classes; without filters only the
        # coarse relation, grouped against each group's first member, is
        # checked, and with them the coarse groups are the buckets, whose
        # trace fingerprints decide it and st, so nothing is
        real, called = search.check, Counter()

        def counting(rel, *args, **kwargs):
            called[rel] += 1
            return real(rel, *args, **kwargs)

        monkeypatch.setattr(search, "check", counting)
        for use_filters in (True, False):
            called.clear()
            spec = SearchSpec(
                coarse=coarse, fine=fine, max_events=5, alphabet=2, use_filters=use_filters
            )
            try:
                find_minimal_pairs(spec)
            except NoPairFound:
                pass
            assert set(called) == (set() if use_filters else {coarse})

    def test_implied_fine_relation_makes_no_check(self, monkeypatch):
        # st implies it, so no pair of an st group can qualify: the it pass is
        # skipped, while the pairs it would decide still count as tested
        real, called = search.check, Counter()

        def counting(rel, *args, **kwargs):
            called[rel] += 1
            return real(rel, *args, **kwargs)

        monkeypatch.setattr(search, "check", counting)
        with pytest.raises(NoPairFound) as err:
            find_minimal_pairs(SearchSpec(coarse=R.ST, fine=R.IT, max_events=6))
        # the st groups are the buckets, whose step fingerprints decide st:
        # their 107 st checks still count as tested, but none runs, and
        # neither do 107 it checks before the skip
        assert called == Counter()
        assert _sha(err.value.certificate) == (
            "3a039228d554352756cb4b98b1251c75b943068141321d7ef770e6dc9cdf19d2"
        )

    def test_a_bucket_keeps_one_memo_per_group(self, monkeypatch):
        # one label: every class of 6 events has the same traces, so the
        # it/ib search puts all 318 of them in one bucket and one it group
        reps = list(enumerate_posets(6, 1))
        live, most = weakref.WeakSet(), []

        class Tracked(Semantics):
            def __init__(self, s):
                most.append(len(live))  # the memos alive as this one is built
                super().__init__(s)
                live.add(self)

        for use_filters in (True, False):
            spec = SearchSpec(coarse=R.IT, fine=R.IB, max_events=6, use_filters=use_filters)
            key_of, decided = _keyer(spec)
            table = _LanguageTable()
            (indices,) = _buckets(reps, key_of, table).values()
            most.clear()
            with monkeypatch.context() as patch:
                patch.setattr(search, "Semantics", Tracked)
                members = [reps[i] for i in indices]
                groups, tested, found = _process_bucket(members, R.IT, R.IB, table, decided)
            assert len(indices) == 318 and len(groups) == 1 and not found
            # 317 it checks, made or spared, and every pair of the group for ib
            assert tested == 317 + 318 * 317 // 2
            # without filters the it groups build a memo per member and keep
            # one per group; with them the bucket key decides it and none is
            # built.  The ib groups read each member's root class under the
            # size table and build none
            assert len(most) == (0 if use_filters else 318)
            assert max(most, default=0) <= len(groups) + 1

    def test_the_fine_pass_reads_the_keying_roots(self, monkeypatch):
        # one label, it/ib to 6 events: keying reads every root's
        # interleaving class under the size table, so the fine ib pass finds
        # each one there and expands no state
        real_moves, real_process = equivalences._moves, search._process_bucket
        inside, made = [False], Counter()

        def moves(*args):
            made[inside[0]] += 1
            return real_moves(*args)

        def process(*args):
            inside[0] = True
            try:
                return real_process(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(equivalences, "_moves", moves)
        monkeypatch.setattr(search, "_process_bucket", process)
        with pytest.raises(NoPairFound):
            find_minimal_pairs(SearchSpec(coarse=R.IT, fine=R.IB, max_events=6))
        assert made[False] > 0 and made[True] == 0

    def test_pomset_classes_stay_out_of_the_size_table(self, monkeypatch):
        # no key reads pomset classes, so pb groups under a table of its own
        # call and each size table keeps no pomset-mode residual or root
        real_buckets, real_moves = search._buckets, equivalences._moves
        tables, made = [], Counter()

        def buckets(reps, key_of, table):
            tables.append(table)
            return real_buckets(reps, key_of, table)

        def moves(sem, events, mode, *args):
            made[mode] += 1
            return real_moves(sem, events, mode, *args)

        monkeypatch.setattr(search, "_buckets", buckets)
        monkeypatch.setattr(equivalences, "_moves", moves)
        spec = SearchSpec(coarse=R.PB, fine=R.WHB, max_events=5, alphabet=2, use_filters=False)
        with pytest.raises(NoPairFound):
            find_minimal_pairs(spec)
        assert len(tables) == 5 and made[MODE_POMSET] > 0
        for table in tables:
            assert MODE_POMSET not in table._residuals and MODE_POMSET not in table._roots

    # sb/iso searches all 405 one-label classes up to 6 events; ib/iso stops
    # at a||a against a;a, after the 3 classes of sizes 1 and 2.  pb/whb
    # without filters puts the 1,723 two-label classes up to 5 events in
    # buckets of two or more and groups them by pb; ib/pb, one label, splits
    # the ib group of a||a and a;a by pb.  Root classes, pb's too, are read
    # off the classes' residuals, so keying and grouping build no transition
    # system
    @pytest.mark.parametrize(
        "coarse, fine, alphabet, max_events, use_filters, classes",
        [
            pytest.param(R.SB, R.ISO, 1, 6, True, 405, id="sb-405"),
            pytest.param(R.IB, R.ISO, 1, 6, True, 3, id="ib-3"),
            pytest.param(R.PB, R.WHB, 2, 5, False, 1723, id="pb-whb-1723"),
            pytest.param(R.IB, R.PB, 1, 6, True, 3, id="ib-pb-3"),
        ],
    )
    def test_keying_builds_no_transition_system(
        self, coarse, fine, alphabet, max_events, use_filters, classes, monkeypatch
    ):
        real, built = semantics.build_lts, Counter()

        def counting(s, mode):
            built[mode] += 1
            return real(s, mode)

        monkeypatch.setattr(semantics, "build_lts", counting)
        spec = SearchSpec(
            coarse=coarse, fine=fine, max_events=max_events, alphabet=alphabet,
            use_filters=use_filters,
        )
        try:
            searched = sum(st.classes for st in find_minimal_pairs(spec).stats.values())
        except NoPairFound as err:
            searched = sum(map(int, re.findall(r"(\d+) classes", err.certificate)))
        assert searched == classes
        assert built == {}


def _all_pairs_bucket(members, coarse, fine):
    """The bucket pass with every pair of a coarse group checked for the fine
    relation: the reference the fine groups must agree with."""
    sems = [Semantics(s) for s in members]
    pairs_tested = 0
    if coarse in (R.IB, R.SB, R.PB):
        table, by_class = {}, {}
        for idx, sem in enumerate(sems):
            lts = build_lts(sem, _MODE_OF[coarse])
            root = _classes(lts.successors.__getitem__, len(lts.states), table)[0]
            by_class.setdefault(root, []).append(idx)
        groups = list(by_class.values())
    else:  # trace classes are checked pair by pair
        groups = []
        for idx in range(len(members)):
            for group in groups:
                pairs_tested += 1
                if check(coarse, sems[group[0]], sems[idx]):
                    group.append(idx)
                    break
            else:
                groups.append([idx])
    found = []
    for group in groups:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                i, j = group[a], group[b]
                if fine is not R.ISO:
                    pairs_tested += 1
                    if check(fine, sems[i], sems[j]):
                        continue
                found.append((i, j))
    return groups, pairs_tested, found


class TestSearchOutputBytes:
    """Certificates and found pairs, byte for byte, pinned across changes to
    the search's speed."""

    #: (coarse, fine, alphabet, max_events) -> sha256 of the certificate and
    #: the sha256 of the .es text of each found pair (None: no pair)
    DIGESTS = {
        (R.SB, R.ISO, 1, 7): (
            "b47e2e92f63dd01c69b0846f3b1ad686c20a4aa01f1a2934c6bf747180296e28", None,
        ),
        (R.IT, R.IB, 2, 4): (
            "d38b668c160500b0cd13773b4780585d832cd4a44f7c7712fa2bd466757985dd",
            [
                ("8ccb371c1cc7a38582545206549667ecc938f8590ff707caf52c1f67fe331de7",
                 "9c9754c84142c8aaa772b9cfb09c7931b550782d2ece5c9c0ae862fe105ae187"),
                ("d227bfe0a69f8bb798134a6e8a51b3ebf92ef769c7987726ec92acc1d4350815",
                 "32e3409ae5cfe12969b9128f75bae0d0aefb7684c5d2e1a478bbe0c6c4798ff9"),
            ],
        ),
        (R.IB, R.SB, 1, 6): (
            "771670969b279f12a9320de47d0b952cd207b95df1ac90f268ae569eb3b924e6",
            [
                ("ccb3d851e9ff676251fac7613ea675b86b1e804de5a3029a04be53877f11b4c7",
                 "55f9fddc8ca23f7ccd708e0e1486fc874f7ef25917e53c17543517646d09e3c0"),
            ],
        ),
        (R.ST, R.SB, 1, 6): (
            "966b0ae0b96b7910a0851cbc04206b7e8b3223bb06dbee23ca5c2d22544ff22a",
            [
                ("ec477e72cf0e4d658e2116af0f9e7286031b913e048f00143fcb7eafe8e38c76",
                 "da8651c8872eef85de93e6e4efffe49b8d6f81c09ea54591ed50c453a549b1cd"),
            ],
        ),
        (R.SB, R.PB, 1, 6): (
            "e258dc915d8bf4dddb74d9f623c41b6c32e437895ed701f6af0cb1c54e559bcb", None,
        ),
        (R.PB, R.WHB, 1, 6): (
            "2d5209980dfae73037d87621e38380dd685ec042424b6ed109458167761efa48", None,
        ),
        (R.IT, R.IB, 1, 6): (
            "3bc71bfe839ef233f8ce7d2280ab95ad226fc53c579cf2bef7329fd4dc457db1", None,
        ),
        (R.WHB, R.HB, 1, 6): (
            "4cf0abf7af9b281a998899b3fa320d4b75212518ffaeee111c54e2bc1b4a2ede", None,
        ),
        (R.IT, R.PT, 2, 5): (
            "d50351e8677fe8b0e24fe46b0a78a670b22cd13f98f6e26e4b659ee8b0eb39d5",
            [
                ("ccb3d851e9ff676251fac7613ea675b86b1e804de5a3029a04be53877f11b4c7",
                 "55f9fddc8ca23f7ccd708e0e1486fc874f7ef25917e53c17543517646d09e3c0"),
                ("a0f6e073f6a5b36669483483e51ad5387bfa2a0a04a6e39bb0ae9af94c4907c6",
                 "b1a087d5c017ec89b230e86ea752c733592c051c3201177a4806374db4e89dad"),
            ],
        ),
    }

    #: the same with the source-deleted multiset filter on; below 8 events
    #: no one-label, two-label (to 6) or three-label (to 5) search finds a
    #: pair with it, and both pairs found here are the known sb/whb pair
    SDM_DIGESTS = {
        (R.SB, R.ISO, 1, 7): (
            "264debd2e34514750d20a0ec5746df437c0a1b558da8fe649fdccedf0ad833fb", None,
        ),
        (R.IT, R.ISO, 1, 8): (
            "052a3ff9f927f91c1de0e9e806c104506ee82238592eba74992e1a0d247f3d14",
            [
                ("79d6cde06bb25f004394f8f4eb87d2398c15c498626af5409f9bf572e5663c9b",
                 "e0c52bad3d262fef7cc269b309edf1c7768344a241ea790808e84354e4f9750e"),
            ],
        ),
        (R.IB, R.WHB, 1, 8): (
            "647f85a9753868def2df56a6ff5afa9cced980dde23c1f99fcab7d0c2bc90624",
            [
                ("79d6cde06bb25f004394f8f4eb87d2398c15c498626af5409f9bf572e5663c9b",
                 "e0c52bad3d262fef7cc269b309edf1c7768344a241ea790808e84354e4f9750e"),
            ],
        ),
    }

    #: the same with the filters off: coarse ib and sb classes are then
    #: read by grouping, not by keying
    NO_FILTER_DIGESTS = {
        (R.PB, R.WHB, 2, 5): (
            "6dfe2229c00986c7272e8d66cf7f9c6a6147cc19c5c31752d794e15c24ff8724", None,
        ),
        (R.SB, R.PB, 1, 6): (
            "cc9ef6c4e682b41157f5a06ad9bf48d769fdf454812b5a47ac3a514f7722f336", None,
        ),
        (R.IT, R.IB, 1, 6): (
            "ce681827a2b4587cceb5d5bcc5b003e4c44742cc918142eed25cab3480ea8605", None,
        ),
        (R.IB, R.SB, 1, 6): (
            "0db965d5779266e820656d765dcd7ec2ee57e30bc45e7a1a41b4d1a37c862cea",
            [
                ("ccb3d851e9ff676251fac7613ea675b86b1e804de5a3029a04be53877f11b4c7",
                 "55f9fddc8ca23f7ccd708e0e1486fc874f7ef25917e53c17543517646d09e3c0"),
            ],
        ),
        (R.ST, R.IB, 2, 4): (
            "fcd4e83e0b427777e43c0ddf97e16100abb55d59500097c6cce84526e7db97ef",
            [
                ("63dc68c5501929b3f2f5ddaadc04abdefc98e940ffb6ca4787016e80aeb0dc91",
                 "9e72f037c5c1fe536d17004315b4eb24905567a7229d2743d27a41265f63d5aa"),
                ("a6d4ace9bb61bf4bff42fdf3d7b88af0e05333731d36595b30bfac137e8f8fb6",
                 "11c0fbf38afc8e7cfc769487e8ea9557652a6a4ad90e7d84bee06f4bba9cc344"),
            ],
        ),
    }

    @pytest.mark.parametrize(
        "case", list(DIGESTS), ids=lambda c: f"{c[0].value}-{c[1].value}-{c[2]}-{c[3]}"
    )
    def test_search_bytes_are_pinned(self, case):
        assert _search_digests(*case) == self.DIGESTS[case]

    @pytest.mark.parametrize(
        "case", list(SDM_DIGESTS), ids=lambda c: f"{c[0].value}-{c[1].value}-{c[2]}-{c[3]}"
    )
    def test_sdm_search_bytes_are_pinned(self, case):
        assert _search_digests(*case, sdm_filter=True) == self.SDM_DIGESTS[case]

    @pytest.mark.parametrize(
        "case", list(NO_FILTER_DIGESTS), ids=lambda c: f"{c[0].value}-{c[1].value}-{c[2]}-{c[3]}"
    )
    def test_filters_off_search_bytes_are_pinned(self, case):
        assert _search_digests(*case, use_filters=False) == self.NO_FILTER_DIGESTS[case]


def _search_digests(coarse, fine, alphabet, max_events, sdm_filter=False, use_filters=True):
    """The sha256 of a search's certificate and of the .es text of each found
    pair (None: no pair)."""
    spec = SearchSpec(coarse=coarse, fine=fine, max_events=max_events, alphabet=alphabet,
                      use_filters=use_filters, sdm_filter=sdm_filter)
    try:
        res = find_minimal_pairs(spec)
    except NoPairFound as err:
        return _sha(err.certificate), None
    return _sha(res.certificate()), [(_sha(dumps_es(a)), _sha(dumps_es(b))) for a, b in res.pairs]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()
