"""Bounded exhaustive search over small conflict-free structures.

Enumerates one representative per isomorphism class of labelled strict
orders, size by size, and looks for the smallest pairs related by a coarse
relation but separated by a fine one.  Classes are generated by extending
each (n-1)-event representative with one fresh maximal event whose
predecessor set ranges over all downward-closed sets, deduplicating by
canonical form; every n-event class arises this way from the class of some
maximal-event-deleted substructure, so the sweep is complete.  Each size is
built from the one before only when the search reaches it, and the search
stops at the first size with a qualifying pair, so it builds no size it
does not key and holds at most two sizes at once.  A candidate
is first deduplicated by its order key (`semantics._order_key`, the key of
the pomset code table), the poset numbered by (label, causes, effects):
equal keys mean isomorphic candidates, so one whose key was already met in
its level is skipped without being canonized.

Buckets of cheap language invariants cut the quadratic pair testing; a
bucket key holds only the finest trace invariant the chosen coarse
relation implies, so bucketing by it never loses a qualifying pair.  The
source-deleted multiset of `sdm_filter` is no such invariant: it adds a
requirement to the question, so a search with it may miss pairs that the
same search without it finds, and its certificate proves nothing about
those.

Keying, and grouping by ib, sb or pb, build no transition system:
`_LanguageTable.root` gives a root its bisimulation class in any mode by a
class pass that reads each configuration's future off its residual
structure, the events outside it and its conflicts, and residuals repeat
across the classes of a size, so each is expanded once per table.  Each
size has one table, the only place its interleaving and step classes are
read: it keeps the class it gave each structure in each mode, so a root
that keying read is not expanded again when grouping or the fine pass
asks for it.  Keying reads each root's class in the fingerprint's mode;
the trace fingerprint is that class's language (bisimilar states have
equal languages).  ib and sb group by root class under the size table,
pb under a table of its own grouping call, since no key reads pomset
classes, and other relations check each member against each group's
first, whose memo alone is kept (`_groups`).  With it, st or pt as the
coarse relation and filters on, the key decides it, so a bucket is one
coarse group.  The fine relation groups each coarse group of two or more
members the same way, and a pair qualifies when its members fall into
different fine groups; when the coarse relation implies the fine one,
none can, and no fine group is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice

from .equivalences import _BY_BISIM, _MODE_OF, Relation, _LanguageTable, check, implies
from .errors import NoPairFound, NotAnEes, SizeLimit
from .semantics import MODE_INTERLEAVING, MODE_STEP, Semantics, _order_key, configurations
from .structure import EventStructure, canonical_form

MAX_SEARCH_EVENTS = 9
MAX_SEARCH_ALPHABET = 3
#: the most isomorphism classes one level of the enumeration may hold
MAX_SEARCH_CLASSES = 1 << 18

_LETTERS = "abc"


def _extended(base: EventStructure, downset: int, letter: str) -> EventStructure:
    # the fresh event is maximal, so closure properties are preserved
    return EventStructure(
        labels=base.labels + (letter,),
        down=base.down + (downset,),
        conflicts=base.conflicts + (0,),
    )


def _next_level(level, letters):
    """Canonical representatives of every class one event larger than the
    classes of `level`, in canonical-form order.

    A candidate whose order key was already met in the new level is
    isomorphic to an earlier one, so it is skipped without being canonized;
    the first candidate of each class is still the one kept.  Raises
    `SizeLimit` as soon as the new level holds more than
    `MAX_SEARCH_CLASSES` classes, and before building it when it must: a
    fresh top event with letter x on class C gives a class per (C, x),
    because deleting the unique maximum gives back C and x."""
    least = len(letters) * len(level)
    if least > MAX_SEARCH_CLASSES:
        raise SizeLimit(
            f"at least {least} classes of {level[0].n + 1} events; "
            f"limit is {MAX_SEARCH_CLASSES}"
        )
    reps = {}
    met = {}  # labels -> the packed cause rows met with them
    for base in level:
        # in a conflict-free structure the configurations are the downsets
        for downset in configurations(base):
            for letter in letters:
                cand = _extended(base, downset, letter)
                labels, packed = _order_key(cand, cand.all_mask)
                rows = met.setdefault(labels, set())
                if packed in rows:
                    continue
                rows.add(packed)
                code = canonical_form(cand)
                if code not in reps:
                    reps[code] = cand
                    if len(reps) > MAX_SEARCH_CLASSES:
                        raise SizeLimit(
                            f"at least {len(reps)} classes of {cand.n} events; "
                            f"limit is {MAX_SEARCH_CLASSES}"
                        )
    return [reps[code] for code in sorted(reps)]


def _poset_levels(max_events: int, alphabet: int):
    """Yield level k, the canonical representatives of every k-event class,
    for k = 0..max_events.  Each level is built from the one before only
    when it is asked for, so a caller that stops early builds no later one."""
    if not 0 <= max_events <= MAX_SEARCH_EVENTS:
        raise SizeLimit(
            f"poset enumeration supports 0..{MAX_SEARCH_EVENTS} events, got {max_events}"
        )
    if not 1 <= alphabet <= MAX_SEARCH_ALPHABET:
        raise SizeLimit(f"poset enumeration supports 1..{MAX_SEARCH_ALPHABET} labels")
    letters = _LETTERS[:alphabet]
    level = [EventStructure(labels=(), down=(), conflicts=())]
    yield level
    for _ in range(max_events):
        level = _next_level(level, letters)
        yield level


def enumerate_posets(n: int, alphabet: int = 1):
    """One representative per isomorphism class of n-event labelled posets."""
    for level in _poset_levels(n, alphabet):
        pass
    yield from level


def source_deleted_multiset(s):
    """Multiset (sorted tuple) of pomset codes after deleting each minimal
    event, for a structure or a memo of one."""
    sem = Semantics.of(s)
    s = sem.s
    if any(s.conflicts):
        raise NotAnEes("source deletion is defined for conflict-free structures")
    # without conflict, all events and a minimal one are both configurations,
    # so what is left is their difference, which `code` accepts
    return tuple(sorted(sem.code(s.all_mask & ~(1 << e)) for e in s.minimal_events))


# ---------------------------------------------------------------------------
# language fingerprints (exact invariants for trace equivalences)
# ---------------------------------------------------------------------------


def _fingerprint(s, mode, table):
    return table.language((table.root(s, mode),))


def it_fingerprint(s: EventStructure, table):
    """Interleaving trace class of `s`: equal under one `_LanguageTable` iff
    it-equivalent."""
    return _fingerprint(s, MODE_INTERLEAVING, table)


def st_fingerprint(s: EventStructure, table):
    """Step trace class of `s`: equal under one `_LanguageTable` iff
    st-equivalent."""
    return _fingerprint(s, MODE_STEP, table)


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: pairs with `coarse` holding and `fine` failing."""

    coarse: Relation
    fine: Relation
    max_events: int
    alphabet: int = 1
    use_filters: bool = True
    sdm_filter: bool = False


@dataclass
class SizeStats:
    """One size's certificate line: its isomorphism `classes`, the `buckets`
    their keys make and the members of the `largest_bucket`, the coarse
    `groups` over all buckets, `pairs_tested` (every pairwise coarse check
    plus every pair of a coarse group that the fine relation decides, whether
    or not a `check` ran on it; none when fine is iso, where every such pair
    qualifies; a coarse group that its bucket key decides counts one check
    per member past the first, though none runs) and the qualifying pairs
    `found`, only at the size returned."""

    classes: int = 0
    buckets: int = 0
    largest_bucket: int = 0
    groups: int = 0
    pairs_tested: int = 0
    found: int = 0


@dataclass
class SearchResult:
    spec: SearchSpec
    size: int
    pairs: list  # (left, right) EventStructure pairs, canonically ordered
    stats: dict = field(default_factory=dict)  # size -> SizeStats

    def certificate(self) -> str:
        return _certificate_text(self.spec, self.stats, self.size)


def _certificate_text(spec, stats, found_size):
    lines = [
        f"search: coarse={spec.coarse.value} fine={spec.fine.value} "
        f"alphabet={spec.alphabet} filters={'on' if spec.use_filters else 'off'} "
        f"sdm={'on' if spec.sdm_filter else 'off'}"
    ]
    for size in sorted(stats):
        st = stats[size]
        lines.append(
            f"size {size}: {st.classes} classes, {st.buckets} buckets "
            f"(largest {st.largest_bucket}), {st.groups} groups, "
            f"{st.pairs_tested} pairs tested, {st.found} qualifying"
        )
    if found_size is None:
        lines.append(f"exhausted all sizes up to {max(stats) if stats else 0}: no pair")
    else:
        exhausted = [s for s in sorted(stats) if s < found_size]
        if exhausted:
            lines.append(
                f"sizes {exhausted[0]}..{exhausted[-1]} exhausted without a pair"
            )
        lines.append(f"first qualifying pairs at size {found_size}")
    return "\n".join(lines) + "\n"


def _keyer(spec):
    """The bucket key function of a search, (memo, table) -> key, and
    whether the key decides the coarse relation.

    The key holds the invariants of the structure implied by the coarse
    relation, its trace fingerprint under the `_LanguageTable` `table`
    among them.  With it, st or pt as the coarse relation and filters on,
    the invariant the key holds (its language id, or its pomset codes)
    decides that relation, so a bucket is one coarse group.  Which
    invariants are kept, and the one mode the class pass runs in, are
    decided here once.
    """
    coarse = spec.coarse
    # the finest trace relation the coarse relation implies, whose invariant
    # the key holds: pt implies st and st implies it, so a coarser one would
    # split no bucket further, and every relation implies it
    trace = None
    if spec.use_filters:
        trace = next(r for r in (Relation.PT, Relation.ST, Relation.IT) if implies(coarse, r))
    mode = _MODE_OF.get(trace)
    sdm = spec.sdm_filter

    def key_of(sem, table):
        key = [tuple(sorted(sem.s.labels))]
        if trace is Relation.PT:
            key.append(sem.codes)
        elif trace is not None:
            key.append(table.language((table.root(sem, mode),)))
        if sdm:
            key.append(source_deleted_multiset(sem))
        return tuple(key)

    return key_of, coarse is trace


def _buckets(reps, key_of, table):
    """Bucket key -> member indices, in member order, each key read by
    `key_of` (see `_keyer`) from one memo under `table`."""
    buckets = {}
    for idx, s in enumerate(reps):
        buckets.setdefault(key_of(Semantics(s), table), []).append(idx)
    return buckets


def _groups(members, rel, table):
    """Group the structures `members` by the equivalence `rel`, in member
    order; return the groups and the checks counted.  ib and sb group by
    root class under `table`, which answers a root it already read without
    expanding it again, and pb by root class under a table of this call,
    since no key reads pomset classes; no system is built.  Any other
    relation checks each member against each group's first, whose memo
    alone is kept."""
    if rel in _BY_BISIM:
        table = _LanguageTable() if rel is Relation.PB else table
        mode, by_class = _MODE_OF[rel], {}
        for idx, s in enumerate(members):
            by_class.setdefault(table.root(s, mode), []).append(idx)
        return list(by_class.values()), 0
    groups, firsts, checks = [], [], 0
    for idx, s in enumerate(members):
        sem = Semantics(s)
        for group, first in zip(groups, firsts):
            checks += 1
            if check(rel, first, sem):
                group.append(idx)
                break
        else:
            groups.append([idx])
            firsts.append(sem)
    return groups, checks


def _process_bucket(members, coarse, fine, table, decided):
    """Group one bucket by the coarse relation, in member order; return the
    groups, the number of pairs tested and the pairs of a group that the fine
    relation groups apart.  A bucket whose key decides the coarse relation
    is one group, each member past its first counting as the check against
    it that the key spared.  Both passes read root classes under `table`."""
    if decided:
        groups, pairs_tested = [list(range(len(members)))], len(members) - 1
    else:
        groups, pairs_tested = _groups(members, coarse, table)
    found = []
    for group in groups:
        if fine is Relation.ISO:
            # distinct representatives are never isomorphic
            found.extend(combinations(group, 2))
        elif len(group) > 1:
            # every pair the fine groups decide counts as tested
            pairs_tested += len(group) * (len(group) - 1) // 2
            if implies(coarse, fine):  # the fine relation holds on every pair
                continue
            fine_groups, _ = _groups([members[i] for i in group], fine, table)
            if len(fine_groups) > 1:  # else no pair of the group qualifies
                part = {group[k]: p for p, ks in enumerate(fine_groups) for k in ks}
                found.extend((i, j) for i, j in combinations(group, 2) if part[i] != part[j])
    return groups, pairs_tested, found


def find_minimal_pairs(spec: SearchSpec) -> SearchResult:
    """All qualifying pairs at the smallest size admitting one.  Each size is
    enumerated when it is reached, so no size past that one is built.

    Raises NoPairFound (carrying the exhaustion certificate) if no size up
    to the bound yields a pair.
    """
    if not 1 <= spec.max_events <= MAX_SEARCH_EVENTS:
        raise SizeLimit(
            f"search supports 1..{MAX_SEARCH_EVENTS} events, got {spec.max_events}"
        )
    stats = {}
    key_of, decided = _keyer(spec)
    levels = _poset_levels(spec.max_events, spec.alphabet)
    for size, reps in enumerate(islice(levels, 1, None), 1):  # past the empty poset
        st = stats[size] = SizeStats(classes=len(reps))
        # ids are compared only within a size, so the table stays bounded
        # by the largest size, not the whole search
        table = _LanguageTable()
        buckets = _buckets(reps, key_of, table)
        st.buckets = len(buckets)
        st.largest_bucket = max(map(len, buckets.values()))
        found = []
        for members in buckets.values():  # the pairs found are sorted below
            if len(members) == 1:
                st.groups += 1
                continue
            groups, tested, pairs = _process_bucket(
                [reps[i] for i in members], spec.coarse, spec.fine, table, decided
            )
            st.groups += len(groups)
            st.pairs_tested += tested
            found.extend((members[i], members[j]) for i, j in pairs)
        if found:
            # a level is in canonical-form order and each pair in member
            # order, so sorting by index puts each pair, then the list, in
            # canonical-form order
            result_pairs = [(reps[i], reps[j]) for i, j in sorted(found)]
            st.found = len(result_pairs)
            return SearchResult(spec=spec, size=size, pairs=result_pairs, stats=stats)
    raise NoPairFound(spec.max_events, _certificate_text(spec, stats, None))
