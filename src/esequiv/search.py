"""Bounded exhaustive search over small conflict-free structures.

Enumerates one representative per isomorphism class of labelled strict
orders, size by size, and looks for the smallest pairs related by a coarse
relation but separated by a fine one.  Classes are generated by extending
each (n-1)-event representative with one fresh maximal event whose
predecessor set ranges over all downward-closed sets, deduplicating by
canonical form; every n-event class arises this way from the class of some
maximal-event-deleted substructure, so the sweep is complete.

Buckets of cheap language invariants cut the quadratic pair testing; a
bucket key holds only the finest trace invariant the chosen coarse
relation implies, so bucketing never loses a qualifying pair.

Each class representative gets one `Semantics` memo while it is keyed, so
its transition system is built once.  Its trace fingerprint is the root
class id of its determinized system, and with ib or sb as the coarse
relation the memo also gives the root's bisimulation class id; both come
from one rank-pass table per size.  The bisimulation class stays out of
the bucket key, and a bucket groups its members by it.  pb builds its
pomset systems only inside buckets of two or more members, and groups
them by root class under one table per bucket; other coarse relations are
tested pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .equivalences import (
    _MODE_OF, Relation, _classes, _indexed, _rank_pass, _subset_step, check, implies
)
from .errors import NoPairFound, NotAnEes, SizeLimit
from .semantics import MODE_INTERLEAVING, MODE_STEP, Semantics, configurations
from .structure import EventStructure, canonical_form, restrict

MAX_SEARCH_EVENTS = 9
MAX_SEARCH_ALPHABET = 3

_LETTERS = "abc"


def _extended(base: EventStructure, downset: int, letter: str) -> EventStructure:
    # the fresh event is maximal, so closure properties are preserved
    return EventStructure(
        labels=base.labels + (letter,),
        down=base.down + (downset,),
        conflicts=base.conflicts + (0,),
    )


def _poset_levels(max_events: int, alphabet: int):
    """levels[k] = canonical representatives of every k-event class."""
    if max_events > MAX_SEARCH_EVENTS:
        raise SizeLimit(
            f"poset enumeration capped at {MAX_SEARCH_EVENTS} events, got {max_events}"
        )
    if not 1 <= alphabet <= MAX_SEARCH_ALPHABET:
        raise SizeLimit(f"poset enumeration supports 1..{MAX_SEARCH_ALPHABET} labels")
    letters = _LETTERS[:alphabet]
    levels = [[EventStructure(labels=(), down=(), conflicts=())]]
    for _ in range(max_events):
        reps = {}
        for base in levels[-1]:
            # in a conflict-free structure the configurations are the downsets
            for downset in configurations(base):
                for letter in letters:
                    cand = _extended(base, downset, letter)
                    code = canonical_form(cand)
                    if code not in reps:
                        reps[code] = cand
        levels.append([reps[code] for code in sorted(reps)])
    return levels


def enumerate_posets(n: int, alphabet: int = 1):
    """One representative per isomorphism class of n-event labelled posets."""
    yield from _poset_levels(n, alphabet)[n]


def source_deleted_multiset(s: EventStructure):
    """Multiset (sorted tuple) of canonical forms after deleting each minimal event."""
    if any(s.conflicts):
        raise NotAnEes("source deletion is defined for conflict-free structures")
    out = []
    for e in s.minimal_events:
        out.append(canonical_form(restrict(s, s.all_mask & ~(1 << e))))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# language fingerprints (exact invariants for trace equivalences)
# ---------------------------------------------------------------------------


def _language_fingerprint(lts, table):
    """Class id of the trace language of `lts` under the rank-pass `table`.

    Subset construction, then the language classes of the subsets in one
    bottom-up pass: on a deterministic system they are its bisimulation
    classes, so systems fingerprinted with one table get equal root ids iff
    their languages are equal.
    """
    rows = _indexed(lts)
    label_ids = [(label, table.setdefault(label, len(table))) for label in rows]
    ids = {1: 0}
    subsets = [1]
    trans = []  # per subset id: list of (label id, dst subset id)
    for sub in subsets:  # grows as new subsets are met
        out = []
        for label, label_id in label_ids:
            target = _subset_step(rows, label, sub)
            if target:
                if target not in ids:
                    ids[target] = len(subsets)
                    subsets.append(target)
                out.append((label_id, ids[target]))
        trans.append(out)
    # States are sorted by size, so a subset's lowest state is one of its
    # least size; every step grows that size, so the lowest bits decrease
    # bottom-up.
    order = sorted(range(len(subsets)), key=lambda i: subsets[i] & -subsets[i], reverse=True)
    return _rank_pass(trans, order, table)[0]


def it_fingerprint(s: EventStructure, table):
    """Interleaving trace class of `s`: equal under one table iff it-equivalent."""
    return _language_fingerprint(Semantics.of(s).lts(MODE_INTERLEAVING), table)


def st_fingerprint(s: EventStructure, table):
    """Step trace class of `s`: equal under one table iff st-equivalent."""
    return _language_fingerprint(Semantics.of(s).lts(MODE_STEP), table)


#: coarse relations whose members are grouped by bisimulation class; the
#: first two get their classes while keying
_CLASS_KEYED = (Relation.IB, Relation.SB, Relation.PB)
_ROOTS_AT_KEY = (Relation.IB, Relation.SB)


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


def _bucket_key(s, spec, table):
    """Invariants of `s` implied by the coarse relation; fingerprints under `table`."""
    sem = Semantics.of(s)
    s = sem.s
    key = [tuple(sorted(s.labels))]
    if spec.use_filters:
        # the finest trace invariant the coarse relation implies; pt implies
        # st and st implies it, so a coarser one would split no bucket further
        if implies(spec.coarse, Relation.PT):
            key.append(frozenset(sem.by_code))
        elif implies(spec.coarse, Relation.ST):
            key.append(st_fingerprint(sem, table))
        else:
            key.append(it_fingerprint(sem, table))
    if spec.sdm_filter:
        key.append(source_deleted_multiset(s))
    return tuple(key)


def _buckets(reps, spec, table):
    """Bucket key -> (member indices, their root class ids or None), in
    member order.  A member's key and, for ib and sb, its root class come
    from one memo, under the rank-pass `table`."""
    keyed = spec.coarse in _ROOTS_AT_KEY
    buckets = {}
    for idx, s in enumerate(reps):
        sem = Semantics(s)
        members, roots = buckets.setdefault(_bucket_key(sem, spec, table), ([], []))
        members.append(idx)
        if keyed:
            roots.append(_classes(sem.lts(_MODE_OF[spec.coarse]), table)[0])
    return {key: (members, roots or None) for key, (members, roots) in buckets.items()}


def _process_bucket(members, coarse, fine, roots=None):
    """Group one bucket by the coarse relation, in member order; return the
    groups, the number of pairs tested and the local qualifying pairs.
    `roots` are the members' root class ids under one table, if known."""
    sems = [Semantics(s) for s in members]
    pairs_tested = 0
    if roots is None and coarse in _CLASS_KEYED:
        # a root's class under a table shared by the bucket is an exact key
        table = {}
        roots = [_classes(sem.lts(_MODE_OF[coarse]), table)[0] for sem in sems]
    if roots is not None:
        by_class = {}
        for idx, root in enumerate(roots):
            by_class.setdefault(root, []).append(idx)
        groups = list(by_class.values())
    else:
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
                # distinct representatives are never isomorphic
                if fine is not Relation.ISO:
                    pairs_tested += 1
                    if check(fine, sems[i], sems[j]):
                        continue
                found.append((i, j))
    return groups, pairs_tested, found


def find_minimal_pairs(spec: SearchSpec) -> SearchResult:
    """All qualifying pairs at the smallest size admitting one.

    Raises NoPairFound (carrying the exhaustion certificate) if no size up
    to the bound yields a pair.
    """
    levels = _poset_levels(spec.max_events, spec.alphabet)
    stats = {}
    for size in range(1, spec.max_events + 1):
        reps = levels[size]
        st = SizeStats(classes=len(reps))
        stats[size] = st
        # ids are compared only within a size, so the table stays bounded
        # by the largest size, not the whole search
        buckets = _buckets(reps, spec, {})
        st.buckets = len(buckets)
        st.largest_bucket = max(len(members) for members, _ in buckets.values())
        found = []
        for members, roots in buckets.values():  # the pairs found are sorted below
            if len(members) == 1:
                st.groups += 1
                continue
            groups, tested, pairs = _process_bucket(
                [reps[i] for i in members], spec.coarse, spec.fine, roots
            )
            st.groups += len(groups)
            st.pairs_tested += tested
            found.extend((members[i], members[j]) for i, j in pairs)
        if found:
            result_pairs = []
            for i, j in found:
                left, right = reps[i], reps[j]
                if canonical_form(left) > canonical_form(right):
                    left, right = right, left
                result_pairs.append((left, right))
            result_pairs.sort(
                key=lambda p: (canonical_form(p[0]), canonical_form(p[1]))
            )
            st.found = len(result_pairs)
            return SearchResult(spec=spec, size=size, pairs=result_pairs, stats=stats)
    raise NoPairFound(spec.max_events, _certificate_text(spec, stats, None))
