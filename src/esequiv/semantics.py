"""Configurations, transition systems, and pomset coding.

A configuration is a bitmask over event ids: conflict-free and closed under
causal predecessors.  Three transition relations are supported between
configurations:

- interleaving: add one event, label = its action;
- step: add a non-empty set of pairwise concurrent events, label = the
  sorted multiset of their actions;
- pomset: add any non-empty event set H reaching another configuration,
  label = the canonical code of the induced labelled poset on H.

The deciders read a `Semantics` memo's moves: per configuration, in
(size, mask) order with the empty one at index 0, its sorted (label, target
index) moves, made on first request.  A transition system (`Lts`) is the
same table built whole, with every state's moves shared with the memo; it
is built only where a caller asks for one (`build_lts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from .errors import ModeMismatch, NotAConfiguration, SizeLimit, ValidationError
from .structure import (
    EventStructure,
    _bits,
    _labelled_canon,
    restrict,
)

MODE_INTERLEAVING = "interleaving"
MODE_STEP = "step"
MODE_POMSET = "pomset"
MODES = (MODE_INTERLEAVING, MODE_STEP, MODE_POMSET)

MAX_LTS_EVENTS = 30
MAX_CONFIGURATIONS = 1 << 16
MAX_TRANSITIONS = 1 << 18
MAX_POMSET_CODES = 1 << 16

#: renumbered induced structure (see `_order_key`) -> pomset code, shared by
#: every memo of the process and cleared when it holds `MAX_POMSET_CODES`
#: codes; `_LABELS` keeps one copy of each labels tuple its keys hold
_POMSET_CODES = {}
_LABELS = {}


def is_configuration(s: EventStructure, mask: int) -> bool:
    if mask & ~s.all_mask:
        return False
    for e in _bits(mask):
        if s.down[e] & ~mask:
            return False
        if s.conflicts[e] & mask:
            return False
    return True


def _event_rows(s: EventStructure):
    """Per event: its id, its causes, and the events that keep it out
    (itself and its conflicts)."""
    return [(e, d, c | 1 << e) for e, (d, c) in enumerate(zip(s.down, s.conflicts))]


def _enabled(rows, mask):
    """The events of `rows` addable to the configuration mask, in row order."""
    return [e for e, down, blocked in rows if mask & down == down and not mask & blocked]


def configurations(s: EventStructure):
    """All configurations, sorted by (size, mask).

    Layered expansion from the empty set; complete because every
    configuration is reachable by adding its events in any order compatible
    with causality.  Raises `SizeLimit` as soon as more than
    `MAX_CONFIGURATIONS` are found.
    """
    return tuple(_expansion(s))


def _expansion(s: EventStructure):
    """configuration -> its enabled events, one expansion for both, with the
    configurations in (size, mask) order.  Every configuration of a size is
    reached from one of the size below, so the expansion goes size by size;
    it raises `SizeLimit` as soon as more than `MAX_CONFIGURATIONS` are
    found."""
    rows = _event_rows(s)
    enabled = {}
    layer = [0]
    found = 1
    while layer:
        nxt = set()
        for mask in layer:
            events = enabled[mask] = _enabled(rows, mask)
            for e in events:
                m2 = mask | 1 << e
                if m2 not in nxt:
                    nxt.add(m2)
                    found += 1
                    if found > MAX_CONFIGURATIONS:
                        raise SizeLimit(
                            f"structure has at least {found} configurations; "
                            f"limit is {MAX_CONFIGURATIONS}"
                        )
        layer = sorted(nxt)
    return enabled


def poset_of(s: EventStructure, mask: int) -> EventStructure:
    """The labelled poset induced by a configuration (conflict part empty)."""
    if not is_configuration(s, mask):
        raise NotAConfiguration(f"{config_text(mask)} is not a configuration")
    return restrict(s, mask)


def config_text(mask: int) -> str:
    return "{" + ",".join(f"e{e}" for e in _bits(mask)) + "}"


@dataclass(frozen=True)
class Lts:
    """Explicit transition system over configurations, rooted at the empty one.

    `states` holds the configuration masks in nondecreasing size, the empty
    configuration first at index 0; `successors[i]` is the sorted tuple of
    the (label, target index) moves of state i, each to a state strictly
    containing it.  Anything else raises `ValidationError`.
    """

    mode: str
    states: tuple[int, ...]
    successors: tuple[tuple[tuple[object, int], ...], ...]

    def __post_init__(self):
        # the deciders take index 0 as the root and read the states in
        # reverse as bottom-up
        states = self.states
        if not states or states[0] != 0:
            raise ValidationError("the first state must be the empty configuration")
        sizes = [m.bit_count() for m in states]
        if sizes != sorted(sizes):
            raise ValidationError("states must be in nondecreasing configuration size")
        n = len(states)
        if len(self.successors) != n:
            raise ValidationError(f"{len(self.successors)} successor tuples for {n} states")
        for i, (src, moves) in enumerate(zip(states, self.successors)):
            for label, j in moves:
                # a strictly larger state comes later in size order
                if not i < j < n or src & ~states[j] or src == states[j]:
                    raise ValidationError(f"move {i} --{label!r}--> {j} is not to a larger state")

    @property
    def transitions(self):
        """(source mask, label, target mask) triples, by source state then move."""
        s = self.states
        return tuple((s[i], lab, s[j]) for i, moves in enumerate(self.successors) for lab, j in moves)


class Semantics:
    """The facts about one structure that the relations read, each computed
    on first use: configurations, enabled events, pomset codes (as one set,
    and one set per configuration size), and each configuration's moves per
    mode.  A configuration's moves are made when a decider first asks for
    them and kept, so a trace search expands only the configurations it
    reaches, and a class pass or a system built later (`build_lts`) reuses
    them; the moves of one memo and mode count together against
    `MAX_TRANSITIONS`.  The memo caches moves, never a system.

    A memo lives for one call (one pair check, one search key or bucket),
    holds nothing about a pair, and is never attached to the structure or
    kept in a module-level cache: the moves of a whole corpus would not fit
    the memory budget.  Pomset codes alone are shared: `code`
    looks each one up in the process-wide `_POMSET_CODES` table, keyed by the
    induced structure with its events renumbered (`_order_key`) and bounded
    by `MAX_POMSET_CODES`, because codes are small and most of them repeat a
    poset that another structure, or another numbering, already coded (93%
    of them on the spectrum benchmark corpus).  Each worker
    process of `verify_spectrum(jobs>1)` has its own table.  Public
    functions accept a structure or a memo.
    """

    def __init__(self, s: EventStructure):
        self.s = s
        self._codes = {}
        # mode -> (per configuration index its moves or None, group -> its
        # label, the `_pomset_rows` its pomset moves are listed from, else None)
        self._listed = {}
        self._made = dict.fromkeys(MODES, 0)  # mode -> moves listed so far
        self._sized = {}  # size -> the codes of the configurations of that size

    @classmethod
    def of(cls, s):
        """`s` itself if it is already a memo, else a fresh memo of `s`."""
        return s if isinstance(s, cls) else cls(s)

    @cached_property
    def enabled(self):
        """configuration -> list of events addable to it, in configuration order."""
        return _expansion(self.s)

    @cached_property
    def configurations(self):
        return tuple(self.enabled)

    def code(self, mask: int) -> bytes:
        """Pomset code of the events in mask (a configuration or the
        difference of two), looked up in the process-wide code table before
        anything is canonized; a miss is canonized from its key."""
        got = self._codes.get(mask)
        if got is None:
            labels, rows = key = _order_key(self.s, mask)
            got = _POMSET_CODES.get(key)
            if got is None:
                got = _canonize(key)
                if len(_POMSET_CODES) >= MAX_POMSET_CODES:
                    _POMSET_CODES.clear()
                    _LABELS.clear()
                _POMSET_CODES[_LABELS.setdefault(labels, labels), rows] = got
            self._codes[mask] = got
        return got

    @cached_property
    def codes(self):
        """The set of the configurations' pomset codes."""
        # frozenset sizes its table once from a dict's length, but grows it
        # fourfold at a time from an iterator, and these sets stay in every
        # pt bucket key of a search size
        return frozenset(dict.fromkeys(map(self.code, self.configurations)))

    @cached_property
    def _by_size(self):
        """The configurations split by size, smallest first."""
        return [tuple(group) for _, group in groupby(self.configurations, int.bit_count)]

    def sized_codes(self, k: int):
        """The set of the pomset codes of the configurations with k events,
        made on first request.  A code fixes its poset's size, so two memos
        have equal `codes` iff these sets are equal at every size."""
        got = self._sized.get(k)
        if got is None:
            got = self._sized[k] = frozenset(map(self.code, self._by_size[k]))
        return got

    def moves(self, i: int, mode: str):
        """The sorted (label, target index) moves in `mode` of the i-th
        configuration (of `configurations`; 0 is the root), made by `_moves`
        on first request and kept.  `build_lts` shares these tuples, so a
        system holds no second copy of them.  The first request in a mode
        raises what `build_lts` raises before it makes a move; the moves
        made in a mode count together against `MAX_TRANSITIONS`, raising
        `SizeLimit` with `build_lts`'s message."""
        listed = self._listed.get(mode)
        if listed is None:
            _refuse(self.s, mode)
            known = [None] * len(self.configurations)
            rows = _pomset_rows(self.s) if mode == MODE_POMSET else None
            listed = self._listed[mode] = (known, {}, rows)
        known, names, rows = listed
        got = known[i]
        if got is None:
            mask = self.configurations[i]
            events = self.enabled[mask] if rows is None else _enabled(rows, mask)
            groups, self._made[mode] = _moves(self, events, mode, self._made[mode], names)
            index = self._index
            got = known[i] = tuple(sorted([(names[g], index[mask | g]) for g in groups]))
        return got

    @cached_property
    def _index(self):
        """configuration -> its index in `configurations`."""
        return {m: i for i, m in enumerate(self.configurations)}


def _order_key(s: EventStructure, mask: int):
    """The structure induced by the events in mask, with its events
    renumbered by (label, causes in mask, effects in mask), ties by event id,
    as the pair (labels, rows).  rows is one int packing each event's causes
    (k bits per event for k events), and, only when mask holds a conflict,
    the pair of that int and one packing the conflicts alike.  Equal keys
    mean equal renumbered structures, so isomorphic ones; isomorphic
    structures may still have different keys.  A configuration, or the
    difference of two, holds no conflict, so its key never equals one that
    does."""
    down = s.down
    effects = [0] * len(down)
    kept = []
    pairs = []  # (cause, event) in mask
    rest = mask
    while rest:
        low = rest & -rest
        e = low.bit_length() - 1
        rest ^= low
        kept.append(e)
        causes = down[e] & mask
        while causes:
            low = causes & -causes
            c = low.bit_length() - 1
            causes ^= low
            effects[c] += 1
            pairs.append((c, e))
    labels = s.labels
    order = sorted([(labels[e], (down[e] & mask).bit_count(), effects[e], e) for e in kept])
    k = len(kept)
    pos = effects  # event -> its new number; `order` holds the counts now
    for i, row in enumerate(order):
        pos[row[3]] = i
    packed = 0
    for c, e in pairs:  # row pos[e] holds the bit pos[c]
        packed |= 1 << (pos[e] * k + pos[c])
    conflicts = s.conflicts
    clashes = 0
    for e in kept:
        rivals = conflicts[e] & mask
        while rivals:
            low = rivals & -rivals
            rivals ^= low
            clashes |= 1 << (pos[e] * k + pos[low.bit_length() - 1])
    return tuple([row[0] for row in order]), (packed, clashes) if clashes else packed


def _canonize(key):
    """Pomset code of the structure an `_order_key` describes, canonized
    from its unpacked rows: no structure is built."""
    labels, rows = key
    causes, conflicts = rows if isinstance(rows, tuple) else (rows, 0)
    k = len(labels)
    row = (1 << k) - 1
    return _labelled_canon(
        labels,
        [causes >> i * k & row for i in range(k)],
        [conflicts >> i * k & row for i in range(k)],
    )[0]


def _refuse(s: EventStructure, mode: str):
    """Raise what `build_lts` raises before it reads any configuration: an
    unknown mode, or more than `MAX_LTS_EVENTS` events, and in the pomset
    mode `ValidationError` when causality is not a transitively closed
    strict order, as `build` makes it, since `_pomset_rows` lists causes
    first by their count."""
    if mode not in MODES:
        raise ModeMismatch(f"unknown mode {mode!r}")
    if s.n > MAX_LTS_EVENTS:
        raise SizeLimit(f"structure has {s.n} events; limit is {MAX_LTS_EVENTS}")
    if mode == MODE_POMSET:
        causes = s.down
        for e, down in enumerate(causes):
            if down >> e & 1:
                raise ValidationError(f"event {e} is among its own causes")
            for d in _bits(down):
                if causes[d] & ~down:
                    raise ValidationError(f"causality is not transitively closed at event {e}")


def build_lts(s: EventStructure | Semantics, mode: str) -> Lts:
    """Full transition system of the structure under the given mode, every
    state's moves read through `Semantics.moves`, so made by `_moves` once
    per memo; raises `SizeLimit` past `MAX_TRANSITIONS` transitions.  The
    pomset mode needs causality closed as `build` closes it (see
    `_refuse`)."""
    sem = Semantics.of(s)
    _refuse(sem.s, mode)
    states = sem.configurations
    return Lts(mode, states, tuple([sem.moves(i, mode) for i in range(len(states))]))


def _pomset_rows(s: EventStructure):
    """`_event_rows` for which `_enabled` lists the events a pomset move
    can add, those outside the configuration and its conflicts: causes
    first, none waited for, and each event kept out by its causes'
    conflicts too (which add nothing where `build` closed them).  Causes
    come first by count, which lists them first only where causality is a
    transitively closed strict order; `_refuse` refuses other structures in
    the pomset mode before these rows are read."""
    conflicts = s.conflicts
    rows = []
    for e, down, blocked in _event_rows(s):
        for d in _bits(down):
            blocked |= conflicts[d]
        rows.append((down.bit_count(), e, blocked))
    return [(e, 0, blocked) for _, e, blocked in sorted(rows)]


def _moves(sem: Semantics, events, mode, count, names):
    """The moves of a configuration as group masks, in any mode: in the
    interleaving one each of `events`, its addable events.  Else each of
    `events`, listed causes first, extends every group kept so far that it
    has no conflict with and that holds its causes among `events`: steps
    from the addable events, pomset moves from those `_pomset_rows` lists.
    `count` moves were made before; the new count is returned, and past
    `MAX_TRANSITIONS` raises `SizeLimit` before any group is labelled (the
    list stops growing once past the moves left, at most about twice).
    `names` is left holding each group's label: its event's label, the
    sorted labels of its events, or its code (`Semantics.code`)."""
    s = sem.s
    if mode == MODE_INTERLEAVING:
        groups = [1 << e for e in events]
    else:
        conflicts, down = s.conflicts, s.down
        room = MAX_TRANSITIONS - count + 1
        groups, seen = [0], 0  # seen: the events listed so far
        for e in events:
            bit, clash, need = 1 << e, conflicts[e], down[e] & seen
            groups += [g | bit for g in groups if not clash & g and g & need == need]
            seen |= bit
            if len(groups) > room:
                break
        del groups[0]
    count += len(groups)
    if count > MAX_TRANSITIONS:
        raise SizeLimit(f"at least {count} {mode} transitions; limit is {MAX_TRANSITIONS}")
    labels = s.labels
    for group in groups:
        if group not in names:
            if mode == MODE_INTERLEAVING:
                names[group] = labels[group.bit_length() - 1]
            elif mode == MODE_STEP:
                names[group] = tuple(sorted([labels[e] for e in _bits(group)]))
            else:
                names[group] = sem.code(group)
    return groups, count


def trace_language(lts: Lts, limit: int = 1_000_000):
    """The full (finite) set of label sequences of an acyclic rooted LTS.

    Exponential in the worst case; guarded by `limit`.  Meant for the small
    curated examples and for cross-checks, not for deciding equivalence.
    """
    memo = {}

    def rec(state):
        got = memo.get(state)
        if got is not None:
            return got
        acc = {()}
        for label, dst in lts.successors[state]:
            for w in rec(dst):
                acc.add((label,) + w)
                if len(acc) > limit:
                    raise SizeLimit("trace language larger than limit")
        got = frozenset(acc)
        memo[state] = got
        return got

    return rec(0)


def has_autoconcurrency(s: EventStructure) -> bool:
    """Some configuration holds two distinct concurrent events with one label."""
    for e in range(s.n):
        for f in range(e + 1, s.n):
            if s.labels[e] != s.labels[f]:
                continue
            ordered = ((s.down[f] >> e) & 1) or ((s.down[e] >> f) & 1)
            if ordered or ((s.conflicts[e] >> f) & 1):
                continue
            joint = s.down[e] | s.down[f] | (1 << e) | (1 << f)
            if is_configuration(s, joint):
                return True
    return False
