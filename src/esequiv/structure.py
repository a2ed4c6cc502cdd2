"""Core model: finite labelled prime event structures.

Events are dense ids 0..n-1.  Causality is stored as the strict order
(transitively closed); conflict as a symmetric irreflexive relation closed
under inheritance along causality.  Both relations live in per-event
bitmasks, which keeps every downstream computation (configurations,
transition systems, canonization) cheap at desk scale.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property

from .canon import MAX_CANON_EVENTS, canon_encode
from .errors import (
    CausalityConflictOverlap,
    CycleInCausality,
    DanglingId,
    InvalidLabel,
    SelfConflict,
    SizeLimit,
)

Label = str


class StructureClass(enum.Enum):
    PES = "PES"
    CS = "CS"
    EES = "EES"


def _bits(mask):
    """Iterate the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class EventStructure:
    """Immutable event structure; construct through :func:`build`.

    labels[e] is the action of event e; down[e] the bitmask of its strict
    causal predecessors (closed); conflicts[e] the bitmask of events in
    conflict with e (closed under inheritance).
    """

    labels: tuple[Label, ...]
    down: tuple[int, ...]
    conflicts: tuple[int, ...]

    @property
    def n(self):
        return len(self.labels)

    @property
    def all_mask(self):
        return (1 << self.n) - 1

    @cached_property
    def up(self):
        """Bitmask of strict causal successors per event."""
        return tuple(_transposed(self.down))

    @cached_property
    def minimal_events(self):
        return tuple(e for e in range(self.n) if self.down[e] == 0)

    def causality_pairs(self):
        """All strict pairs (e, e') with e < e'."""
        return frozenset((p, e) for e in range(self.n) for p in _bits(self.down[e]))

    def conflict_pairs(self):
        """All unordered conflict pairs as (min, max) tuples."""
        return frozenset(
            (e, f) for e in range(self.n) for f in _bits(self.conflicts[e]) if e < f
        )

    def __repr__(self):
        return (
            f"EventStructure(n={self.n}, labels={self.labels!r}, "
            f"causes={sorted(self.causality_pairs())}, "
            f"conflicts={sorted(self.conflict_pairs())})"
        )


def build(count, labels, causes=(), conflicts=()) -> EventStructure:
    """Validate and close a structure description.

    `causes` may be any acyclic generating relation (reduction or closure);
    `conflicts` may list only non-inherited pairs.  The result stores the
    transitive closure and the inheritance closure.  More than
    `MAX_CANON_EVENTS` events raise `SizeLimit` before any closure, so
    `canonical_form` is total over what `build` accepts.
    """
    if count < 0:
        raise DanglingId("event count must be non-negative")
    if count > MAX_CANON_EVENTS:
        raise SizeLimit(f"structure has {count} events; limit is {MAX_CANON_EVENTS}")
    label_map = labels if isinstance(labels, dict) else dict(enumerate(labels))
    for e in label_map:
        if not 0 <= e < count:
            raise DanglingId(f"label given for unknown event {e}")
    missing = [e for e in range(count) if e not in label_map]
    if missing:
        raise DanglingId(f"no label for event {missing[0]}")
    lab = tuple(_label(label_map[e]) for e in range(count))

    down = [0] * count
    for a, b in causes:
        if not (0 <= a < count and 0 <= b < count):
            raise DanglingId(f"cause pair ({a}, {b}) out of range")
        if a == b:
            raise CycleInCausality(f"event {a} causes itself")
        down[b] |= 1 << a
    # transitive closure over the strict order: one Warshall sweep
    for k in range(count):
        bit, below = 1 << k, down[k]
        for e in range(count):
            if down[e] & bit:
                down[e] |= below
    for e in range(count):
        if (down[e] >> e) & 1:
            raise CycleInCausality(f"causality cycle through event {e}")

    cf = [0] * count
    base = []
    for a, b in conflicts:
        if not (0 <= a < count and 0 <= b < count):
            raise DanglingId(f"conflict pair ({a}, {b}) out of range")
        if a == b:
            raise SelfConflict(f"event {a} conflicts with itself")
        if (down[b] >> a) & 1 or (down[a] >> b) & 1:
            raise CausalityConflictOverlap(
                f"events {a} and {b} are both ordered and in conflict"
            )
        base.append((a, b))
    # inheritance closure: a # b propagates to all causal successors of both
    up = _transposed(down) if base else ()  # no up rows without a pair to use them
    for a, b in base:
        amask = (1 << a) | up[a]
        bmask = (1 << b) | up[b]
        for x in _bits(amask):
            cf[x] |= bmask
        for y in _bits(bmask):
            cf[y] |= amask
    for e in range(count):
        if (cf[e] >> e) & 1:
            raise SelfConflict(
                f"inheritance closure forces event {e} into conflict with itself"
            )
    for e in range(count):
        if cf[e] & down[e]:
            raise CausalityConflictOverlap(
                f"event {e} conflicts with one of its causes"
            )
    return EventStructure(labels=lab, down=tuple(down), conflicts=tuple(cf))


def _label(value) -> Label:
    """`value` as a label: non-empty printable text without space or ``#``,
    so that ``.es`` reads it back and no NUL blurs the canonical form."""
    label = str(value)
    if not label or not label.isprintable() or " " in label or "#" in label:
        raise InvalidLabel(f"label {label!r} is not printable text without space or '#'")
    return sys.intern(label)


def _transposed(rows):
    """The rows of the converse relation: bit e of out[p] iff bit p of rows[e]."""
    out = [0] * len(rows)
    for e, row in enumerate(rows):
        for p in _bits(row):
            out[p] |= 1 << e
    return out


def concurrency(s: EventStructure):
    """Unordered pairs of distinct events neither ordered nor conflicting."""
    out = set()
    for e in range(s.n):
        for f in range(e + 1, s.n):
            related = ((s.down[f] >> e) & 1) or ((s.down[e] >> f) & 1) or (
                (s.conflicts[e] >> f) & 1
            )
            if not related:
                out.add((e, f))
    return frozenset(out)


def classify(s: EventStructure):
    """All class tags that apply; every valid structure is at least PES."""
    tags = {StructureClass.PES}
    if all(m == 0 for m in s.down):
        tags.add(StructureClass.CS)
    if all(m == 0 for m in s.conflicts):
        tags.add(StructureClass.EES)
    return frozenset(tags)


def canonical_form(s: EventStructure) -> bytes:
    """Canonical bytes; equal for two structures iff they are isomorphic."""
    return _labelled_canon(s.labels, s.down, s.conflicts)[0]


def _labelled_canon(labels, down, cf):
    """Canonical bytes and canon's permutation of the structure given by its
    labels and its cause and conflict rows: canon's encoding, whose label
    ranks index the sorted label table, then that table."""
    table = sorted(set(labels))
    rank = {lbl: i for i, lbl in enumerate(table)}
    enc, perm = canon_encode(len(labels), [rank[l] for l in labels], list(down), list(cf))
    return enc + b"|" + b"\x00".join(lbl.encode() for lbl in table), perm


def pomset_code_text(code: bytes) -> str:
    """A pomset code (`_labelled_canon` of a labelled poset) as text: its
    event count, its labels in canonical position order, then its cover
    pairs, e.g. ``3: a a b 0<2 1<2``.  The blocks before the label table
    are measured from the count, as canon's encoding lays them out, so a
    label holding ``|`` reads back whole.  Labels hold no space, so equal
    texts mean equal codes."""
    n = code[0]
    order_end = 1 + n + (n * n + 7) // 8
    start = order_end + (n * (n - 1) // 2 + 7) // 8 + 1  # past the "|"
    table = code[start:].decode().split("\x00")
    # row i, column j at bit i * n + j: position i is below position j
    bits = "".join(f"{byte:08b}" for byte in code[1 + n : order_end])
    below = [[bits[i * n + j] == "1" for j in range(n)] for i in range(n)]
    covers = [
        f"{i}<{j}"
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    ]
    return " ".join([f"{n}:"] + [table[rank] for rank in code[1 : 1 + n]] + covers)


def isomorphic(s: EventStructure, t: EventStructure):
    """Decide isomorphism; on success also return a witness bijection s -> t."""
    if s.n != t.n or sorted(s.labels) != sorted(t.labels):
        return False, None
    enc_s, perm_s = _labelled_canon(s.labels, s.down, s.conflicts)
    enc_t, perm_t = _labelled_canon(t.labels, t.down, t.conflicts)
    if enc_s != enc_t:
        return False, None
    return True, dict(zip(perm_s, perm_t))


def transitive_reduction(s: EventStructure):
    """Cover pairs (e, e') of the strict order: e < e' with nothing between."""
    out = []
    for e in range(s.n):
        for p in _bits(s.down[e]):
            between = s.down[e] & s.up[p]
            if between == 0:
                out.append((p, e))
    return sorted(out)


def minimal_conflict_pairs(s: EventStructure):
    """The unique minimal generating set of the conflict relation, sorted.

    A pair a # b with a < b is kept iff no other conflict pair sits
    (causally) at or below it in both components: a conflicts with no
    cause of b, and no cause of a conflicts with b or a cause of b.
    Inheritance closure of the kept pairs recovers the full relation.
    """
    keep = []
    for a in range(s.n):
        for b in _bits(s.conflicts[a] >> (a + 1) << (a + 1)):
            at_or_below_b = s.down[b] | (1 << b)
            if not s.conflicts[a] & s.down[b] and not any(
                s.conflicts[x] & at_or_below_b for x in _bits(s.down[a])
            ):
                keep.append((a, b))
    return keep


def restrict(s: EventStructure, mask: int) -> EventStructure:
    """Substructure induced by the events in mask, reindexed densely.

    Valid whenever the restriction of the closed relations is itself closed,
    which holds for downward- and upward-closed event sets alike.
    """
    kept = [e for e in range(s.n) if (mask >> e) & 1]
    index = {e: i for i, e in enumerate(kept)}
    labels = tuple(s.labels[e] for e in kept)
    down = tuple(
        _remap(s.down[e] & mask, index) for e in kept
    )
    cf = tuple(_remap(s.conflicts[e] & mask, index) for e in kept)
    return EventStructure(labels=labels, down=down, conflicts=cf)


def _remap(mask, index):
    out = 0
    for e in _bits(mask):
        out |= 1 << index[e]
    return out


def relabel(s: EventStructure, mapping) -> EventStructure:
    """Structure with every label replaced through `mapping`."""
    return EventStructure(
        labels=tuple(_label(mapping[l]) for l in s.labels),
        down=s.down,
        conflicts=s.conflicts,
    )
