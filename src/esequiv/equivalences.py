"""The ten behavioural relations and the verdict matrix.

Trace equivalences are decided by one on-the-fly subset search over the
moves of the configurations it reaches, without materializing languages;
pomset trace equivalence compares code sets size by size; bisimulations,
once the roots fail to refute them within two game rounds (one in the
pomset mode), by one rank-based pass that gives every state a class id
bottom-up, since the systems are acyclic; weak history preserving
bisimilarity by the same pass over states tagged with their pomsets, once
neither the interleaving roots' two rounds nor the code sets refute it;
the plain and hereditary history
preserving relations by greatest fixpoints over triples carrying an
explicit poset isomorphism, built only for the configuration pairs that
whb relates.  One `Pair` per call holds what these share, each computed
once: the code comparison, whb's configuration pairs, and one set of
triples that hb prunes in place and hhb prunes from a copy.  Every
decider reads the memos' moves; no verdict builds an `Lts`.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .errors import ModeMismatch, SizeLimit, SpectrumViolation, ValidationError
from .semantics import (
    MAX_CONFIGURATIONS,
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    Lts,
    Semantics,
    _enabled,
    _event_rows,
    _moves,
    _order_key,
    _pomset_rows,
    _refuse,
)
from .structure import EventStructure, _bits, isomorphic

#: the most history-preserving triples one pair may have
MAX_TRIPLES = 1 << 18


class Relation(enum.Enum):
    """The ten relations; the definition order is the display order of
    verdict tables, coarsest first."""

    IT = "it"
    ST = "st"
    IB = "ib"
    PT = "pt"
    SB = "sb"
    WHB = "whb"
    PB = "pb"
    HB = "hb"
    HHB = "hhb"
    ISO = "iso"

    def __str__(self):
        return self.value


#: Display order for verdict tables (coarsest first).
MATRIX_ORDER = tuple(Relation)

#: Proven inclusions between the relations: (finer, coarser) means a verdict
#: for the finer relation forces the same verdict for the coarser one.
INCLUSION_ARROWS = (
    (Relation.IB, Relation.IT),
    (Relation.ST, Relation.IT),
    (Relation.SB, Relation.IB),
    (Relation.SB, Relation.ST),
    (Relation.PT, Relation.ST),
    (Relation.PB, Relation.SB),
    (Relation.PB, Relation.PT),
    (Relation.WHB, Relation.SB),
    (Relation.WHB, Relation.PT),
    (Relation.HB, Relation.PB),
    (Relation.HB, Relation.WHB),
    (Relation.HHB, Relation.HB),
    (Relation.ISO, Relation.HHB),
)


def implies(finer: Relation, coarser: Relation) -> bool:
    """Whether `finer` holding forces `coarser` to hold: the reflexive and
    transitive closure of INCLUSION_ARROWS."""
    return finer is coarser or any(
        implies(mid, coarser) for fine, mid in INCLUSION_ARROWS if fine is finer
    )


@dataclass(frozen=True)
class TraceWitness:
    """A label sequence possible on `side` only; minimal (shortest, then lex)."""

    side: str
    sequence: tuple


@dataclass(frozen=True)
class GameWitness:
    """An attacker line: moves from the roots to a position where one side is stuck."""

    moves: tuple  # of (side, label)
    stuck_side: str
    stuck_label: object
    position: tuple  # (left mask-or-triple, right ...) where the game is lost


@dataclass(frozen=True)
class RelationWitness:
    """The surviving relation backing a positive verdict."""

    kind: str
    members: tuple


@dataclass(frozen=True)
class IsoWitness:
    mapping: tuple  # (event in left, event in right) pairs


@dataclass(frozen=True)
class PomsetWitness:
    """A configuration whose pomset occurs on `side` only."""

    side: str
    configuration: int


# ---------------------------------------------------------------------------
# trace equivalence (interleaving and step modes)
# ---------------------------------------------------------------------------


def trace_equiv(la: Lts, lb: Lts, *, witness=False):
    """Language equality of two rooted all-accepting transition systems.

    Decided on the fly over determinized subset states (`_trace_search`);
    a negative verdict yields the minimal distinguishing sequence.
    """
    if la.mode != lb.mode:
        raise ModeMismatch(f"cannot compare {la.mode} with {lb.mode}")
    return _trace_search(la.successors.__getitem__, lb.successors.__getitem__, witness)


def _trace_search(moves_a, moves_b, witness):
    """Language equality of two rooted acyclic systems, each given by its
    moves function, state -> sorted (label, target state) moves, with root
    0: the states of a built `Lts`, or the configurations of a memo
    (`Semantics.moves`), whose moves are then made only for the states the
    search reaches.

    One breadth-first search over pairs of subsets, the states one label
    sequence reaches on each side, from the roots, with the labels present
    at a pair taken in sorted order; it stops at the first pair where one
    side has a label the other lacks, so the witness is a shortest
    sequence, least in that order among the shortest."""
    start = (frozenset((0,)), frozenset((0,)))
    seen = {start}
    queue = [(start, ())]
    head = 0
    while head < len(queue):
        (sa, sb), path = queue[head]
        head += 1
        na, nb = _after(moves_a, sa), _after(moves_b, sb)
        if na.keys() != nb.keys():
            if not witness:
                return False
            label = min(na.keys() ^ nb.keys())
            side = "left" if label in na else "right"
            return False, TraceWitness(side=side, sequence=path + (label,))
        for label in sorted(na):
            nxt = (frozenset(na[label]), frozenset(nb[label]))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (label,)))
    return (True, None) if witness else True


def _after(moves_of, subset):
    """label -> the set of states one move under it from `subset`."""
    out = {}
    for state in subset:
        for label, target in moves_of(state):
            got = out.get(label)
            if got is None:
                out[label] = {target}
            else:
                got.add(target)
    return out


# ---------------------------------------------------------------------------
# bisimulation (all three modes) by one rank-based pass
# ---------------------------------------------------------------------------


def _classes(moves, count, table, tag=None):
    """Bisimulation class id of each state 0..count-1 of a system given by
    its moves function, as `_trace_search` reads it, by one bottom-up pass
    (the well-founded case of Dovier, Piazza & Policriti, TCS 2004): states
    are sorted by size, so reversed order takes successors first.  All
    moves are made first, in state order, so past `MAX_TRANSITIONS` the
    pass raises `build_lts`'s message.  Labels are interned in `table` in
    state order, and each state's class by `_class_id`, so states of all
    systems sharing a table get equal ids iff bisimilar.  With `tag`, state
    v's signature also holds `tag(v)`: equal ids mean bisimilar through
    states of equal tags."""
    made = [moves(v) for v in range(count)]
    succ = [[(table.setdefault(label, len(table)), j) for label, j in m] for m in made]
    cls = [None] * count
    for v in reversed(range(count)):
        cls[v] = _class_id(table, succ[v], cls, None if tag is None else tag(v))
    return cls


def _class_id(table, moves, cls, tag=None):
    """Intern in `table` the class whose moves are the (label id, successor)
    pairs `moves`, `cls` giving each successor's class id, and return its
    id.  Its signature is the sorted set of the moves packed as successor
    class << 32 | label id (label ids count table entries, so stay below
    2**32), preceded by `tag` if given."""
    sig = tuple(sorted({cls[w] << 32 | lab for lab, w in moves}))
    return table.setdefault(sig if tag is None else (tag, sig), len(table))


#: the bits of the label id in a move packed as `_class_id` packs it
_LABEL_BITS = (1 << 32) - 1


class _LanguageTable:
    """Bisimulation classes, in all three modes, and trace-language ids;
    equal language ids under one table iff the languages are equal.

    `classes` is a `_classes` table, and `root` gives a structure's root its
    class id in it, once per structure and mode, keeping the signature of
    each new class: its moves packed by `_class_id`, class << 32 | label
    id.  Bisimilar states have equal languages, so the language of a set of
    classes is read from the quotient: it interns, in a table of its own,
    the sorted language ids of the successor sets under each label, packed
    with the label id, and is computed once per set of classes.
    """

    def __init__(self):
        self.classes = {}
        self._keys = []  # table id -> its key in `classes`
        self._ids = {}  # language signature -> language id
        self._of = {}  # sorted tuple of class ids -> language id
        self._residuals = {}  # mode -> labels -> packed rows -> class id
        self._roots = {}  # mode -> id of a structure -> its root's class id
        self._held = []  # the structures of `_roots`, so that no id is reused

    def root(self, s: EventStructure | Semantics, mode):
        """Class id of the root of the system of `s`, a structure or a memo,
        in `mode`, by a bottom-up class pass that builds no system.  The
        table keeps the id it gives each structure in each mode, so asking
        again is one lookup that expands nothing and refuses nothing anew.

        The future of a configuration C is the system of its residual, the
        events outside C and outside C's conflicts.  So each state but the
        root is first looked up by its residual's `_order_key` in the
        table's map for the mode, nested as labels -> packed rows -> class
        id: equal keys mean isomorphic residuals, so bisimilar states.  Only
        a miss is expanded, its moves made by `semantics._moves` as in
        `build_lts` and interned by `_class_id`, so ids are equal iff the
        states are bisimilar.  Raises what `semantics._refuse` raises, then
        `SizeLimit` past `MAX_CONFIGURATIONS` expanded states or past
        `MAX_TRANSITIONS` moves.  The residual is C's future only when
        conflicts are inherited along causality, as `build` closes them, so
        a structure whose conflicts are not raises `ValidationError`, as
        unclosed causality does in the pomset mode (`_refuse`).
        """
        got = self._roots.get(mode, {}).get(id(s.s if isinstance(s, Semantics) else s))
        if got is not None:
            return got
        sem = Semantics.of(s)
        s = sem.s
        _refuse(s, mode)
        conflicts, full = s.conflicts, s.all_mask
        if any(conflicts) and any(
            conflicts[d] & ~conflicts[e] for e in range(s.n) for d in _bits(s.down[e])
        ):
            raise ValidationError("conflicts are not inherited along causality")
        table = self.classes
        known = self._residuals.setdefault(mode, {})
        rows = (_pomset_rows if mode == MODE_POMSET else _event_rows)(s)
        names = {}  # group mask -> its label, as `build_lts` spells it
        label_ids = {}  # group mask -> its label id
        seen = {}  # residual mask -> class id, within this structure
        expanded = count = 0

        def class_of(mask, blocked):
            # blocked: the events of mask and of its conflicts
            nonlocal expanded, count
            expanded += 1
            if expanded > MAX_CONFIGURATIONS:
                raise SizeLimit(
                    f"at least {expanded} configurations to expand; "
                    f"limit is {MAX_CONFIGURATIONS}"
                )
            groups, count = _moves(sem, _enabled(rows, mask), mode, count, names)
            moves = []
            for group in groups:
                label = label_ids.get(group)
                if label is None:
                    label = label_ids[group] = table.setdefault(names[group], len(table))
                clash = blocked | group
                for e in _bits(group):
                    clash |= conflicts[e]
                residual = full & ~clash
                if residual not in seen:
                    labels, packed = _order_key(s, residual)
                    rows_of = known.setdefault(labels, {})
                    c = rows_of.get(packed)
                    if c is None:
                        c = rows_of[packed] = class_of(mask | group, clash)
                    seen[residual] = c
                moves.append((label, residual))
            return _class_id(table, moves, seen)

        try:
            got = self._roots.setdefault(mode, {})[id(s)] = class_of(0, 0)
            self._held.append(s)
            return got
        finally:
            # ids count the table's entries, so the new keys are the last ones
            new = len(table) - len(self._keys)
            self._keys.extend(list(islice(reversed(table), new))[::-1])

    def language(self, classes):
        """Language id of the union of the sorted tuple of class ids."""
        got = self._of.get(classes)
        if got is None:
            succ = {}
            for c in classes:
                for move in self._keys[c]:
                    succ.setdefault(move & _LABEL_BITS, set()).add(move >> 32)
            sig = tuple(sorted(
                self.language(tuple(sorted(dst))) << 32 | label for label, dst in succ.items()
            ))
            got = self._of[classes] = self._ids.setdefault(sig, len(self._ids))
        return got


def _class_pairs(xs, ca, ys, cb):
    """Sorted (x, y) pairs of left and right states with equal class ids."""
    by_class = defaultdict(list)
    for y, d in zip(ys, cb):
        by_class[d].append(y)
    return tuple(sorted((x, y) for x, c in zip(xs, ca) for y in by_class.get(c, ())))


def bisim(la: Lts, lb: Lts, *, witness=False):
    """Bisimilarity of the two rooted systems under their (common) mode."""
    if la.mode != lb.mode:
        raise ModeMismatch(f"cannot compare {la.mode} with {lb.mode}")
    return _bisim(
        la.successors.__getitem__, lb.successors.__getitem__, la.states, lb.states,
        la.mode, witness,
    )


def _bisim(moves_a, moves_b, states_a, states_b, mode, witness):
    """Bisimilarity in `mode` of two systems given as `_bisim_line` reads
    them: a class pass per side under one table; the pairs of equal class
    back a positive verdict, an attacker line a negative one."""
    table = {}
    ca = _classes(moves_a, len(states_a), table)
    cb = _classes(moves_b, len(states_b), table)
    ok = ca[0] == cb[0]  # the roots
    if not witness:
        return ok
    if ok:
        members = _class_pairs(states_a, ca, states_b, cb)
        return True, RelationWitness(kind=f"{mode}-bisimulation", members=members)
    return False, _bisim_line(moves_a, moves_b, states_a, states_b, lambda x, y: ca[x] == cb[y])


def _labels(moves):
    """The set of the labels of (label, target) moves."""
    return {label for label, _ in moves}


def _two_rounds(moves_a, moves_b):
    """same(x, y): whether state x of one moves function and y of the
    other agree for two game rounds, so the attacker needs three moves or
    more to win from them: equal move labels, then equal signatures, the
    set of (label, the labels of the target's moves) over their moves.  So
    a pair with unequal labels makes no successor's moves."""
    sig_a, sig_b = _two_round_signature(moves_a), _two_round_signature(moves_b)

    def same(x, y):
        return _labels(moves_a(x)) == _labels(moves_b(y)) and sig_a(x) == sig_b(y)

    return same


def _two_round_signature(moves):
    """state -> its two-round signature, made once per state."""
    made = {}

    def signature(i):
        got = made.get(i)
        if got is None:
            got = made[i] = frozenset(
                (label, frozenset(_labels(moves(j)))) for label, j in moves(i)
            )
        return got

    return signature


def _unmatched(moves_a, moves_b):
    """The first attacker move that no answer matches, left moves first,
    each side's in its sorted order: (side, label), else None."""
    la, lb = _labels(moves_a), _labels(moves_b)
    left = (("left", label) for label, _ in moves_a if label not in lb)
    right = (("right", label) for label, _ in moves_b if label not in la)
    return next(chain(left, right), None)


def _bisim_line(moves_a, moves_b, states_a, states_b, same):
    """Attacker line from the roots down a class mismatch to a stuck side;
    the one routine that builds a `GameWitness`.

    Each side is given by its moves function, state index -> sorted (label,
    target) moves, and its states' masks, as `_trace_search` reads them;
    `same(x, y)` tells whether two state indices are in one class.  At each
    position the attacker first takes a move no answer matches
    (`_unmatched`), reading no class, so `same` is never called where a
    side is stuck.  Otherwise each move attains the distinguishing depth of
    its pair (the fewest moves the attacker needs to win, computed only
    where the line goes) and takes the least deep answer, so the line is
    no longer than the roots' depth; a stuck move has depth 1, the least,
    so taking it first changes no line.  Where the roots' depth is at most
    2, `same` may be `_two_rounds`: the pairs it separates keep their
    depth, the others are deeper than the roots, so the line is the same.
    The lost position is given as masks.
    """
    memo = {}

    def options(x, y):  # (mover, label, pairs an answer reaches) per attacker move
        sa, sb = moves_a(x), moves_b(y)
        for label, x2 in sa:
            yield "left", label, [(x2, y2) for lab, y2 in sb if lab == label]
        for label, y2 in sb:
            yield "right", label, [(x2, y2) for lab, x2 in sa if lab == label]

    def value(answers):
        return 1 + max(map(depth, answers), default=0)

    def depth(pair):
        if same(*pair):
            return math.inf
        if pair not in memo:
            memo[pair] = min(value(answers) for _, _, answers in options(*pair))
        return memo[pair]

    pair, moves = (0, 0), []
    while (stuck := _unmatched(moves_a(pair[0]), moves_b(pair[1]))) is None:
        goal = depth(pair)
        side, label, answers = next(o for o in options(*pair) if value(o[2]) == goal)
        moves.append((side, label))
        pair = min(answers, key=depth)
    side, label = stuck
    return GameWitness(
        tuple(moves) + (stuck,),
        stuck_side="right" if side == "left" else "left",
        stuck_label=label,
        position=(states_a[pair[0]], states_b[pair[1]]),
    )


# ---------------------------------------------------------------------------
# pomset trace equivalence
# ---------------------------------------------------------------------------


def pomset_trace_equiv(sa: EventStructure, sb: EventStructure = None, *, witness=False):
    """Equality of the sets of configuration pomsets, compared size by size
    once per pair (`Pair.codes_agree`); only a witness reads the full sets."""
    pair = Pair.of(sa, sb)
    ma, mb = pair.ma, pair.mb
    if pair.codes_agree:
        return (True, None) if witness else True
    if not witness:
        return False
    for side, m, other in (("left", ma, mb), ("right", mb, ma)):
        only = [x for x in m.configurations if m.code(x) not in other.codes]
        if only:
            return False, PomsetWitness(side=side, configuration=min(only))


# ---------------------------------------------------------------------------
# history preserving family
# ---------------------------------------------------------------------------


class Pair:
    """One memo per side, plus what ib, sb, pb, pt, whb, hb and hhb share,
    each computed on first use: the two-round gate per mode, the code
    comparison, whb's classes and the configuration pairs they relate, and
    one set of triples.  whb, hb and hhb read one gate, `whb_classes`, and
    hold none of their own.  The triples start as the universe; hb prunes
    them in place, hhb a copy.  Both starts reach hhb's fixpoint: every hhb
    bisimulation is an hb one, and pruning is monotone.  A pair lives for
    one `check` or `full_matrix` call."""

    def __init__(self, ma: Semantics, mb: Semantics):
        self.ma, self.mb = ma, mb
        self.gates = {}  # mode -> (`two_rounds_agree`, the `_two_rounds` test it built)

    def two_rounds_agree(self, mode):
        """Whether the roots agree for two rounds of the bisimulation game in
        `mode` (`_two_rounds`), read without a class pass, once both sides
        pass `semantics._refuse`; one memo agrees with itself unread.  In
        the pomset mode every configuration is one move from the root, so
        a second round would read the whole system: only the roots' labels,
        the nonempty configurations' codes, are compared (`codes_agree`).
        The verdict is made once per mode and kept in `gates`, with the
        `_two_rounds` test it built, unread in the pomset mode, for a
        witness line."""
        gate = self.gates.get(mode)
        if gate is None:
            ma, mb = self.ma, self.mb
            _refuse(ma.s, mode)
            _refuse(mb.s, mode)
            same = _two_rounds(lambda i: ma.moves(i, mode), lambda i: mb.moves(i, mode))
            agree = ma is mb or (self.codes_agree if mode == MODE_POMSET else same(0, 0))
            gate = self.gates[mode] = agree, same
        return gate[0]

    @classmethod
    def of(cls, sa, sb=None):
        """`sa` itself if it is already a pair, else a pair of memos of `sa`
        and `sb`; a structure compared with itself gets one memo."""
        if isinstance(sa, cls):
            return sa
        if sb is None:
            raise TypeError("two structures or memos are needed, or one Pair")
        ma = Semantics.of(sa)
        return cls(ma, ma if sb == sa else Semantics.of(sb))

    @cached_property
    def codes_agree(self):
        """Whether the two memos' configurations have the same pomset codes.
        A code fixes its poset's size, so the sets are equal iff they are
        equal size by size (`Semantics.sized_codes`): the sizes are compared
        in order, after the largest, and no configuration past the first
        size that differs is coded.  Both sides' configurations are listed
        first, left then right.  One memo on both sides agrees with itself."""
        ma, mb = self.ma, self.mb
        if ma is mb:
            return True
        top = ma.configurations[-1].bit_count()
        if top != mb.configurations[-1].bit_count():
            return False
        return all(ma.sized_codes(k) == mb.sized_codes(k) for k in range(top + 1))

    @cached_property
    def whb_classes(self):
        """Class ids of both sides' interleaving states under one table, each
        state tagged with the pomset code of its configuration, when whb
        holds; else None.  It fails with no class pass when the interleaving
        roots disagree within two rounds (`two_rounds_agree`), since whb's
        answers are interleaving moves too, or when the code sets differ
        (`codes_agree`): the attacker then plays the interleaving path to a
        configuration whose pomset the other side lacks.  Otherwise one rank
        pass over both memos' moves gives equal ids iff whb relates the two
        states, and whb holds iff the roots' ids are equal."""
        if not (self.two_rounds_agree(MODE_INTERLEAVING) and self.codes_agree):
            return None
        table, cls = {}, []
        for m in (self.ma, self.mb):
            states = m.configurations
            cls.append(_classes(
                lambda i: m.moves(i, MODE_INTERLEAVING), len(states), table,
                lambda v: table.setdefault(m.code(states[v]), len(table)),
            ))
        return tuple(cls) if cls[0][0] == cls[1][0] else None

    @cached_property
    def whb_pairs(self):
        """The sorted (X, Y) configuration pairs that whb relates, listed
        from `whb_classes` for a witness or the triples; () when whb fails."""
        ca, cb = self.whb_classes or ((), ())
        return _class_pairs(self.ma.configurations, ca, self.mb.configurations, cb)

    @cached_property
    def triples(self):
        """The triples (X, Y, f) with whb relating X and Y (`whb_pairs`) and
        f an isomorphism poset(X) -> poset(Y), stored as the tuple of images
        of X's events in ascending id order; hb's survivors once hb has run.

        The (X, Y) pairs of any history preserving bisimulation form a whb
        bisimulation, so no member of the hb or hhb fixpoint is missing.
        Raises `SizeLimit` as soon as there are more than `MAX_TRIPLES`.
        """
        ma, mb = self.ma, self.mb
        triples = set()
        for x, y in self.whb_pairs:
            for ftuple in _enumerate_isos(ma.s, mb.s, x, y):
                triples.add((x, y, ftuple))
                if len(triples) > MAX_TRIPLES:
                    raise SizeLimit(f"at least {len(triples)} history-preserving triples; "
                                    f"limit is {MAX_TRIPLES}")
        return triples


def whb_equiv(sa: EventStructure, sb: EventStructure = None, *, witness=False):
    """Weak history preserving bisimilarity.

    Bisimilarity of the interleaving systems through configuration pairs
    with isomorphic posets: it holds iff `Pair.whb_classes` is not None,
    and the pairs of equal class (`Pair.whb_pairs`) are listed only for the
    witness.  The pass behind the classes runs only when neither the
    interleaving roots' first two rounds nor the code sets refute whb.
    """
    pair = Pair.of(sa, sb)
    related = pair.whb_classes is not None
    if not witness:
        return related
    kind = "weak-history-bisimulation"
    return related, (RelationWitness(kind=kind, members=pair.whb_pairs) if related else None)


def _enumerate_isos(sa, sb, x, y):
    """Every label- and order-preserving bijection from configuration x of
    sa onto y of sb, as the tuple of images of x's events in id order.

    Events are matched in causal-depth order, so a candidate's predecessor
    set (inside x, which is downward closed) is fully mapped when it is
    examined; requiring its image to be the predecessor set of the match
    exactly captures order preservation both ways.
    """
    xe = list(_bits(x))
    xs = sorted(xe, key=lambda e: (sa.down[e].bit_count(), e))
    y_by_label = defaultdict(list)
    for f in _bits(y):
        y_by_label[sb.labels[f]].append(f)
    mapping = {}
    used = set()

    def rec(i):
        if i == len(xs):
            yield tuple(mapping[e] for e in xe)
            return
        e = xs[i]
        want = 0
        for p in _bits(sa.down[e]):
            want |= 1 << mapping[p]
        for f in y_by_label.get(sa.labels[e], ()):
            if f in used or sb.down[f] != want:
                continue
            mapping[e] = f
            used.add(f)
            yield from rec(i + 1)
            used.discard(f)
            del mapping[e]

    return rec(0)


def _insert_image(x, ftuple, e, f):
    pos = (x & ((1 << e) - 1)).bit_count()
    return ftuple[:pos] + (f,) + ftuple[pos:]


def _remove_image(x, ftuple, e):
    pos = (x & ((1 << e) - 1)).bit_count()
    return ftuple[:pos] + ftuple[pos + 1 :]


def _hp_fixpoint(pair: Pair, hereditary, *, witness=False):
    """hb's (or hhb's) greatest fixpoint, pruned from the pair's triples: in
    place for hb, from a copy for hhb.  Pruning stops once the roots' triple
    is dead, so the triples left may exceed the fixpoint, never miss it.

    A move e on the left is answered by f on the right iff the triple
    extended by e -> f is alive.  Membership alone decides it: every live
    triple is in `Pair.triples`, which holds only isomorphisms, so e and f
    have equal labels and the extended map takes e's causes onto f's.  No
    label and no cause row is read; `up` is read only for hhb's backward
    moves, which remove an event maximal in poset(X)."""
    ma, mb = pair.ma, pair.mb
    up = ma.s.up
    alive = set(pair.triples) if hereditary else pair.triples
    en_a, en_b = ma.enabled, mb.enabled
    root = (0, 0, ())

    def ok(triple):
        x, y, ftuple = triple

        def match(e, f):  # e and f extend the triple to a live one
            return (x | 1 << e, y | 1 << f, _insert_image(x, ftuple, e, f)) in alive

        if not all(any(match(e, f) for f in en_b[y]) for e in en_a[x]):
            return False
        if not all(any(match(e, f) for e in en_a[x]) for f in en_b[y]):
            return False
        if hereditary:
            for pos, e in enumerate(_bits(x)):
                if up[e] & x:
                    continue  # not maximal in poset(X)
                sub = (x & ~(1 << e), y & ~(1 << ftuple[pos]), _remove_image(x, ftuple, e))
                if sub not in alive:
                    return False
        return True

    while root in alive:
        dead = [m for m in alive if not ok(m)]
        if not dead:
            break
        alive.difference_update(dead)
    verdict = root in alive
    if not witness:
        return verdict
    if verdict:
        kind = "hereditary-history-bisimulation" if hereditary else "history-bisimulation"
        return True, RelationWitness(kind=kind, members=tuple(sorted(alive)))
    return False, None


def hb_equiv(sa: EventStructure, sb: EventStructure = None, *, witness=False):
    """History preserving bisimilarity: isomorphisms must grow along the play."""
    return _hp_fixpoint(Pair.of(sa, sb), hereditary=False, witness=witness)


def hhb_equiv(sa: EventStructure, sb: EventStructure = None, *, witness=False):
    """Hereditary history preserving bisimilarity: also closed under
    single-event backtracking on both sides."""
    return _hp_fixpoint(Pair.of(sa, sb), hereditary=True, witness=witness)


def _iso(ma: Semantics, mb: Semantics, *, witness=False):
    ok, mapping = isomorphic(ma.s, mb.s)
    if not witness:
        return ok
    return ok, (IsoWitness(tuple(sorted(mapping.items()))) if ok else None)


# ---------------------------------------------------------------------------
# dispatch and the full matrix
# ---------------------------------------------------------------------------

#: relations decided on one mode's moves per side: trace equivalence for it
#: and st, bisimulation for the others
_MODE_OF = {
    Relation.IT: MODE_INTERLEAVING,
    Relation.IB: MODE_INTERLEAVING,
    Relation.ST: MODE_STEP,
    Relation.SB: MODE_STEP,
    Relation.PB: MODE_POMSET,
}

#: the relations of `_MODE_OF` decided by bisimulation, so by root class
_BY_BISIM = (Relation.IB, Relation.SB, Relation.PB)

#: relations decided on the pair.  Each decider is looked up by name when
#: called, so a wrapper put in this module's globals sees every call.
_ON_MEMOS = {
    Relation.PT: lambda pair, w: pomset_trace_equiv(pair, witness=w),
    Relation.WHB: lambda pair, w: whb_equiv(pair, witness=w),
    Relation.HB: lambda pair, w: hb_equiv(pair, witness=w),
    Relation.HHB: lambda pair, w: hhb_equiv(pair, witness=w),
    Relation.ISO: lambda pair, w: _iso(pair.ma, pair.mb, witness=w),
}


def check(rel: Relation, sa: EventStructure, sb: EventStructure = None, *, witness=False):
    """Decide one relation between two structures (or memos of them, or
    one `Pair`).

    No relation builds a transition system: each reads the memos' moves,
    and makes every one, or reads a full set of pomset codes, only when
    its verdict cannot be had without it.  it and st run one subset search
    (`_trace_search`), which makes the moves of only the configurations it
    reaches and stops at the first label one side lacks.  For ib, sb and
    pb `Pair.two_rounds_agree` comes first: where the attacker wins within
    two moves (one for pb) the verdict is False, no class pass runs, and
    the witness is `_bisim_line` with the gate's `_two_rounds` test as its
    class test.
    whb, hb and hhb read one gate (`Pair.whb_classes`): all three fail at
    once, with no class pass or triple, when the interleaving roots
    disagree within two rounds or the code sets differ; else whb's classes
    pick hb's and hhb's triples."""
    pair = Pair.of(sa, sb)
    ma, mb = pair.ma, pair.mb
    mode = _MODE_OF.get(rel)
    if mode is not None:
        moves_a, moves_b = (lambda i: ma.moves(i, mode)), (lambda i: mb.moves(i, mode))
        if rel not in _BY_BISIM:
            return _trace_search(moves_a, moves_b, witness)
        if pair.two_rounds_agree(mode):
            return _bisim(moves_a, moves_b, ma.configurations, mb.configurations, mode, witness)
        if not witness:
            return False
        same = pair.gates[mode][1]  # never read in the pomset mode
        return False, _bisim_line(moves_a, moves_b, ma.configurations, mb.configurations, same)
    if rel not in _ON_MEMOS:
        raise ValueError(f"unknown relation {rel!r}")
    return _ON_MEMOS[rel](pair, witness)


@dataclass(frozen=True)
class VerdictMatrix:
    """Verdicts of all ten relations for one pair of structures."""

    verdicts: dict
    witnesses: dict = field(default_factory=dict)

    def __getitem__(self, rel: Relation) -> bool:
        return self.verdicts[rel]

    def bits(self) -> str:
        return "".join("1" if self.verdicts[r] else "0" for r in MATRIX_ORDER)

    def render(self) -> str:
        lines = []
        for rel in MATRIX_ORDER:
            mark = "yes" if self.verdicts[rel] else "no"
            lines.append(f"{rel.value:>4}  {mark}")
        return "\n".join(lines)


def full_matrix(sa: EventStructure, sb: EventStructure, *, witness=False) -> VerdictMatrix:
    """Run all ten checks and assert consistency with the proven inclusions."""
    pair = Pair.of(sa, sb)
    results = {rel: check(rel, pair, witness=witness) for rel in MATRIX_ORDER}
    if witness:
        verdicts = {rel: ok for rel, (ok, _) in results.items()}
        witnesses = {rel: wit for rel, (_, wit) in results.items()}
    else:
        verdicts, witnesses = results, {}
    for fine, coarse in INCLUSION_ARROWS:
        if verdicts[fine] and not verdicts[coarse]:
            raise SpectrumViolation(
                f"{fine.value} holds but {coarse.value} does not; "
                f"verdicts {verdicts!r}"
            )
    return VerdictMatrix(verdicts=verdicts, witnesses=witnesses)
