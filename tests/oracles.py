"""Naive reference implementations used to cross-check the package.

Everything here recomputes semantics from the raw relations with frozensets,
explicit subset enumeration, and permutation search: no bitmask tricks, no
canonical labeling kernel, no partition refinement.  Slow but obviously
faithful to the definitions; intended for structures with at most ~6 events.
"""

import itertools

from esequiv.equivalences import Relation


def events(s):
    return list(range(s.n))


def below(s, e):
    return {p for p in range(s.n) if (s.down[e] >> p) & 1}


def in_conflict(s, a, b):
    return bool((s.conflicts[a] >> b) & 1)


def ordered(s, a, b):
    return bool((s.down[b] >> a) & 1)


def concurrent(s, a, b):
    return a != b and not ordered(s, a, b) and not ordered(s, b, a) and not in_conflict(s, a, b)


def o_minimal_conflicts(s):
    """Sorted conflict pairs (a, b), a < b, such that no other conflict pair
    {x, y} has x at or below a and y at or below b, in either order."""
    pairs = [(a, b) for a in range(s.n) for b in range(a + 1, s.n) if in_conflict(s, a, b)]

    def at_or_below(e):
        return below(s, e) | {e}

    return [
        (a, b)
        for a, b in pairs
        if not any(
            (x, y) != (a, b)
            and (
                (x in at_or_below(a) and y in at_or_below(b))
                or (y in at_or_below(a) and x in at_or_below(b))
            )
            for x, y in pairs
        )
    ]


def o_configs(s):
    out = set()
    for r in range(s.n + 1):
        for combo in itertools.combinations(range(s.n), r):
            X = frozenset(combo)
            if any(in_conflict(s, a, b) for a in X for b in X if a < b):
                continue
            if any(not below(s, e) <= X for e in X):
                continue
            out.add(X)
    return out


def o_single_succ(s, X):
    out = []
    for e in range(s.n):
        if e in X:
            continue
        if below(s, e) <= X and not any(in_conflict(s, e, x) for x in X):
            out.append((s.labels[e], X | {e}))
    return out


def o_step_succ(s, X):
    free = [e for e in o_enabled(s, X)]
    out = []
    for r in range(1, len(free) + 1):
        for combo in itertools.combinations(free, r):
            if all(concurrent(s, a, b) for a in combo for b in combo if a < b):
                label = tuple(sorted(s.labels[e] for e in combo))
                out.append((label, X | set(combo)))
    return out


def o_enabled(s, X):
    return [e for _, Y in o_single_succ(s, X) for e in Y - X]


def o_poset_code(s, X):
    """Isomorphism-class key of the labelled poset on X: the minimum over
    vertex orders of the (labels, order-matrix) encoding."""
    xs = sorted(X)
    best = None
    for perm in itertools.permutations(xs):
        labels = tuple(s.labels[v] for v in perm)
        matrix = tuple(
            ordered(s, perm[i], perm[j]) for i in range(len(xs)) for j in range(len(xs))
        )
        cand = (labels, matrix)
        if best is None or cand < best:
            best = cand
    return best if best is not None else ((), ())


def o_pom_succ(s, X, configs):
    out = []
    for Y in configs:
        if X < Y:
            code = o_poset_code_sub(s, Y - X)
            out.append((code, Y))
    return out


def o_poset_code_sub(s, H):
    return o_poset_code(s, H)


def o_traces(s):
    out = set()

    def rec(X, word):
        out.add(word)
        for label, Y in o_single_succ(s, X):
            rec(Y, word + (label,))

    rec(frozenset(), ())
    return out


def o_step_traces(s):
    out = set()

    def rec(X, word):
        out.add(word)
        for label, Y in o_step_succ(s, X):
            rec(Y, word + (label,))

    rec(frozenset(), ())
    return out


def o_pomsets(s):
    return {o_poset_code(s, X) for X in o_configs(s)}


def o_iso(s, t):
    if s.n != t.n:
        return False
    for perm in itertools.permutations(range(t.n)):
        if all(s.labels[e] == t.labels[perm[e]] for e in range(s.n)) and all(
            ordered(s, a, b) == ordered(t, perm[a], perm[b])
            and in_conflict(s, a, b) == in_conflict(t, perm[a], perm[b])
            for a in range(s.n)
            for b in range(s.n)
            if a != b
        ):
            return True
    return False


def _o_bisim(succ_a, succ_b, pairs):
    alive = set(pairs)
    changed = True
    while changed:
        changed = False
        for X, Y in list(alive):
            ok = all(
                any(lab2 == lab and (X2, Y2) in alive for lab2, Y2 in succ_b(Y))
                for lab, X2 in succ_a(X)
            ) and all(
                any(lab2 == lab and (X2, Y2) in alive for lab2, X2 in succ_a(X))
                for lab, Y2 in succ_b(Y)
            )
            if not ok:
                alive.discard((X, Y))
                changed = True
    return (frozenset(), frozenset()) in alive


def o_ib(s, t):
    pa, pb = o_configs(s), o_configs(t)
    return _o_bisim(
        lambda X: o_single_succ(s, X),
        lambda Y: o_single_succ(t, Y),
        {(X, Y) for X in pa for Y in pb},
    )


def o_sb(s, t):
    pa, pb = o_configs(s), o_configs(t)
    return _o_bisim(
        lambda X: o_step_succ(s, X),
        lambda Y: o_step_succ(t, Y),
        {(X, Y) for X in pa for Y in pb},
    )


def o_pb(s, t):
    pa, pb = o_configs(s), o_configs(t)
    return _o_bisim(
        lambda X: o_pom_succ(s, X, pa),
        lambda Y: o_pom_succ(t, Y, pb),
        {(X, Y) for X in pa for Y in pb},
    )


def _poset_isos(s, t, X, Y):
    """All label- and order-preserving bijections X -> Y, as frozen item sets."""
    xs = sorted(X)
    out = []
    if len(X) != len(Y):
        return out
    for image in itertools.permutations(sorted(Y)):
        f = dict(zip(xs, image))
        if all(s.labels[a] == t.labels[f[a]] for a in xs) and all(
            ordered(s, a, b) == ordered(t, f[a], f[b]) for a in xs for b in xs if a != b
        ):
            out.append(frozenset(f.items()))
    return out


def o_whb_relation(s, t):
    """The greatest weak history preserving bisimulation: the configuration
    pairs with isomorphic posets that survive the transfer conditions."""
    pa, pb = o_configs(s), o_configs(t)
    code_b = {Y: o_poset_code(t, Y) for Y in pb}
    alive = set()
    for X in pa:
        code = o_poset_code(s, X)
        alive.update((X, Y) for Y in pb if code_b[Y] == code)
    changed = True
    while changed:
        changed = False
        for X, Y in list(alive):
            ok = all(
                any(l2 == l and (X2, Y2) in alive for l2, Y2 in o_single_succ(t, Y))
                for l, X2 in o_single_succ(s, X)
            ) and all(
                any(l2 == l and (X2, Y2) in alive for l2, X2 in o_single_succ(s, X))
                for l, Y2 in o_single_succ(t, Y)
            )
            if not ok:
                alive.discard((X, Y))
                changed = True
    return alive


def o_whb(s, t):
    return (frozenset(), frozenset()) in o_whb_relation(s, t)


def _o_hp(s, t, hereditary):
    pa, pb = o_configs(s), o_configs(t)
    alive = set()
    for X in pa:
        for Y in pb:
            for f in _poset_isos(s, t, X, Y):
                alive.add((X, Y, f))

    def extends(f2, f):
        return f <= f2

    changed = True
    while changed:
        changed = False
        for X, Y, f in list(alive):
            fd = dict(f)
            ok = True
            for l, X2 in o_single_succ(s, X):
                if not any(
                    X3 == X2 and extends(f3, f)
                    for X3, Y3, f3 in alive
                    if Y3 in {Y2 for l2, Y2 in o_single_succ(t, Y) if l2 == l}
                ):
                    ok = False
                    break
            if ok:
                for l, Y2 in o_single_succ(t, Y):
                    if not any(
                        Y3 == Y2 and extends(f3, f)
                        for X3, Y3, f3 in alive
                        if X3 in {X2 for l2, X2 in o_single_succ(s, X) if l2 == l}
                    ):
                        ok = False
                        break
            if ok and hereditary:
                for e in X:
                    X2 = X - {e}
                    if X2 in pa and all(not ordered(s, e, x) for x in X2):
                        sub = (
                            frozenset(X2),
                            frozenset(fd[x] for x in X2),
                            frozenset((x, fd[x]) for x in X2),
                        )
                        if sub not in alive:
                            ok = False
                            break
                if ok:
                    inv = {v: k for k, v in fd.items()}
                    for ee in Y:
                        Y2 = Y - {ee}
                        if Y2 in pb and all(not ordered(t, ee, y) for y in Y2):
                            sub = (
                                frozenset(inv[y] for y in Y2),
                                frozenset(Y2),
                                frozenset((inv[y], y) for y in Y2),
                            )
                            if sub not in alive:
                                ok = False
                                break
            if not ok:
                alive.discard((X, Y, f))
                changed = True
    return (frozenset(), frozenset(), frozenset()) in alive


def o_hb(s, t):
    return _o_hp(s, t, hereditary=False)


def o_hhb(s, t):
    return _o_hp(s, t, hereditary=True)


def o_matrix(s, t):
    return {
        Relation.IT: o_traces(s) == o_traces(t),
        Relation.ST: o_step_traces(s) == o_step_traces(t),
        Relation.PT: o_pomsets(s) == o_pomsets(t),
        Relation.IB: o_ib(s, t),
        Relation.SB: o_sb(s, t),
        Relation.PB: o_pb(s, t),
        Relation.WHB: o_whb(s, t),
        Relation.HB: o_hb(s, t),
        Relation.HHB: o_hhb(s, t),
        Relation.ISO: o_iso(s, t),
    }


# ---------------------------------------------------------------------------
# bisimulation game witnesses, replayed on the transition systems
# ---------------------------------------------------------------------------


def _lts_succ(lts):
    succ = {m: [] for m in lts.states}
    for src, label, dst in lts.transitions:
        succ[src].append((label, dst))
    return succ


def o_distinguishing_depth(la, lb):
    """Fewest moves the attacker needs to win the bisimulation game from the
    roots (None when the systems are bisimilar): the least k for which the
    roots are not k-step bisimilar, found round by round over all pairs."""
    succ_a, succ_b = _lts_succ(la), _lts_succ(lb)
    alive = {(x, y) for x in la.states for y in lb.states}
    root = (la.states[0], lb.states[0])
    k = 0
    while root in alive:
        nxt = {
            (x, y)
            for x, y in alive
            if all(
                any(lab2 == lab and (x2, y2) in alive for lab2, y2 in succ_b[y])
                for lab, x2 in succ_a[x]
            )
            and all(
                any(lab2 == lab and (x2, y2) in alive for lab2, x2 in succ_a[x])
                for lab, y2 in succ_b[y]
            )
        }
        if nxt == alive:
            return None
        alive = nxt
        k += 1
    return k


def game_witness_problems(la, lb, wit):
    """Replay a GameWitness on the two systems; return what is wrong with it.

    Every move but the last is a move of the attacker's side answered by the
    other side with the same label; `position` must be reachable that way;
    there the last move exists for the attacker and `stuck_side` has no move
    with `stuck_label`; and the line is no longer than the roots'
    distinguishing depth.
    """
    succ = {"left": _lts_succ(la), "right": _lts_succ(lb)}
    if not wit.moves:
        return ["no moves"]
    *answered, (last_side, last_label) = wit.moves
    reach = {(la.states[0], lb.states[0])}
    for i, (side, label) in enumerate(answered):
        reach = {
            (x2, y2)
            for x, y in reach
            for lab_x, x2 in succ["left"][x]
            if lab_x == label
            for lab_y, y2 in succ["right"][y]
            if lab_y == label
        }
        if not reach:
            return [f"move {i} ({side}, {label!r}) cannot be played and answered"]
    problems = []
    if wit.position not in reach:
        problems.append(f"position {wit.position} is not reached by the moves")
    x, y = wit.position
    here = {"left": x, "right": y}
    if {last_side, wit.stuck_side} != {"left", "right"}:
        problems.append(f"stuck side {wit.stuck_side} is the side that moved last")
    elif last_label != wit.stuck_label:
        problems.append("the last move is not the stuck label")
    elif not any(lab == last_label for lab, _ in succ[last_side].get(here[last_side], ())):
        problems.append("the last move does not exist at the position")
    elif any(lab == last_label for lab, _ in succ[wit.stuck_side].get(here[wit.stuck_side], ())):
        problems.append("the stuck side can answer the last move")
    depth = o_distinguishing_depth(la, lb)
    if depth is None or len(wit.moves) > depth:
        problems.append(f"{len(wit.moves)} moves against distinguishing depth {depth}")
    return problems
