"""Canonical labeling of label-ranked two-relation graphs.

Computes a canonical byte encoding of a vertex-labelled structure with one
directed relation (causality, stored transitively closed) and one symmetric
relation (conflict).  Two inputs get equal encodings iff some bijection
preserves label ranks and both relations.

Algorithm: equitable colour refinement from the label partition, then
backtracking over individualizations of the first non-singleton cell,
taking the lexicographically least leaf encoding.  A cell of twins
(interchangeable vertices) is individualized in one step, in vertex order,
since all its branches are images of the first.  Leaves that tie with
the current best yield automorphisms, which prune sibling branches
(orbit pruning); pruning never changes the minimum.  This is
individualization-refinement as in McKay & Piperno, "Practical graph
isomorphism, II" (J. Symbolic Computation, 2014).
"""

from .errors import SizeLimit

KERNEL = "python"

#: the encoding writes the event count and each label rank as one byte
MAX_CANON_EVENTS = 255


def _refine(n, colors, down, up, cf):
    """Equitable refinement; returns a stable coloring refining `colors`.

    Cell order is determined by (old colour, neighbour-count signature),
    so isomorphic inputs refine to identically ordered partitions.
    """
    while True:
        k = max(colors) + 1
        if k == n:
            return colors
        cell = [0] * k
        for v in range(n):
            cell[colors[v]] |= 1 << v
        sigs = []
        for v in range(n):
            s = colors[v]
            dv, uv, cv = down[v], up[v], cf[v]
            for cm in cell:
                s = (
                    (s << 24)
                    | ((dv & cm).bit_count() << 16)
                    | ((uv & cm).bit_count() << 8)
                    | (cv & cm).bit_count()
                )
            sigs.append(s)
        uniq = sorted(set(sigs))
        if len(uniq) == k:
            return colors
        index = {s: i for i, s in enumerate(uniq)}
        colors = [index[s] for s in sigs]


def _individualize(colors, v):
    """Split v off as its own cell, placed just before the rest of its cell."""
    c = colors[v]
    return [
        col + 1 if (col > c or (col == c and u != v)) else col
        for u, col in enumerate(colors)
    ]


def _twins(members, down, up, cf):
    """Whether the cell `members` holds twins: equal causal neighbourhoods,
    equal conflicts outside the cell, and conflict among themselves either
    complete or empty.  Swapping two twins is then an automorphism that
    fixes every other vertex."""
    cell = 0
    for v in members:
        cell |= 1 << v
    first = members[0]
    outside = cf[first] & ~cell
    clique = bool(cf[first] & cell)
    for v in members:
        inside = cell & ~(1 << v) if clique else 0
        if down[v] != down[first] or up[v] != up[first] or cf[v] != outside | inside:
            return False
    return True


def _encode(n, perm, lranks, up, cf):
    """Encode the structure under the vertex order perm (position -> vertex):
    the event count, the label ranks, the causality matrix (row i, column j
    set iff position i causes position j), then the strict upper triangle of
    conflict, each bit block read row by row and zero-padded to whole
    bytes."""
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    top = n - 1
    order = conflict = 0
    for i, v in enumerate(perm):
        order = order << n | _row(up[v], pos, top)
        width = top - i  # columns i+1..n-1
        conflict = conflict << width | _row(cf[v], pos, top) & ((1 << width) - 1)
    out = bytearray([n])
    out += bytes(lranks[v] for v in perm)
    for block, bits in ((order, n * n), (conflict, n * top // 2)):
        size = (bits + 7) // 8
        out += (block << (8 * size - bits)).to_bytes(size, "big")
    return bytes(out)


def _row(mask, pos, top):
    """The vertices of mask as one row: position p at bit top - p, so the
    first position is the most significant bit."""
    row = 0
    while mask:
        low = mask & -mask
        row |= 1 << (top - pos[low.bit_length() - 1])
        mask ^= low
    return row


def canon_encode(n, lranks, down, cf):
    """Return (canonical encoding bytes, permutation position -> vertex)."""
    if n == 0:
        return b"\x00", []
    if n > MAX_CANON_EVENTS:
        raise SizeLimit(
            f"canonical encoding supports at most {MAX_CANON_EVENTS} events, got {n}"
        )
    up = [0] * n
    for v in range(n):
        m = down[v]
        while m:
            low = m & -m
            up[low.bit_length() - 1] |= 1 << v
            m ^= low
    rank_index = {r: i for i, r in enumerate(sorted(set(lranks)))}
    colors = _refine(n, [rank_index[r] for r in lranks], down, up, cf)

    best_enc = None
    best_perm = None
    gens = []  # discovered automorphisms, as full vertex maps

    def leaf(colors):
        nonlocal best_enc, best_perm
        perm = [0] * n
        for v in range(n):
            perm[colors[v]] = v
        enc = _encode(n, perm, lranks, up, cf)
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_perm = perm
        elif enc == best_enc:
            sigma = [0] * n
            for i in range(n):
                sigma[best_perm[i]] = perm[i]
            if any(sigma[v] != v for v in range(n)):
                gens.append(sigma)

    def orbit_reps(path):
        """Union-find over vertices, merged along generators fixing `path`."""
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in gens:
            if all(g[p] == p for p in path):
                for v in range(n):
                    a, b = find(v), find(g[v])
                    if a != b:
                        if a < b:
                            parent[b] = a
                        else:
                            parent[a] = b
        return find

    def rec(colors, path):
        k = max(colors) + 1
        if k == n:
            leaf(colors)
            return
        target = -1
        for c in range(k):
            if sum(1 for col in colors if col == c) >= 2:
                target = c
                break
        members = [v for v in range(n) if colors[v] == target]
        if _twins(members, down, up, cf):
            # every branch here is the image of the first under a swap of
            # twins, and individualizing a twin splits no other cell, so
            # take the first branch at each level in one step
            for v in members[:-1]:
                colors = _individualize(colors, v)
            rec(_refine(n, colors, down, up, cf), path + members[:-1])
            return
        explored = []
        gens_seen = -1
        find = None
        for v in members:
            if explored:
                if len(gens) != gens_seen:
                    find = orbit_reps(path)
                    gens_seen = len(gens)
                fv = find(v)
                if any(find(u) == fv for u in explored):
                    continue
            rec(_refine(n, _individualize(colors, v), down, up, cf), path + [v])
            explored.append(v)

    rec(colors, [])
    return best_enc, best_perm
