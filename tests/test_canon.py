"""Kernel-level properties: exactness under symmetry."""

import hashlib
import random

import pytest

from esequiv import canon
from esequiv.algebra import from_expr
from esequiv.errors import SizeLimit
from esequiv.search import _poset_levels, enumerate_posets
from esequiv.spectrum import CorpusSpec, builtin_fixtures, corpus_pairs
from esequiv.structure import (
    EventStructure,
    _labelled_canon,
    build,
    canonical_form,
    isomorphic,
)


def _shuffled(s, rng):
    """`s` with its events renumbered at random."""
    new = list(range(s.n))
    rng.shuffle(new)
    return build(
        s.n,
        {new[e]: s.labels[e] for e in range(s.n)},
        [(new[a], new[b]) for a, b in s.causality_pairs()],
        [(new[a], new[b]) for a, b in s.conflict_pairs()],
    )


def _is_isomorphism(s, t, mapping):
    """`mapping` is a bijection s -> t preserving labels, causality and conflict."""
    if sorted(mapping) != list(range(s.n)) or sorted(mapping.values()) != list(range(t.n)):
        return False
    return all(
        s.labels[a] == t.labels[mapping[a]]
        and ((s.down[b] >> a) & 1) == ((t.down[mapping[b]] >> mapping[a]) & 1)
        and ((s.conflicts[b] >> a) & 1) == ((t.conflicts[mapping[b]] >> mapping[a]) & 1)
        for a in range(s.n)
        for b in range(s.n)
    )


def test_symmetric_inputs_shuffled():
    # large automorphism groups exercise the orbit pruning: antichains of
    # 1..8 events, three disjoint identical chains, and conflict forming two
    # triangles and a hexagon, whose first cell after refinement holds two
    # orbits; and the twin cells: wide antichains, conflict cliques, and
    # cliques of twins beside other events
    cases = [build(n, ["a"] * n) for n in range(1, 9)]
    cases += [build(n, ["a"] * n) for n in (20, 40)]
    cases += [from_expr("+".join(["a"] * n)) for n in (2, 5, 20)]
    cases.append(from_expr("(a;b) || (" + "+".join(["a"] * 6) + ")"))
    cases.append(from_expr("b;(" + "||".join(["a"] * 9) + ")"))
    cases.append(build(6, ["a"] * 6, [(0, 3), (1, 4), (2, 5)]))
    cycles = ((0, 1, 2), (3, 4, 5), (6, 7, 8, 9, 10, 11))
    conflicts = [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    cases.append(build(12, ["a"] * 12, (), conflicts))
    rng = random.Random(41)
    for s in cases:
        for _ in range(5):
            t = _shuffled(s, rng)
            assert canonical_form(t) == canonical_form(s)
            ok, mapping = isomorphic(s, t)
            assert ok and _is_isomorphism(s, t, mapping)


def test_empty_structure_code_unique():
    assert canonical_form(build(0, {})) == canonical_form(build(0, {}))


def test_four_event_single_label_classes():
    # distinct canonical forms over all one-label posets on four events
    forms = {canonical_form(s) for s in enumerate_posets(4, 1)}
    assert len(forms) == 16


def test_event_bound_is_a_size_limit():
    # canon's own check, on a structure `build` would refuse
    antichain = EventStructure(labels=("a",) * 256, down=(0,) * 256, conflicts=(0,) * 256)
    with pytest.raises(SizeLimit, match="at most 255 events"):
        canonical_form(antichain)
    with pytest.raises(SizeLimit, match="^structure has 256 events; limit is 255$"):
        build(256, ["a"] * 256)


def test_antichain_twins_individualized_at_once(monkeypatch):
    # the 30 events are twins: one refinement of the label partition, and
    # one after all of them but the last are individualized at once
    calls = []
    refine = canon._refine

    def counting(*args):
        calls.append(args)
        if len(calls) > 2:
            raise AssertionError("more than 2 refinements of a 30-event antichain")
        return refine(*args)

    monkeypatch.setattr(canon, "_refine", counting)
    canonical_form(build(30, ["a"] * 30))
    assert len(calls) == 2


#: sha256 over the (encoding, permutation) of every input of
#: `test_canonical_bytes_are_pinned`; the encodings order search levels and
#: certificates, and the permutations reach every `IsoWitness`
CANON_DIGEST = "8644ce021fa00b09d02fd94f3700cb25f4b2009ff0e877631ca4f66c5084a0dd"


def test_canonical_bytes_are_pinned():
    inputs = [s for level in _poset_levels(6, 2) for s in level]
    inputs += [s for fx in builtin_fixtures() for s in (fx.left, fx.right)]
    corpus = corpus_pairs(CorpusSpec("pes", 50, 8, alphabet=2, seed=1))
    inputs += [s for _, left, _, right in corpus for s in (left, right)]
    digest = hashlib.sha256()
    for s in inputs:
        enc, perm = _labelled_canon(s.labels, s.down, s.conflicts)
        digest.update(len(enc).to_bytes(4, "big") + enc + bytes(perm))
    assert len(inputs) == 16_791 + 2 * len(builtin_fixtures()) + 100
    assert digest.hexdigest() == CANON_DIGEST
