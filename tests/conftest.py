import random

import pytest

from esequiv.algebra import from_expr
from esequiv.structure import build

#: labels the label grammar accepts although they look odd
ODD_LABELS = ("a.b", "τ", "x:y", "0", "[]", "é", "日本", "a-b_c", '"q"', "\\", "a|b")


@pytest.fixture(scope="session")
def ex22():
    """Four events: a||b in conflict with a;b."""
    return from_expr("(a||b) + (a;b)")


@pytest.fixture(scope="session")
def pair_st_not_ib():
    """Four-event conflict-free pair: step-trace equivalent, not bisimilar.

    The left structure is not expressible in the algebra (one a below both
    b's, the other below one)."""
    left = build(4, {0: "a", 1: "a", 2: "b", 3: "b"}, causes=[(0, 2), (0, 3), (1, 3)])
    right = build(4, {0: "a", 1: "a", 2: "b", 3: "b"}, causes=[(0, 2), (1, 3)])
    return left, right


@pytest.fixture(scope="session")
def pair_sb_not_whb():
    """Eight-event single-label conflict-free pair: step bisimilar, not
    weak-history bisimilar (and not isomorphic)."""
    left = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 7), (5, 7), (3, 6), (4, 6)],
    )
    right = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
    )
    return left, right


def random_structure(rng: random.Random, max_events=6, alphabet=2, classes=("pes", "cs", "ees")):
    """Small random structure for property tests; uses the corpus generator."""
    from esequiv.spectrum import CorpusSpec, generate_corpus

    spec = CorpusSpec(
        structure_class=rng.choice(classes),
        count=1,
        max_events=max_events,
        alphabet=alphabet,
        seed=rng.randrange(1 << 30),
    )
    return generate_corpus(spec)[0]
