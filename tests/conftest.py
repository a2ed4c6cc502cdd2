import random

import pytest

from esequiv.algebra import from_expr

#: labels the label grammar accepts although they look odd
ODD_LABELS = ("a.b", "τ", "x:y", "0", "[]", "é", "日本", "a-b_c", '"q"', "\\", "a|b")


@pytest.fixture(scope="session")
def ex22():
    """Four events: a||b in conflict with a;b."""
    return from_expr("(a||b) + (a;b)")


def _fixture_pair(name):
    """The (left, right) structures of the curated fixture called `name`."""
    from esequiv.spectrum import builtin_fixtures

    fx = next(fx for fx in builtin_fixtures() if fx.name == name)
    return fx.left, fx.right


@pytest.fixture(scope="session")
def pair_st_not_ib():
    """Four-event conflict-free pair: step-trace equivalent, not bisimilar.

    The left structure is not expressible in the algebra (one a below both
    b's, the other below one)."""
    return _fixture_pair("st-not-ib-ees")


@pytest.fixture(scope="session")
def pair_sb_not_whb():
    """Eight-event single-label conflict-free pair: step bisimilar, not
    weak-history bisimilar (and not isomorphic)."""
    return _fixture_pair("sb-not-whb-ees")


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
