"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact: verdicts are booleans, languages and counts are
discrete, and random corpora are fixed by seed.  Expected runtime is
dominated by the exhaustive search criterion (a few minutes).
"""

import random

from esequiv.algebra import from_expr
from esequiv.equivalences import Relation, bisim, full_matrix, trace_equiv
from esequiv.errors import NoPairFound
from esequiv.formats import dumps_es, export_dot, loads_es
from esequiv.search import SearchSpec, find_minimal_pairs, source_deleted_multiset
from esequiv.semantics import (
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    build_lts,
    configurations,
    has_autoconcurrency,
    poset_of,
    trace_language,
)
from esequiv.spectrum import (
    DIAGRAMS,
    CorpusSpec,
    builtin_fixtures,
    corpus_pairs,
    verify_spectrum,
)
from esequiv.structure import build, canonical_form, isomorphic

from conftest import random_structure
from oracles import o_matrix

R = Relation


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def test_c1_fixture_exactness():
    """Every curated pair reproduces its frozen verdict matrix bit for bit."""
    failures = []
    for fx in builtin_fixtures():
        got = full_matrix(fx.left, fx.right).verdicts
        if got != fx.expected:
            failures.append(fx.name)
    # the two language-level claims tied to the trace fixtures
    stuck = trace_language(build_lts(from_expr("a + (a||a)"), MODE_INTERLEAVING))
    if {"".join(w) for w in stuck} != {"", "a", "aa"}:
        failures.append("common-trace-set")
    thirteen = {
        "", "a", "b", "ab", "ba", "aba", "abb", "baa", "bab",
        "abab", "abba", "baab", "baba",
    }
    for expr in ("(a||b);(a||b)", "(a;b)||(b;a)"):
        words = trace_language(build_lts(from_expr(expr), MODE_INTERLEAVING))
        if {"".join(w) for w in words} != thirteen:
            failures.append("thirteen-word-language")
    _report("1 fixture-exactness", not failures, ",".join(failures))


def test_c2_spectrum_property_suites():
    """Zero diagram violations over 500 seeded pairs per class, plus the
    two conditional collapses on filtered corpora."""
    problems = []

    def check_class(name, specs):
        pairs = []
        for spec in specs:
            pairs.extend(corpus_pairs(spec))
        report = verify_spectrum(pairs, DIAGRAMS[name])
        if report.violations:
            problems.append(f"{name}:{len(report.violations)} violations")
        return report

    check_class(
        "pes",
        [CorpusSpec(structure_class="pes", count=500, max_events=10, alphabet=3, seed=21)],
    )
    check_class(
        "cs",
        [
            CorpusSpec(structure_class="cs", count=250, max_events=8, alphabet=1, seed=22),
            CorpusSpec(structure_class="cs", count=250, max_events=8, alphabet=3, seed=23),
        ],
    )
    check_class(
        "ees",
        [CorpusSpec(structure_class="ees", count=500, max_events=10, alphabet=2, seed=24)],
    )

    # single-label conflict-free corpora: trace and bisimulation verdicts
    # coincide and hold exactly on equal event counts
    for _, left, _, right in corpus_pairs(
        CorpusSpec(structure_class="ees", count=150, max_events=9, alphabet=1, seed=25)
    ):
        li = build_lts(left, MODE_INTERLEAVING)
        ri = build_lts(right, MODE_INTERLEAVING)
        it, ib = trace_equiv(li, ri), bisim(li, ri)
        if it != ib or it != (left.n == right.n):
            problems.append("single-label-ees-collapse")
            break

    # without autoconcurrency the two history-preserving variants coincide
    rng = random.Random(26)
    checked = 0
    while checked < 150:
        a = random_structure(rng, max_events=7, alphabet=2)
        b = random_structure(rng, max_events=7, alphabet=2)
        if has_autoconcurrency(a) or has_autoconcurrency(b):
            continue
        m = full_matrix(a, b)
        if m[R.HB] != m[R.WHB]:
            problems.append("hb-whb-collapse")
            break
        checked += 1

    _report("2 spectrum-property-suites", not problems, ",".join(problems))


def test_c3_oracle_equivalence():
    """All ten verdicts match the naive brute-force oracle on 200 pairs."""
    rng = random.Random(27)
    mismatches = 0
    for _ in range(200):
        a = random_structure(rng, max_events=5, alphabet=rng.choice([1, 2]))
        b = random_structure(rng, max_events=5, alphabet=rng.choice([1, 2]))
        if full_matrix(a, b).verdicts != o_matrix(a, b):
            mismatches += 1
    _report("3 oracle-equivalence", mismatches == 0, f"{mismatches} mismatches")


def test_c4_walkthrough_semantics():
    """The four-event choice-of-par-and-seq example behaves exactly as drawn."""
    s = from_expr("(a||b) + (a;b)")
    ok = True
    detail = []
    confs = sorted(configurations(s))
    want = sorted([0b0000, 0b0001, 0b0010, 0b0100, 0b0011, 0b1100])
    if confs != want:
        ok, detail = False, ["configurations"]
    lts = build_lts(s, MODE_INTERLEAVING)
    if len(lts.states) != 6 or len(lts.transitions) != 6:
        ok = False
        detail.append("interleaving-lts")
    steps = build_lts(s, MODE_STEP).transitions
    if (0, ("a", "b"), 0b0011) not in steps:
        ok = False
        detail.append("joint-step")
    poms = build_lts(s, MODE_POMSET).transitions
    chain_code = canonical_form(from_expr("a;b"))
    if (0, chain_code, 0b1100) not in poms:
        ok = False
        detail.append("chain-pomset-transition")
    if canonical_form(poset_of(s, 0b1100)) != chain_code:
        ok = False
        detail.append("chain-pomset-code")
    _report("4 walkthrough-semantics", ok, ",".join(detail))


def test_c5_search_rediscovery():
    """The single-label step-bisimilar/non-isomorphic search certifies sizes
    up to seven empty and rediscovers the known eight-event pair."""
    known_left = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 7), (5, 7), (3, 6), (4, 6)],
    )
    known_right = build(
        8,
        {i: "a" for i in range(8)},
        causes=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
    )

    def contains_known(pairs):
        for left, right in pairs:
            fwd = isomorphic(left, known_left)[0] and isomorphic(right, known_right)[0]
            rev = isomorphic(left, known_right)[0] and isomorphic(right, known_left)[0]
            if fwd or rev:
                return True
        return False

    problems = []
    res = find_minimal_pairs(
        SearchSpec(coarse=R.SB, fine=R.ISO, max_events=8, alphabet=1)
    )
    if res.size != 8:
        problems.append(f"first size {res.size}")
    if not contains_known(res.pairs):
        problems.append("known pair missing")
    if "sizes 1..7 exhausted" not in res.certificate():
        problems.append("certificate incomplete")

    sdm_res = find_minimal_pairs(
        SearchSpec(coarse=R.SB, fine=R.ISO, max_events=8, alphabet=1, sdm_filter=True)
    )
    if sdm_res.size != 8 or not contains_known(sdm_res.pairs):
        problems.append("sdm mode misses the pair")
    for left, right in sdm_res.pairs:
        if source_deleted_multiset(left) != source_deleted_multiset(right):
            problems.append("sdm criterion violated")

    # completeness cross-check: invariant bucketing changes nothing up to six
    for use in (True, False):
        try:
            find_minimal_pairs(
                SearchSpec(coarse=R.SB, fine=R.ISO, max_events=6, alphabet=1, use_filters=use)
            )
            problems.append(f"filters={use} found a small pair")
        except NoPairFound:
            pass

    _report("5 search-rediscovery", not problems, ",".join(problems))


def test_c6_round_trip_and_determinism():
    """File round-trips are the identity; reports and DOT are byte-stable."""
    problems = []
    rng = random.Random(28)
    for _ in range(1000):
        s = random_structure(rng, max_events=10, alphabet=rng.choice([1, 2, 3]))
        if loads_es(dumps_es(s)) != s:
            problems.append("round-trip")
            break

    spec = CorpusSpec(structure_class="cs", count=25, max_events=7, alphabet=2, seed=29)
    r1 = verify_spectrum(corpus_pairs(spec), DIAGRAMS["cs"])
    r2 = verify_spectrum(corpus_pairs(spec), DIAGRAMS["cs"])
    if r1.render() != r2.render() or r1.summary_table() != r2.summary_table():
        problems.append("report-determinism")

    sample = from_expr("(a||b) + (a;b)")
    for obj in (sample, build_lts(sample, MODE_STEP), build_lts(sample, MODE_POMSET)):
        if export_dot(obj) != export_dot(obj):
            problems.append("dot-determinism")

    rng2 = random.Random(30)
    structures = [random_structure(rng2, max_events=8) for _ in range(20)]
    for s in structures:
        if export_dot(s) != export_dot(s):
            problems.append("dot-structure-determinism")

    _report("6 round-trip-determinism", not problems, ",".join(problems))
