"""Command-line front end.

Exit codes: 0 success / related; 1 not related, fixture mismatch, spectrum
violation, or empty search; 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from . import __version__
from .algebra import from_expr
from .equivalences import MATRIX_ORDER, GameWitness, Relation, check, full_matrix
from .errors import EsError, NoPairFound
from .formats import dumps_es, export_dot, lts_label_text, read_es, write_es
from .semantics import (
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    build_lts,
    config_text,
    configurations,
)
from .search import SearchSpec, find_minimal_pairs
from .spectrum import DIAGRAMS, CorpusSpec, builtin_fixtures, corpus_pairs, verify_spectrum
from .structure import classify, pomset_code_text

_MODE_BY_FLAG = {"i": MODE_INTERLEAVING, "s": MODE_STEP, "p": MODE_POMSET}

#: the names `search` writes its pairs under: pair_*_left.es, pair_*_right.es
_PAIR_FILE = re.compile(r"pair_.*_(left|right)\.es")


def _add_inputs(parser, count):
    # one list for both flags keeps the inputs in command-line order
    parser.add_argument("--expr", dest="inputs", action="append",
                        type=lambda v: (from_expr, v), help="algebra expression input")
    parser.add_argument("--file", dest="inputs", action="append",
                        type=lambda v: (read_es, v), help=".es file input")
    parser.set_defaults(inputs=[], expected_inputs=count)


def _get_inputs(args):
    if len(args.inputs) != args.expected_inputs:
        raise EsError(
            f"expected {args.expected_inputs} input(s) via --expr/--file, "
            f"got {len(args.inputs)}"
        )
    return [load(value) for load, value in args.inputs]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="esequiv",
        description="Build, inspect, and compare finite labelled prime event structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure and print its summary")
    _add_inputs(p, 1)

    p = sub.add_parser("show", help="print a structure as .es text or DOT")
    _add_inputs(p, 1)
    p.add_argument("--dot", action="store_true", help="emit a Hasse-diagram DOT graph")

    p = sub.add_parser("lts", help="print a transition system")
    _add_inputs(p, 1)
    p.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default="i")
    p.add_argument("--dot", action="store_true", help="emit the configuration graph as DOT")

    p = sub.add_parser("check", help="decide one relation between two structures")
    p.add_argument("relation", choices=[r.value for r in MATRIX_ORDER])
    _add_inputs(p, 2)
    p.add_argument("--witness", action="store_true", help="print a witness or distinguisher")

    p = sub.add_parser("matrix", help="all ten verdicts for a pair")
    _add_inputs(p, 2)

    p = sub.add_parser("fixtures", help="run the curated pairs against their expected verdicts")

    p = sub.add_parser("spectrum", help="verify a diagram on a random corpus")
    p.add_argument("--class", dest="structure_class", choices=sorted(DIAGRAMS), required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--table", action="store_true", help="also print the per-pair verdict table")

    p = sub.add_parser("search", help="smallest pairs separating two relations")
    p.add_argument("--coarse", choices=[r.value for r in MATRIX_ORDER], required=True)
    p.add_argument("--fine", choices=[r.value for r in MATRIX_ORDER], required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--labels", type=int, default=1)
    p.add_argument("--sdm-filter", action="store_true",
                   help="additionally require equal source-deleted subgraph multisets")
    p.add_argument("--no-filters", action="store_true",
                   help="disable invariant bucketing (for cross-checks)")
    p.add_argument("--out", default="search_out", help="directory for .es pairs and certificate")
    return parser


def _cmd_validate(args):
    s = _get_inputs(args)[0]
    n_configurations = len(configurations(s))  # may raise SizeLimit: print nothing first
    tags = sorted(tag.value for tag in classify(s))
    counts = {}
    for label in s.labels:
        counts[label] = counts.get(label, 0) + 1
    print(f"events: {s.n}")
    print("labels:", " ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "-")
    print("classes:", " ".join(tags))
    print(f"causality pairs (strict, closed): {sum(m.bit_count() for m in s.down)}")
    print(f"conflict pairs (unordered, closed): {sum(m.bit_count() for m in s.conflicts) // 2}")
    print(f"configurations: {n_configurations}")
    return 0


def _cmd_show(args):
    s = _get_inputs(args)[0]
    sys.stdout.write(export_dot(s) if args.dot else dumps_es(s))
    return 0


def _cmd_lts(args):
    s = _get_inputs(args)[0]
    lts = build_lts(s, _MODE_BY_FLAG[args.mode])
    if args.dot:
        sys.stdout.write(export_dot(lts))
        return 0
    transitions = lts.transitions
    print(f"mode: {lts.mode}")
    print(f"states: {len(lts.states)}")
    print(f"transitions: {len(transitions)}")
    for src, label, dst in transitions:
        print(f"{config_text(src)} --{lts_label_text(lts, label)}--> {config_text(dst)}")
    return 0


def _cmd_check(args):
    left, right = _get_inputs(args)
    rel = Relation(args.relation)
    if args.witness:
        ok, wit = check(rel, left, right, witness=True)
    else:
        ok, wit = check(rel, left, right), None
    print(f"{rel.value}: {'related' if ok else 'not related'}")
    if rel is Relation.PB and isinstance(wit, GameWitness):
        # pomset labels are codes: print each as `pomset_code_text` spells it
        wit = dataclasses.replace(
            wit,
            moves=tuple((side, pomset_code_text(label)) for side, label in wit.moves),
            stuck_label=pomset_code_text(wit.stuck_label),
        )
    if wit is not None:
        print(f"witness: {wit}")
    return 0 if ok else 1


def _cmd_matrix(args):
    left, right = _get_inputs(args)
    matrix = full_matrix(left, right)
    print(matrix.render())
    print(f"bits: {matrix.bits()}")
    return 0


def _cmd_fixtures(args):
    failures = 0
    for fx in builtin_fixtures():
        matrix = full_matrix(fx.left, fx.right)
        ok = matrix.verdicts == fx.expected
        status = "ok" if ok else "MISMATCH"
        print(f"{fx.name:>18}: {matrix.bits()} {status}")
        if not ok:
            failures += 1
            want = "".join("1" if fx.expected[r] else "0" for r in MATRIX_ORDER)
            print(f"{'expected':>18}: {want}")
    print(f"{len(builtin_fixtures()) - failures} ok, {failures} mismatched")
    return 1 if failures else 0


def _cmd_spectrum(args):
    spec = CorpusSpec(
        structure_class=args.structure_class,
        count=args.pairs,
        max_events=args.max_size,
        alphabet=args.alphabet,
        seed=args.seed,
    )
    report = verify_spectrum(
        corpus_pairs(spec), DIAGRAMS[args.structure_class], jobs=args.jobs
    )
    sys.stdout.write(report.render())
    if args.table:
        sys.stdout.write(report.summary_table())
    return 1 if report.violations else 0


def _cmd_search(args):
    spec = SearchSpec(
        coarse=Relation(args.coarse),
        fine=Relation(args.fine),
        max_events=args.max_n,
        alphabet=args.labels,
        use_filters=not args.no_filters,
        sdm_filter=args.sdm_filter,
    )
    try:
        result = find_minimal_pairs(spec)
    except NoPairFound as exc:  # an exhausted search still writes its proof
        result, pairs, certificate = None, [], exc.certificate
    else:
        pairs, certificate = result.pairs, result.certificate()
    os.makedirs(args.out, exist_ok=True)
    # pairs of an earlier run would sit beside a certificate that does not name them
    for entry in os.scandir(args.out):
        if entry.is_file() and _PAIR_FILE.fullmatch(entry.name):
            os.remove(entry.path)
    for i, (left, right) in enumerate(pairs):
        write_es(left, os.path.join(args.out, f"pair_{i:03d}_left.es"))
        write_es(right, os.path.join(args.out, f"pair_{i:03d}_right.es"))
    with open(os.path.join(args.out, "certificate.txt"), "w", encoding="utf-8") as fh:
        fh.write(certificate)
    sys.stdout.write(certificate)
    if result is None:
        return 1
    print(f"{len(pairs)} pair(s) of size {result.size} written to {args.out}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "show": _cmd_show,
    "lts": _cmd_lts,
    "check": _cmd_check,
    "matrix": _cmd_matrix,
    "fixtures": _cmd_fixtures,
    "spectrum": _cmd_spectrum,
    "search": _cmd_search,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
