#!/usr/bin/env python3
"""The esequiv benchmark: one workload, measured for a fixed time.

    python3 esbench/run.py --workload spectrum --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The benchmark imports the checkout's own
``src/esequiv`` and nothing else; without it, it exits with status 2 and
prints no result.

The load is a closed loop with one caller.  Each repetition runs in a fresh
interpreter (``worker.py``), so every repetition is as cold as a user's run.
Repetitions continue while another one fits in ``--seconds``; there is
always at least one.

``--trace 0`` reports the end-to-end metrics, tracing off: ``wall_s`` (time
to the workload's result), ``setup_s`` (median import plus input
construction), ``peak_rss_mb`` (median peak resident memory), and
``pair_p50_ms``/``pair_p95_ms`` (latency of one operation: a ``full_matrix``
call on spectrum, a whole ``find_minimal_pairs`` call on search).

Other work on the machine only ever adds time, and it comes and goes over
tens of seconds: the median of a 40 s window moves by 15-20% with it.  Every
repetition runs the same operations in the same order, so each operation's
fastest repetition is taken instead: ``wall_s`` is the sum of those times
plus the fastest time spent between operations (work a change moves out of
the operations still counts), and the latency percentiles are taken over the
same per-operation times.  On a 2-vCPU Xeon VM this cut the spread of
spectrum's ``wall_s`` over five 40 s runs from 15-20% (fastest whole
repetition) to 3-8%; in hours when the machine stayed slow for whole runs,
ten 60 s runs still spread 10-22% (IQR over median).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.LAYER_METRICS``: counts from one traced
repetition (they repeat exactly), self times as medians over the traced
repetitions, and ``trace.overhead_frac``, the traced ``wall_s`` against the
untraced one.

Every output is checked (see ``workloads.py``).  Failed or wrong operations
count in ``failed`` out of ``attempted``; ``fail_frac`` is printed as a text
line, because it is 0 on a correct run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the run's context (kernel, Python,
nproc, commit, seed) and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pair_p50_ms": "ms",
    "pair_p95_ms": "ms",
}

#: Whole-run limit; the slowest repetition must still finish inside it.
RUN_LIMIT_S = 170


class WorkerFailed(Exception):
    pass


def run_worker(args, trace, deadline):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {RUN_LIMIT_S} s run limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """Run repetitions for args.seconds; returns (untraced, traced) results."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    while True:
        cycle = time.monotonic()
        untraced.append(run_worker(args, 0, deadline))
        if args.trace:
            traced.append(run_worker(args, 1, deadline))
        now = time.monotonic()
        if now - start + (now - cycle) > args.seconds:
            return untraced, traced


def best_times(results):
    """(wall_s, per-operation ms): each operation at its fastest repetition."""
    ops = [min(times) for times in zip(*(r["op_ms"] for r in results))]
    between = min(r["wall_s"] - sum(r["op_ms"]) / 1000 for r in results)
    return sum(ops) / 1000 + between, ops


def quantile(values, q):
    """Inclusive-method quantile; the single value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def read_commit():
    """HEAD's commit id when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library's source files, which names the code measured
    also where the checkout is not a git work tree."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "esequiv"
    for path in sorted(src.iterdir()):
        if path.suffix in (".py", ".pyx"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "esequiv" / "__init__.py").is_file():
        print(f"no esequiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        untraced, traced = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    results = untraced + traced
    op_span = WORKLOADS[args.workload].op_span
    if not all(r["op_ms"] for r in results):
        print(f"benchmark failed: no {op_span} spans were recorded", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = sorted({p for r in results for p in r["problems"]})
    missing = sorted({m for r in results for m in r["missing"]})

    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            if unit == "s"
            else traced[0]["layers"][name]
            for name, (unit, _, _) in LAYER_METRICS.items()
            if name != "trace.overhead_frac"
        }
        wall = best_times(untraced)[0]
        layers["trace.overhead_frac"] = (best_times(traced)[0] - wall) / wall
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _, _) in LAYER_METRICS.items()
        }
    else:
        wall, ops = best_times(untraced)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
            "pair_p50_ms": statistics.median(ops),
            "pair_p95_ms": quantile(ops, 95),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": results[0]["kernel"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": read_commit(),
        "source_sha256": source_digest(),
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
    }
    print("context " + json.dumps(context))
    if not args.trace:
        print(f"latency samples: {len(ops)} operations, each the fastest of {len(untraced)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"fail_frac {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"FAILED: {problem}")
    if missing:
        print(f"MISSING LAYERS: {', '.join(missing)}")
        print(f"missing layers: {', '.join(missing)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
