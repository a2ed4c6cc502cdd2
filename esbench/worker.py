"""One repetition of a workload in a fresh interpreter.

Imports the checkout's own ``src/esequiv``, builds the inputs, times the
workload once, checks the outputs and prints one JSON line.  A fresh
process per repetition keeps every repetition cold, as a user's run is:
nothing the library caches in one repetition survives into the next.

Run by ``run.py``; by hand:
    python3 esbench/worker.py --workload spectrum --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import TARGETS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import esequiv as es

    if src.resolve() not in Path(es.__file__).resolve().parents:
        sys.exit(f"esequiv imported from {es.__file__}, not from {src}")
    inputs = workload.setup(es, args.seed, args.tiny)
    setup_s = time.perf_counter() - start

    tracer = Tracer()
    if args.trace:
        tracer.install(es)
    else:
        # Only the operation boundary is timed: one span per operation.
        tracer.install(es, [t for t in TARGETS if t[2] == workload.op_span])
    attempted = workload.operations(inputs)
    start = time.perf_counter()
    try:
        outcome = workload.run(es, inputs)
    except Exception:  # the program failed: every operation counts as failed
        wall_s = time.perf_counter() - start
        traceback.print_exc()
        failed, problems, facts = attempted, ["workload raised; see stderr"], (0, 0)
    else:
        wall_s = time.perf_counter() - start
        failed, problems, facts = workload.check(es, inputs, outcome, args.seed, args.tiny)

    result = {
        "kernel": es.KERNEL,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms": [d * 1000 for d in tracer.durations(workload.op_span)],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "missing": tracer.missing,
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(*facts)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
