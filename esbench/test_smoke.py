"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest esbench/test_smoke.py

Runs ``run.py`` on every workload, traced and untraced, and checks that the
result line is well formed, that every metric ``BENCHMARK.json`` declares is
emitted with its unit, and that the benchmark refuses to run without the
library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "esbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(
            line.startswith(name + " ") and line.endswith(" " + unit) for line in lines
        ), name
    assert any(line.startswith("fail_frac 0.0 ratio") for line in lines)
    assert not any(line.startswith("MISSING LAYERS") for line in lines)

    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    assert context["seed"] == 1 and context["workload"] == workload
    assert context["kernel"] and context["python"] and context["nproc"] >= 1
    assert "commit" in context and context["source_sha256"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "search", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
