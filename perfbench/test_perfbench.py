"""Smoke test of the benchmark: smallest sizes, output schema, repeatable counts.

Run from the repository root with ``python3 -m pytest -q perfbench``.  It
checks what the benchmark prints, never how long anything took.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, hash_seed: int, cwd: Path = ROOT):
    # a different hash seed per process shows up any count that depends on
    # set iteration order
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    out = result(run(workload, 0, 0))
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(run(workload, 1, seed)) for seed in (1, 2))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first["metrics"]) == spec
    counts = [name for name, unit in spec.items() if unit == "count"]
    assert counts
    assert [first["metrics"][n]["value"] for n in counts] == [
        second["metrics"][n]["value"] for n in counts
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("matrix", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
