"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced with --smoke and checks
that the result line is well formed, correct, and names exactly the metrics
BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke(workload):
    metrics = run(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_smoke():
    metrics = run("census-len8", 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")


def test_refuses_without_source(tmp_path):
    """Outside a source checkout the benchmark fails without a result line."""
    (tmp_path / "perfbench").mkdir()
    for path in (CHECKOUT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-k7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
