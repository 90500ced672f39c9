"""Smoke test of the benchmark command at a tiny size.

Runs every workload, untraced and traced, with a 160x120 camera, 16
candidates, 2 iterations and 1 snapshot, and checks that each metric named
in BENCHMARK.json is emitted with its unit.  Also checks that the command
fails without printing a result when the program's sources are absent.

    python3 -m pytest -q nbvbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd: str, workload: str, trace: int, size: str = "smoke"):
    cmd = [
        sys.executable, RUN, "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", size,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


# Every workload the command accepts: scan runs by hand, outside BENCHMARK.json.
WORKLOADS = ("scan", "select", "observe")


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in _spec()["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "nbvbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "nbvbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
