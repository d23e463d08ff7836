"""Smoke test of the benchmark itself: every workload at a tiny size, in both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CACHE_METRICS = {"algebra.covariance_hit_ratio", "algebra.covariance_misses", "representation.profile_hit_ratio"}


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def digest(proc: subprocess.CompletedProcess) -> str:
    first = proc.stdout.splitlines()[0]
    return first.rsplit("digest ", 1)[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        number = isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
        assert number or (metric["value"] is None and name in CACHE_METRICS), (name, metric)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0.000000 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_digest_repeats_per_seed(workload):
    first, again, other = bench(workload, 0, seed=7), bench(workload, 0, seed=7), bench(workload, 0, seed=8)
    assert digest(first) == digest(again)
    assert digest(first) != digest(other)


def test_refuses_a_directory_without_the_package():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
