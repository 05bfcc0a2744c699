"""Every workload runs at smoke size, traced and untraced, with its
checks passing and exactly the metrics BENCHMARK.json names."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["check_errors"]
    assert result["attempted"] % detail["passes"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0
    assert detail["seed"] == 7 and detail["machine"]["nproc"] >= 1


def test_same_seed_same_work():
    counts = []
    for _ in range(2):
        proc = run(ROOT, "--workload", "tower", "--seed", "3", "--seconds", "0",
                   "--trace", "1", "--size", "smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["gowers.witnesses"] >= 3


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "analyze", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
