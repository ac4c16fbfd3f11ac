"""Self-test of the benchmark: tiny runs of every workload, a planted fault
that the output checks must catch, and a checkout without the program.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "0.5"


def run_bench(*extra, root=ROOT, workload="iris_cv", trace=0):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload=workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert "error_rate" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_label_fails_the_checks(workload):
    proc = run_bench("--plant-fault", workload=workload)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
