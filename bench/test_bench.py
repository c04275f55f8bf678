"""Self-test of the benchmark: tiny item lists, output checks, bare checkout.

    python3 -m pytest bench/test_bench.py
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
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--items", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "# fail_ratio 0.0 ratio" in proc.stdout


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "prove", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _report(members, value=2, lower_bound=2, proven=True) -> str:
    witness = {"n": 6, "k": 4, "l": 2, "provenance": "exact", "members": members}
    return json.dumps({"n": 6, "k": 4, "l": 2, "method": "branch_and_bound", "value": value,
                       "proven_optimal": proven, "lower_bound": lower_bound,
                       "nodes_explored": 1, "elapsed_seconds": 0.0, "witness": witness})


def test_exact_check_rejects_a_non_dominating_witness():
    members = [{"level": "upper", "elements": [1, 2, 3, 4]},
               {"level": "upper", "elements": [3, 4, 5, 6]}]
    problems = workloads._check_exact(6, 4, 2)(0, _report(members)).problems
    assert "witness does not dominate" in problems
    assert any("frozen" in p for p in problems)


def test_refuted_check_rejects_a_dominated_witness():
    uppers = {0b001111}
    lowers = {0b110000}
    check = workloads._check_refuted(6, 4, uppers, lowers)
    bad = check(1, "not dominating; undominated vertex: upper [1, 2, 5, 6]\n")
    assert bad.problems and not bad.proven
    good = check(1, "not dominating; undominated vertex: upper [1, 3, 4, 5]\n")
    assert good.problems == [] and good.proven == 1


def test_table_check_rejects_a_wrong_frozen_value():
    csv = workloads.CSV_HEADER + "\n6,4,5,true,6,6,5,8.4\n"
    problems = workloads._check_rows("theorem1", [(6, 4)])(0, csv).problems
    assert any("frozen" in p for p in problems)
