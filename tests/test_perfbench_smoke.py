"""The benchmark harness runs a workload and ends with its JSON result line."""

import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_benchmark(tmp_path, workload, seed):
    """The parsed result line of one untimed, traced pass of `workload`."""
    # a copy of the harness next to a link to src/, so its work directory
    # lands in tmp_path and not in the repository
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    os.symlink(ROOT / "src", tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert isinstance(result, dict)
    assert result["correct"] is True
    # a traced run reports every per-layer metric the benchmark declares; a
    # layer the workload no longer enters through a traced call drops out
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    return result


@pytest.mark.parametrize("workload",
                         ["dirac-window", "critical-sweep", "partner", "zeromode-io"])
def test_benchmark_run_ends_with_result_line(tmp_path, workload):
    result = run_benchmark(tmp_path, workload, 0)
    # the README config of dirac-window still exits 2, so only the others
    # must pass every operation
    if workload != "dirac-window":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["critical-sweep", "partner", "zeromode-io"])
def test_benchmark_passes_every_operation_at_seed_7(tmp_path, workload):
    # a nonzero seed draws other amplitudes, shifts and couplings, so the
    # outputs and exit codes of inputs that seed 0 never tries are checked too
    assert run_benchmark(tmp_path, workload, 7)["failed"] == 0
