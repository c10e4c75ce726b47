"""Tests of the benchmark itself: seeded inputs, exact counts, the oracle.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The count test runs every workload twice in traced mode (a few minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    assert workload.describe(5, 0) == workload.describe(5, 0)
    assert workload.describe(5, 0) != workload.describe(6, 0)
    assert workload.describe(5, 0) != workload.describe(5, 1)


def test_service_job_list_shape():
    jobs = workloads.service_jobs(3, 0)
    assert len(jobs) == workloads.JOBS_PER_PASS
    repeats = [i for i, job in enumerate(jobs) if job["repeat_of"] is not None]
    assert len(repeats) == workloads.REPEATS_PER_PASS
    for position in repeats:
        original = jobs[position]["repeat_of"]
        assert position - original >= workloads.REPEAT_GAP
        assert jobs[original]["repeat_of"] is None
        assert jobs[original]["config"] == jobs[position]["config"]
    fresh = [(job["benchmark"], job["case"]) for job in jobs if job["repeat_of"] is None]
    assert len(set(fresh[:10])) == 10
    assert all(a != b for a, b in zip(fresh, fresh[1:]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name):
    details = []
    for _ in range(2):
        proc = _run(name, 4, trace=1)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert json.loads(lines[-1])["correct"] is True
        details.append(json.loads(lines[-2])["details"])
    first, second = details
    assert first["counts"] == second["counts"]
    assert first["cache_lookups"] == second["cache_lookups"]
    assert first["counts"]["core.solver.evals"] > 0
    assert first["inputs_digest"] == second["inputs_digest"]


def test_untraced_result_line_names_every_end_to_end_metric():
    proc = _run("j1-kyiv-noisy", 2, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("s4-sampled", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_above():
    values = [float(i) for i in range(100)]
    value, percentile, above = run.tail(values)
    assert above >= 10 and percentile == 90 and value == 89.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert run.tail([float(i) for i in range(19)]) == (18.0, 100, 0)


class _Problem:
    """Two variables, one constraint x0 + x1 = 1, value = 1 + 2 x1."""

    num_variables = 2
    constraint_matrix = [[1, 1]]
    bound = [1]
    optimal_value = 1.0

    def value(self, bits):
        return 1.0 + 2.0 * float(bits[1])


def test_oracle_accepts_a_consistent_distribution():
    distribution = {1: 0.25, 2: 0.75}  # keys 0b01 and 0b10
    expectation = 0.25 * 1.0 + 0.75 * 3.0
    assert oracle.check_distribution(_Problem(), distribution, expectation, expectation - 1.0) == []


@pytest.mark.parametrize(
    "distribution, expectation, arg, fragment",
    [
        ({1: 0.25, 3: 0.75}, 0.25 + 0.75 * 3.0, 1.5, "violate"),
        ({1: 0.25, 2: 0.70}, 0.25 + 0.70 * 3.0, 1.35, "sum to"),
        ({1: 0.25, 2: 0.75}, 2.4, 1.5, "expectation"),
        ({1: 0.25, 2: 0.75}, 2.5, 1.4, "ARG"),
    ],
)
def test_oracle_rejects_corrupted_outputs(distribution, expectation, arg, fragment):
    errors = oracle.check_distribution(_Problem(), distribution, expectation, arg)
    assert any(fragment in error for error in errors), errors
