"""End-to-end and per-layer benchmark of the Rasengan reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload flp27-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` runs the operations untraced and reports the end-to-end
metrics; ``--trace 1`` alternates traced and untraced operations and
reports the per-layer metrics.  ``--workload all`` runs every workload
in its own process and prints every metric by name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (inputs, their digest, environment, tail
percentile).  The exit code is 1 when any operation failed, 2 when the
package cannot be imported.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that is still going after this many seconds is stopped and
#: reported as failed, so the process always exits in time.
HARD_LIMIT_S = 160

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "evals_per_s": "1/s",
    "approx_ratio": "ratio",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
}

PER_LAYER = {
    "pipeline.basis_s": "s",
    "pipeline.hamiltonian_s": "s",
    "pipeline.prune_s": "s",
    "pipeline.segmentation_s": "s",
    "pipeline.circuit_s": "s",
    "pipeline.cache_hit_ratio": "ratio",
    "core.solver.evals": "count",
    "core.solver.cobyla_self_s": "s",
    "core.solver.execute_s": "s",
    "core.solver.execute_self_s": "s",
    "engine.segments": "count",
    "engine.run_segment_s": "s",
    "engine.run_segment_self_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.bind_s": "s",
    "simulators.sparse.transitions": "count",
    "simulators.sparse.amplitudes": "count",
    "simulators.sparse_s": "s",
    "simulators.sampling.calls": "count",
    "simulators.sampling.shots": "count",
    "simulators.sampling_s": "s",
    "simulators.backend.runs": "count",
    "simulators.backend.shots": "count",
    "simulators.backend_s": "s",
    "core.purification.keys": "count",
    "core.purification.kept_ratio": "ratio",
    "core.purification_s": "s",
    "problems.feasibility_tests": "count",
    "problems.feasibility_s": "s",
    "problems.value_calls": "count",
    "problems.value_s": "s",
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.http_overhead_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class HardLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise HardLimit(f"run exceeded {HARD_LIMIT_S} s")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]):
    """Highest whole percentile with at least ten samples above it.

    Returns ``(value, percentile, samples_above)``.  With fewer than
    twenty samples that percentile would sit at or below the median, so
    the maximum is returned with percentile 100 and zero samples above.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100, 0
    percentile = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n - rank


def end_to_end(ops) -> Dict[str, float]:
    setup = [s for op in ops for s in op.setup_s]
    latencies = [s for op in ops for s in op.latency_s]
    exec_s = [s for op in ops for s in op.exec_s]
    evals = sum(e for op in ops for e in op.evals)
    solve_seconds = sum(s for op in ops for s in op.solve_s)
    quality = [q for op in ops for q in op.quality]
    wall = sum(op.wall_s for op in ops)
    return {
        "setup_s": median(setup),
        # On service-mix one solve is one executed job, timed server-side.
        "solve_s": median(exec_s) if exec_s else median(latencies),
        "evals_per_s": evals / solve_seconds if solve_seconds else 0.0,
        "approx_ratio": median(quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs_per_s": len(latencies) / wall if wall else 0.0,
        "job_latency_p50_s": median(latencies),
        "job_latency_tail_s": tail(latencies)[0] if latencies else 0.0,
    }


def _ratio(pair) -> float:
    hits, misses = pair
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(ops, tracer):
    """Per-layer metrics of one operation.

    Counts and ratios come from the first traced operation, whose inputs
    depend on the seed alone, so they repeat exactly.  Times are medians
    over the traced operations of per-operation self (or total) time.
    """
    from tracing import root_wall, span_table, unattributed

    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    groups: Dict[int, list] = {}
    for op_trace in tracer.ops:
        groups.setdefault(op_trace.group, []).append(op_trace)
    tables = [span_table(groups.get(i, [])) for i in sorted(groups)]
    first_group = groups[min(groups)] if groups else []
    first = tables[0] if tables else {}

    def timed(name: str, column: str = "self_s") -> float:
        return median([table.get(name, {}).get(column, 0.0) for table in tables])

    def calls(name: str) -> float:
        return float(first.get(name, {}).get("calls", 0))

    def counter(name: str) -> float:
        return float(sum(op.counters.get(name, 0.0) for op in first_group))

    evals = sum(
        span.attrs.get("evals", 0)
        for op in first_group
        for span in op.spans
        if span.name == "core.solver.solve"
    )
    mass_in = counter("core.purification.mass_in")
    first_op = traced[0]
    metrics = {
        "pipeline.basis_s": timed("pipeline.basis"),
        "pipeline.hamiltonian_s": timed("pipeline.hamiltonian"),
        "pipeline.prune_s": timed("pipeline.prune"),
        "pipeline.segmentation_s": timed("pipeline.segmentation"),
        "pipeline.circuit_s": timed("pipeline.circuit"),
        "pipeline.cache_hit_ratio": _ratio(first_op.extras["pipeline_cache"]),
        "core.solver.evals": float(evals),
        "core.solver.cobyla_self_s": timed("core.solver.cobyla"),
        "core.solver.execute_s": timed("core.solver.execute", "total_s"),
        "core.solver.execute_self_s": timed("core.solver.execute"),
        "engine.segments": calls("engine.run_segment"),
        "engine.run_segment_s": timed("engine.run_segment", "total_s"),
        "engine.run_segment_self_s": timed("engine.run_segment"),
        "engine.cache_hit_ratio": _ratio(first_op.extras["engine_cache"]),
        "engine.bind_s": timed("engine.bind", "total_s"),
        "simulators.sparse.transitions": calls("simulators.sparse"),
        "simulators.sparse.amplitudes": counter("simulators.sparse.amplitudes"),
        "simulators.sparse_s": timed("simulators.sparse", "total_s"),
        "simulators.sampling.calls": calls("simulators.sampling"),
        "simulators.sampling.shots": counter("simulators.sampling.shots"),
        "simulators.sampling_s": timed("simulators.sampling", "total_s"),
        "simulators.backend.runs": calls("simulators.backend"),
        "simulators.backend.shots": counter("simulators.backend.shots"),
        "simulators.backend_s": timed("simulators.backend", "total_s"),
        "core.purification.keys": counter("core.purification.keys"),
        "core.purification.kept_ratio": (
            counter("core.purification.mass_kept") / mass_in if mass_in else 0.0
        ),
        "core.purification_s": timed("core.purification", "total_s"),
        "problems.feasibility_tests": calls("problems.feasibility"),
        "problems.feasibility_s": timed("problems.feasibility", "total_s"),
        "problems.value_calls": calls("problems.value"),
        "problems.value_s": timed("problems.value", "total_s"),
        "service.queue_wait_s": median(
            [median(op.extras.get("queue_wait_s", [])) for op in traced]
        ),
        "service.exec_s": median([median(op.exec_s) for op in traced]),
        "service.store_hit_ratio": first_op.extras.get("store_hits", 0) / first_op.attempted,
        "service.http_overhead_s": median(
            [median(op.extras.get("http_overhead_s", [])) for op in traced]
        ),
        "trace.unattributed_frac": median(
            [unattributed(groups[i]) / root_wall(groups[i]) for i in sorted(groups)]
        ),
        "trace.overhead_frac": _typical_cost(traced) / _typical_cost(untraced) - 1.0,
    }
    return metrics, tables


def _typical_cost(ops) -> float:
    """Median per-operation cost: job execution time, else op latency."""
    exec_s = [s for op in ops for s in op.exec_s]
    return median(exec_s) if exec_s else median([s for op in ops for s in op.latency_s])


def print_layer_table(tables) -> None:
    """Per span name: calls, total and self seconds, share of the root wall."""
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    roots = ("bench.op", "service.runner")
    wall = sum(merged[name]["total_s"] for name in roots if name in merged) or 1.0
    print(f"{'span':32s} {'calls':>9s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, row in sorted(merged.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"{name:32s} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f} "
            f"{100 * row['self_s'] / wall:6.1f}%"
        )


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    ops = []
    error = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    start = time.perf_counter()
    try:
        index = 0
        durations = []
        # A traced run alternates traced and untraced operations and runs
        # at least one of each, so it can report the tracing overhead.
        # Another operation starts only while at least a quarter of a
        # typical operation's time is left, so runs of slow operations
        # still measure three or more of them.
        while True:
            traced = trace and index % 2 == 0
            began = time.perf_counter()
            if traced:
                with tracer.installed():
                    ops.append(workload.run(seed, index, tracer))
            else:
                ops.append(workload.run(seed, index))
            durations.append(time.perf_counter() - began)
            index += 1
            elapsed = time.perf_counter() - start
            if trace and index < 2:
                continue
            if elapsed + median(durations) / 4 >= seconds:
                break
        if name == "service-mix":
            workload.check_direct(seed, ops[0])
    except Exception as exc:  # noqa: BLE001 -- reported as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)

    attempted = sum(op.attempted for op in ops) + (1 if error else 0)
    failed = sum(op.failed for op in ops) + (1 if error else 0)
    correct = failed == 0
    descs = [op.desc for op in ops]
    latencies = [s for op in ops for s in op.latency_s]
    tail_value = tail(latencies) if latencies else (0.0, 0, 0)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "operations": len(ops),
        "inputs_digest": hashlib.sha256(
            json.dumps(descs, sort_keys=True).encode()
        ).hexdigest(),
        "first_input": descs[0] if descs else None,
        "environment": environment(),
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": [e for op in ops for e in op.errors] + ([error] if error else []),
        "tail": {"percentile": tail_value[1], "samples_above": tail_value[2],
                 "samples": len(latencies)},
        "mean_arg": statistics.fmean([a for op in ops for a in op.extras.get("arg", [])] or [0.0]),
        "run_wall_s": time.perf_counter() - start,
    }
    if correct and trace:
        metrics, tables = per_layer(ops, tracer)
        print_layer_table(tables)
        details["counts"] = {
            key: value for key, value in metrics.items() if PER_LAYER[key] == "count"
        }
        details["cache_lookups"] = {
            key: ops[0].extras[key] for key in ("pipeline_cache", "engine_cache")
        }
        units = PER_LAYER
    elif correct:
        metrics, units = end_to_end(ops), END_TO_END
    else:
        metrics, units = {}, {}
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": metrics[key], "unit": units[key]} for key in metrics
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints every metric by name."""
    import workloads

    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=HARD_LIMIT_S + 30,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 0, "metrics": {}}
        details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        summary[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={details.get('failed_frac', 1.0):.4f}")
        for key, metric in result["metrics"].items():
            print(f"   {key:32s} {metric['value']:14.6g} {metric['unit']}")
        if not trace and details:
            tail_info = details["tail"]
            print(f"   (tail = p{tail_info['percentile']}, {tail_info['samples_above']} of "
                  f"{tail_info['samples']} samples above it)")
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: package source src/repro not found; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
