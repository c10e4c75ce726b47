"""Seeded workloads: input generation and one measured operation each.

Every input is a pure function of ``(workload seed, operation index)``
(or pass index on ``service-mix``), so the same seed reproduces the same
inputs and a different seed changes them.  Each operation builds its
problem instance and its artifact cache fresh, so no operation reuses
another's compiled stages or cached properties; only memo caches inside
the package that live for the whole process stay warm.

See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import oracle

#: Service job timeout in seconds; far above any job, so it never fires,
#: but it makes the service run each job under its deadline machinery as
#: a real client would.
JOB_TIMEOUT_S = 60.0
#: Client-side limit for one job; a job that takes longer counts failed.
CLIENT_WAIT_S = 90.0


def derive(seed: int, index: int, salt: int = 0) -> int:
    """A 31-bit integer drawn from ``(seed, index, salt)``."""
    state = np.random.SeedSequence([seed, index, salt]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class Op:
    """Outcome of one operation (one solve, or one pass of the job list)."""

    desc: Dict[str, Any]
    traced: bool
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    solve_s: List[float] = field(default_factory=list)
    evals: List[int] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    exec_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ----------------------------------------------------------------------
# Solver workloads
# ----------------------------------------------------------------------
class SolverWorkload:
    """One cold ``RasenganSolver`` construction + ``solve()`` per operation."""

    name = ""
    #: Cold constructions per operation; each is one ``setup_s`` sample
    #: and the last one is solved.  Cheap set-ups repeat so their median
    #: rests on more than a handful of samples.
    setup_repeats = 1

    def describe(self, seed: int, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def make_problem(self, desc: Dict[str, Any]):
        from repro.problems.registry import make_benchmark

        return make_benchmark(desc["benchmark"], case=desc["case"])

    def run(self, seed: int, index: int, tracer=None) -> Op:
        from repro.core.solver import RasenganConfig, RasenganSolver
        from repro.pipeline import ArtifactCache

        desc = self.describe(seed, index)
        op = Op(desc=desc, traced=tracer is not None, attempted=1)
        config = RasenganConfig(**desc["config"])
        for _ in range(self.setup_repeats - 1):
            problem = self.make_problem(desc)
            gc.collect()
            start = time.perf_counter()
            solver = RasenganSolver(
                problem, backend=desc.get("backend"), config=config, artifact_cache=ArtifactCache()
            )
            op.setup_s.append(time.perf_counter() - start)
            solver.engine.close()
        problem = self.make_problem(desc)
        cache = ArtifactCache()
        gc.collect()
        traced = tracer.operation(f"op{index}", index) if tracer else nullcontext()
        with traced:
            start = time.perf_counter()
            solver = RasenganSolver(
                problem, backend=desc.get("backend"), config=config, artifact_cache=cache
            )
            built = time.perf_counter()
            result = solver.solve()
            done = time.perf_counter()
        solver.engine.close()
        op.setup_s.append(built - start)
        op.latency_s.append(done - start)
        op.solve_s.append(done - built)
        op.wall_s = done - start
        op.evals.append(result.iterations)
        op.extras["pipeline_cache"] = (cache.hits, cache.misses)
        op.extras["engine_cache"] = (solver.engine.cache.hits, solver.engine.cache.misses)
        errors = oracle.check_result(problem, result)
        if errors:
            op.fail("; ".join(errors))
        else:
            op.quality.append(1.0 + result.arg)
            op.extras["arg"] = [result.arg]
        return op


class S4Sampled(SolverWorkload):
    name = "s4-sampled"

    def describe(self, seed, index):
        return {"benchmark": "S4", "case": 0, "config": {"seed": derive(seed, index)}}


class Flp27Exact(SolverWorkload):
    name = "flp27-exact"

    def describe(self, seed, index):
        instance = derive(seed, index)
        return {
            "problem": "FacilityLocation.random(3, 4)",
            "instance_seed": instance,
            "config": {"shots": None, "max_iterations": 120, "seed": instance},
        }

    def make_problem(self, desc):
        from repro.problems import FacilityLocationProblem

        return FacilityLocationProblem.random(
            3, 4, seed=desc["instance_seed"], name="flp-3x4"
        )


class J1KyivNoisy(SolverWorkload):
    name = "j1-kyiv-noisy"
    setup_repeats = 5

    def describe(self, seed, index):
        return {
            "benchmark": "J1",
            "case": derive(seed, index, 1) % 100000,
            "backend": "fake_kyiv",
            "config": {"max_iterations": 10, "seed": derive(seed, index)},
        }


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
SERVICE_BENCHMARKS = ("F2", "K3", "J3", "S1", "G3")
#: The registry's first two cases of each benchmark.  Some other random
#: S1 cases (e.g. 62, 97, 135) fail to compile with LinearAlgebraError.
SERVICE_CASES = (0, 1)
JOBS_PER_PASS = 48
REPEATS_PER_PASS = 12
#: A repeated job is placed at least this many positions after its
#: original, so the original has finished and the repeat is a store read.
REPEAT_GAP = 6
SERVICE_CONFIG = {"max_iterations": 30, "shots": 256}
CLIENTS = 2
#: Set-ups per pass beyond the measured one: start a service, have job 0
#: accepted, shut down.  They give ``setup_s`` more samples than passes.
EXTRA_SETUPS_PER_PASS = 2


def service_jobs(seed: int, pass_index: int) -> List[Dict[str, Any]]:
    """The pass's job list: 36 fresh solves and 12 exact repeats.

    Ten problems (five benchmarks x two cases), each with three fresh
    jobs, six of them with a fourth, so every pass carries nearly the same
    mix of work; the seed draws which six, the solver seeds, the order and
    which jobs repeat.  The first ten jobs are each problem's first job,
    and no two consecutive fresh jobs share a problem, so two jobs
    compiling the same problem at once is unlikely and the artifact-cache
    hit counts repeat for a seed.
    """
    rng = np.random.default_rng([seed, pass_index, 7])
    problems = [(benchmark, case) for benchmark in SERVICE_BENCHMARKS for case in SERVICE_CASES]
    fresh_count = JOBS_PER_PASS - REPEATS_PER_PASS
    first = [int(i) for i in rng.permutation(len(problems))]
    extra = fresh_count - 3 * len(problems)
    rest = list(range(len(problems))) * 2 + [
        int(i) for i in rng.choice(len(problems), size=extra, replace=False)
    ]
    while True:
        rng.shuffle(rest)
        order = first + rest
        if all(a != b for a, b in zip(order, order[1:])):
            break
    seeds = [int(s) for s in rng.choice(1 << 31, size=fresh_count, replace=False)]
    repeat_slots = set(
        int(p) for p in rng.choice(np.arange(16, JOBS_PER_PASS), REPEATS_PER_PASS, replace=False)
    )
    jobs: List[Dict[str, Any]] = []
    fresh_iter = iter(zip(order, seeds))
    for position in range(JOBS_PER_PASS):
        if position in repeat_slots:
            candidates = [
                i
                for i, job in enumerate(jobs[: position - REPEAT_GAP + 1])
                if job["repeat_of"] is None
            ]
            original = candidates[int(rng.integers(len(candidates)))]
            jobs.append(dict(jobs[original], repeat_of=original))
            continue
        problem_index, solver_seed = next(fresh_iter)
        benchmark, case = problems[problem_index]
        jobs.append(
            {
                "benchmark": benchmark,
                "case": case,
                "config": dict(SERVICE_CONFIG, seed=solver_seed),
                "repeat_of": None,
            }
        )
    return jobs


@contextmanager
def solve_probe(records: List[tuple]):
    """Record ``(evals, seconds)`` of every ``RasenganSolver.solve`` call.

    One wrapper call per solve; it is how the service workload learns the
    evaluation count of solves that run on the service's worker threads.
    """
    from repro.core.solver import RasenganSolver

    original = RasenganSolver.__dict__["solve"]
    lock = threading.Lock()

    def solve(self):
        start = time.perf_counter()
        result = original(self)
        elapsed = time.perf_counter() - start
        with lock:
            records.append((result.iterations, elapsed))
        return result

    RasenganSolver.solve = solve
    try:
        yield records
    finally:
        RasenganSolver.solve = original


class ServiceMix:
    """Closed loop of two HTTP clients against SolverService + ServiceServer.

    One operation is one pass of the job list against a freshly started
    service, so every pass measures a set-up and starts with cold caches.
    """

    name = "service-mix"

    def describe(self, seed, index):
        return {"pass": index, "jobs": service_jobs(seed, index)}

    def run(self, seed: int, index: int, tracer=None) -> Op:
        from repro.engine import get_defaults
        from repro.pipeline import get_default_cache
        from repro.service.client import ServiceClient
        from repro.service.http import ServiceServer
        from repro.service.workers import SolverService, default_runner

        desc = self.describe(seed, index)
        jobs = desc["jobs"]
        op = Op(desc=desc, traced=tracer is not None, attempted=len(jobs))
        runner = None
        if tracer is not None:
            counter = iter(range(len(jobs)))

            def runner(spec):
                with tracer.operation(f"p{index}-r{next(counter)}", index, root="service.runner"):
                    return default_runner(spec)

        def start_service(runner):
            """Start service and server; time it until job 0 is accepted.

            Accepted means the service has admitted job 0; its admission
            time (``Job.submitted_at``, monotonic clock) ends the interval,
            so the time excludes job 0's solve competing for the
            interpreter lock with the HTTP response.
            """
            gc.collect()
            start = time.monotonic()
            service = SolverService(workers=2, runner=runner).start()
            server = ServiceServer(service, port=0).start()
            try:
                sent = time.perf_counter()
                first = ServiceClient(server.url, timeout=CLIENT_WAIT_S).submit(
                    **_submission(jobs[0])
                )
            except BaseException:
                service.close(drain=False, timeout=CLIENT_WAIT_S)
                server.stop()
                raise
            op.setup_s.append(service.get(first["id"]).submitted_at - start)
            return service, server, first, sent

        for _ in range(EXTRA_SETUPS_PER_PASS):
            service, server, _, _ = start_service(None)
            service.close(drain=False, timeout=CLIENT_WAIT_S)
            server.stop()

        records: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        latencies: List[Optional[float]] = [None] * len(jobs)
        probe: List[tuple] = []
        with solve_probe(probe):
            service, server, first, first_sent = start_service(runner)
            try:
                loop_start = time.perf_counter()
                pending = iter(range(1, len(jobs)))
                lock = threading.Lock()

                def client_loop(first_job: Optional[Dict[str, Any]]) -> None:
                    client = ServiceClient(server.url, timeout=CLIENT_WAIT_S)
                    if first_job is not None:
                        _finish(client, 0, first_job, first_sent, records, latencies)
                    while True:
                        with lock:
                            position = next(pending, None)
                        if position is None:
                            return
                        sent = time.perf_counter()
                        try:
                            record = client.submit(
                                **_submission(jobs[position]), wait=True, wait_timeout=CLIENT_WAIT_S
                            )
                        except Exception as exc:  # noqa: BLE001 -- counted as a failed job
                            records[position] = {"state": "error", "error": repr(exc)}
                            continue
                        _finish(client, position, record, sent, records, latencies)

                threads = [
                    threading.Thread(target=client_loop, args=(first if i == 0 else None,))
                    for i in range(CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                op.wall_s = time.perf_counter() - loop_start
                cache = get_default_cache()
                op.extras["pipeline_cache"] = (cache.hits, cache.misses)
                circuits = get_defaults().cache
                op.extras["engine_cache"] = (circuits.hits, circuits.misses)
            finally:
                service.close(drain=False, timeout=CLIENT_WAIT_S)
                server.stop()
        op.evals = [evals for evals, _ in probe]
        op.solve_s = [seconds for _, seconds in probe]
        self._verify(op, jobs, records, latencies)
        return op

    def _verify(self, op: Op, jobs, records, latencies) -> None:
        from repro.problems.registry import make_benchmark

        problems: Dict[tuple, Any] = {}
        queue_wait, http_overhead, store_hits, args = [], [], 0, []
        for position, (job, record) in enumerate(zip(jobs, records)):
            if record is None or record.get("state") != "done":
                state = "missing" if record is None else record.get("state")
                op.fail(f"job {position}: {state} {record and record.get('error')}")
                continue
            key = (job["benchmark"], job["case"])
            if key not in problems:
                problems[key] = make_benchmark(*key)
            errors = oracle.check_record(problems[key], record["result"])
            if errors:
                op.fail(f"job {position}: " + "; ".join(errors))
                continue
            op.latency_s.append(latencies[position])
            op.quality.append(1.0 + record["result"]["arg"])
            args.append(record["result"]["arg"])
            if record["from_cache"]:
                store_hits += 1
            executed = not record["from_cache"] and record["coalesced_into"] is None
            if executed and record["run_seconds"] is not None:
                op.exec_s.append(record["run_seconds"])
                queue_wait.append(record["queued_seconds"])
                http_overhead.append(
                    latencies[position] - record["queued_seconds"] - record["run_seconds"]
                )
        op.extras.update(
            arg=args,
            store_hits=store_hits,
            queue_wait_s=queue_wait,
            http_overhead_s=http_overhead,
            records=records,
        )

    def check_direct(self, seed: int, op: Op) -> None:
        """One seeded job's record must equal a direct solve byte for byte."""
        from repro.core.solver import RasenganConfig, RasenganSolver
        from repro.problems.registry import make_benchmark

        jobs = op.desc["jobs"]
        fresh = [i for i, job in enumerate(jobs) if job["repeat_of"] is None]
        position = fresh[derive(seed, 0, 2) % len(fresh)]
        job = jobs[position]
        record = op.extras["records"][position]
        if record is None or record.get("state") != "done":
            return  # already counted as failed
        solver = RasenganSolver(
            make_benchmark(job["benchmark"], case=job["case"]),
            config=RasenganConfig(**job["config"]),
        )
        direct = solver.solve().to_json_dict()
        solver.engine.close()
        if _canonical(direct) != _canonical(record["result"]):
            op.fail(f"job {position}: service record differs from a direct solve")


def _submission(job: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "benchmark": job["benchmark"],
        "case": job["case"],
        "config": job["config"],
        "timeout": JOB_TIMEOUT_S,
    }


def _finish(client, position, record, sent, records, latencies) -> None:
    """Wait for a job to settle and store its record and client latency."""
    try:
        if record["state"] in ("pending", "running"):
            record = client.wait(record["id"], timeout=CLIENT_WAIT_S)
    except Exception as exc:  # noqa: BLE001 -- counted as a failed job
        record = {"state": "error", "error": repr(exc)}
    latencies[position] = time.perf_counter() - sent
    records[position] = record


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


WORKLOADS = {
    workload.name: workload
    for workload in (S4Sampled(), Flp27Exact(), J1KyivNoisy(), ServiceMix())
}
