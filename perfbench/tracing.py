"""Span tracer that wraps the package's public entry points from outside.

The benchmark must not change ``src/``, so the traced run installs thin
wrappers around the public entry point of each layer
(:func:`install_entry_points`) and removes them again afterwards.  A
wrapper records a span -- name, start, end, parent span and operation id
-- only while the calling thread runs a traced operation; anywhere else
(the correctness oracle, untraced operations) it passes straight
through.

Two entry points are called hundreds of thousands of times per solve
(``ConstrainedBinaryProblem.is_feasible`` and ``.value``).  They are
recorded as *leaf aggregates*: each call adds its count and duration to
the operation's totals and its duration to the enclosing span's child
time, but stores no span of its own.  Self times therefore stay exact
while memory stays bounded.

A span's self time is its duration minus the time covered by its
children (child spans plus leaf aggregates), all on the same thread.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: Spans that orchestrate layers rather than being one; their self time
#: is the wall time covered by no layer span (``trace.unattributed_frac``).
ORCHESTRATION = frozenset(
    {"bench.op", "service.runner", "core.solver.construct", "core.solver.solve"}
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "child", "attrs")

    def __init__(self, span_id, parent, op, name, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class OpTrace:
    """Everything recorded for one traced operation.

    ``group`` is the unit the per-layer table reports on: one solve on
    the solver workloads, one pass of the job list on ``service-mix``
    (whose jobs each run as their own operation on a worker thread).
    """

    def __init__(self, op_id: str, group: int) -> None:
        self.id = op_id
        self.group = group
        self.spans: List[Span] = []
        self.leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.ops: List[OpTrace] = []
        self._ops_lock = threading.Lock()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Operations and spans
    # ------------------------------------------------------------------
    @contextmanager
    def operation(self, op_id: str, group: int, root: str = "bench.op"):
        """Trace everything this thread does inside the block as one op."""
        op = OpTrace(op_id, group)
        with self._ops_lock:
            self.ops.append(op)
        self._local.op = op
        self._local.stack = []
        span = self._open(root)
        try:
            yield op
        finally:
            self._close(span)
            self._local.op = None

    def _open(self, name: str) -> Span:
        local = self._local
        stack = local.stack
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            local.op.id,
            name,
            time.perf_counter(),
        )
        local.op.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].child += span.duration

    def _current_op(self) -> Optional[OpTrace]:
        return getattr(self._local, "op", None)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span_wrapper(
        self,
        fn: Callable,
        name,
        after: Optional[Callable[[OpTrace, Span, tuple, Any], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each traced call is a span named ``name``.

        ``name`` may be a callable of the call's positional arguments;
        ``after(op, span, args, result)`` records counters from the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._current_op()
            if op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(op, span, args, result)
            return result

        return wrapper

    def leaf_wrapper(self, fn: Callable, name: str) -> Callable:
        """Wrap a hot leaf ``fn``: aggregate count and time, no span."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._current_op()
            if op is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = op.leaves[name]
                entry[0] += 1
                entry[1] += elapsed
                tracer._local.stack[-1].child += elapsed

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Install every entry-point wrapper for the block's duration."""
        install_entry_points(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


class _ModuleProxy:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_entry_points(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.core.solver as solver_module
    import repro.engine.core as engine_core
    import repro.pipeline.manager as pipeline_manager
    import repro.pipeline.stages as pipeline_stages
    import repro.simulators.backends as backends
    import repro.simulators.sparse_noisy  # noqa: F401 -- registers a Backend subclass
    import repro.simulators.sparsestate as sparsestate
    from repro.problems.base import ConstrainedBinaryProblem

    solver_cls = solver_module.RasenganSolver
    engine_cls = engine_core.ExecutionEngine

    def on_solve(op, span, args, result):
        span.attrs["evals"] = result.iterations

    def on_transition(op, span, args, result):
        op.counters["simulators.sparse.amplitudes"] += len(args[0].amplitudes)

    def on_sampling(op, span, args, result):
        op.counters["simulators.sampling.shots"] += args[1]

    def on_backend(op, span, args, result):
        op.counters["simulators.backend.shots"] += args[2]

    def on_purify(op, span, args, result):
        op.counters["core.purification.keys"] += len(args[0])
        op.counters["core.purification.mass_in"] += math.fsum(args[0].values())
        op.counters["core.purification.mass_kept"] += result[1]

    wrap = tracer.span_wrapper
    tracer.patch(
        solver_cls,
        "__init__",
        wrap(solver_cls.__dict__["__init__"], "core.solver.construct"),
    )
    tracer.patch(
        solver_cls, "solve", wrap(solver_cls.__dict__["solve"], "core.solver.solve", on_solve)
    )
    tracer.patch(
        solver_cls, "execute", wrap(solver_cls.__dict__["execute"], "core.solver.execute")
    )
    sciopt = solver_module.sciopt
    tracer.patch(
        solver_module,
        "sciopt",
        _ModuleProxy(sciopt, minimize=wrap(sciopt.minimize, "core.solver.cobyla")),
    )
    tracer.patch(
        pipeline_manager.SolvePipeline,
        "artifact",
        wrap(
            pipeline_manager.SolvePipeline.__dict__["artifact"],
            lambda pipeline, stage: f"pipeline.{stage}",
        ),
    )
    tracer.patch(
        engine_cls,
        "run_segment",
        wrap(engine_cls.__dict__["run_segment"], "engine.run_segment"),
    )
    tracer.patch(
        engine_cls,
        "segment_circuit",
        wrap(engine_cls.__dict__["segment_circuit"], "engine.bind"),
    )
    tracer.patch(
        sparsestate.SparseState,
        "apply_transition",
        wrap(
            sparsestate.SparseState.__dict__["apply_transition"],
            "simulators.sparse",
            on_transition,
        ),
    )
    tracer.patch(
        engine_core,
        "counts_from_probabilities",
        wrap(engine_core.counts_from_probabilities, "simulators.sampling", on_sampling),
    )
    for backend_cls in _subclasses(backends.Backend):
        if "run" in backend_cls.__dict__:
            tracer.patch(
                backend_cls,
                "run",
                wrap(backend_cls.__dict__["run"], "simulators.backend", on_backend),
            )
    tracer.patch(
        pipeline_stages,
        "purify_probabilities",
        wrap(pipeline_stages.purify_probabilities, "core.purification", on_purify),
    )
    for attr, name in (("is_feasible", "problems.feasibility"), ("value", "problems.value")):
        tracer.patch(
            ConstrainedBinaryProblem,
            attr,
            tracer.leaf_wrapper(ConstrainedBinaryProblem.__dict__[attr], name),
        )


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# Per-layer summaries
# ----------------------------------------------------------------------
def span_table(ops: List[OpTrace]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, self seconds (summed over ops)."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for op in ops:
        for span in op.spans:
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
        for name, (calls, seconds) in op.leaves.items():
            row = table[name]
            row["calls"] += calls
            row["total_s"] += seconds
            row["self_s"] += seconds
    return dict(table)


def root_wall(ops: List[OpTrace]) -> float:
    """Wall time of the ops' root spans (one per op)."""
    return sum(span.duration for op in ops for span in op.spans if span.parent is None)


def unattributed(ops: List[OpTrace]) -> float:
    """Self time of orchestration spans: covered by no layer span."""
    return sum(
        span.self_time for op in ops for span in op.spans if span.name in ORCHESTRATION
    )
