"""Correctness oracle run by the benchmark on every operation's output.

It recomputes everything from the returned distribution with its own
arithmetic (little-endian key decoding, a vectorised ``C x = b`` test,
``math.fsum`` sums) and shares no feasibility code with the solver.  The
objective values and the optimum come from the problem instance, which
defines them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

import numpy as np

#: Relative tolerance on recomputed expectation and ARG.
RTOL = 1e-9
#: Absolute tolerance on the total probability.
MASS_TOL = 1e-9


def _decode(keys: List[int], n: int) -> np.ndarray:
    """Rows of 0/1 variables, bit ``i`` of the key = variable ``i``."""
    return np.array([[(key >> i) & 1 for i in range(n)] for key in keys], dtype=np.int64)


def check_distribution(
    problem, distribution: Mapping[int, float], expectation: float, arg: float
) -> List[str]:
    """Problems found with one solve's output; empty when it is correct."""
    errors: List[str] = []
    if not distribution:
        return ["empty final distribution"]
    keys = sorted(int(key) for key in distribution)
    probs = [float(distribution[key]) for key in keys]
    bits = _decode(keys, problem.num_variables)
    residual = bits @ np.asarray(problem.constraint_matrix, dtype=np.int64).T
    infeasible = np.any(residual != np.asarray(problem.bound, dtype=np.int64), axis=1)
    if infeasible.any():
        errors.append(f"{int(infeasible.sum())} keys violate C x = b")
    total = math.fsum(probs)
    if abs(total - 1.0) > MASS_TOL:
        errors.append(f"probabilities sum to {total!r}")
    values = [problem.value(row) for row in bits]
    recomputed = math.fsum(p * v for p, v in zip(probs, values)) / total
    if not math.isclose(recomputed, expectation, rel_tol=RTOL, abs_tol=RTOL):
        errors.append(f"expectation {expectation!r} != recomputed {recomputed!r}")
    optimum = problem.optimal_value
    denominator = abs(optimum) or 1.0
    recomputed_arg = abs((optimum - recomputed) / denominator)
    if not math.isclose(recomputed_arg, arg, rel_tol=RTOL, abs_tol=RTOL):
        errors.append(f"ARG {arg!r} != recomputed {recomputed_arg!r}")
    return errors


def check_result(problem, result) -> List[str]:
    """Oracle for a :class:`~repro.core.solver.RasenganResult`."""
    if result.failed:
        return ["solver returned failed=True"]
    return check_distribution(
        problem, result.final_distribution, result.expectation_value, result.arg
    )


def check_record(problem, record: Dict) -> List[str]:
    """Oracle for a service result record (``to_json_dict`` wire format)."""
    distribution = {int(key): value for key, value in record["distribution"].items()}
    return check_distribution(problem, distribution, record["expectation"], record["arg"])
