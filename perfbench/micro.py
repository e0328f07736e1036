"""Microbenchmark of the step maps: microseconds per sample-step.

Each step map advances copies of the problem's initial state by one step of
size ``h``.  ``k1`` is one state of shape ``(d,)`` with a scalar ``h``, the
form ``solve()`` uses (``step_drift_implicit_batch`` gets one row of shape
``(1, d)``).  ``kB`` is ``BATCH_ROWS`` rows with a per-row ``h`` array, the
form the harness's batched marches use; 30 is the harness's block size at
gl's finest ``h_max``, and the size at which ROADMAP item 3 compares spde's
per-row cost against ``k = 1``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import STEP_MAPS

BATCH_ROWS = 30
REPEATS = 7
MIN_BATCH_S = 0.02


def _step_call(schemes, problems, name, problem):
    """The step map ``name`` as ``fn(y, h, dW)``, or None if it is gone."""
    fn = getattr(schemes, name, None)
    if fn is None:
        return None
    if name == "step_semi_implicit":
        solver = schemes.LinearSolver(problem)
        return lambda y, h, w: fn(problem, y, h, w, solver=solver)
    if name == "step_truncated":
        mu_inv, H = problems.gl_truncation_functions()
        return lambda y, h, w: fn(problem, y, h, w, mu_inv, H)
    if name == "step_drift_implicit_batch":
        return lambda y, h, w: fn(problem, np.atleast_2d(y), h, np.atleast_2d(w))
    return lambda y, h, w: fn(problem, y, h, w)


def _us_per_row(call, y, h, dw, rows) -> float:
    """Median over REPEATS timed batches of calls, per call and per row."""
    for _ in range(3):
        call(y, h, dw)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            call(y, h, dw)
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            call(y, h, dw)
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6 / rows


def step_map_costs(problem, h: float, seed: int) -> dict[str, dict[str, float | None]]:
    """``{step_name: {"k1": us_per_row, "kB": us_per_row}}``; None if missing."""
    from adaptsde import problems, schemes

    rng = np.random.default_rng([seed, 7])
    out = {}
    for name in STEP_MAPS:
        call = _step_call(schemes, problems, name, problem)
        costs = {}
        inputs = {
            "k1": (problem.x0.copy(), h, np.sqrt(h) * rng.standard_normal(problem.m)),
            "kB": (
                np.broadcast_to(problem.x0, (BATCH_ROWS, problem.d)).copy(),
                np.full(BATCH_ROWS, h),
                np.sqrt(h) * rng.standard_normal((BATCH_ROWS, problem.m)),
            ),
        }
        for label, (y, hv, dw) in inputs.items():
            if call is None:
                costs[label] = None
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                costs[label] = _us_per_row(call, y, hv, dw, len(y) if y.ndim > 1 else 1)
        out[name] = costs
    return out
