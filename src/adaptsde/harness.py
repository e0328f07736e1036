"""Monte-Carlo strong-convergence and efficiency experiments.

The measurement protocol, per ``h_max`` and per chunk of samples
(``_run_chunk``, one per worker):

1. solve every sample path of the chunk with the adaptive semi-implicit
   scheme, on the path a fresh :class:`~adaptsde.wiener.WienerPath` would
   draw (seed = master seed XOR sample index), as one march; each result
   equals ``solve()``'s on that path, bit for bit,
2. replay each sample's path from its seed at its mesh's knot times, one
   sample at a time and without storing it, for the moment sums, then skip
   through the draws of its bridge refinement: draw each level's normals and
   throw them away, keeping a generator where the level begins,
3. bisect every adaptive step ``levels`` times with Brownian bridges and
   march the balanced method over the fine grid: that is the reference
   solution for this sample.  The chunk is one block, whose fine steps are
   formed a window of whole adaptive steps at a time, knot values drawn
   afresh from the seeds, and dropped once marched, so its memory does not
   grow with the path,
4. set the uniform step ``h_u = T / round(T / h_bar)`` from the sample's own
   mean adaptive step ``h_bar`` and run every fixed-step scheme on that grid,
   with increments bridged from the same path in the same windows: each
   window values the grid times up to its end, and every fixed-step march
   takes those steps and carries its states on before the next window is
   formed, so the block stores no path values,
5. record, per scheme and in sample order, squared terminal errors against
   the reference, divergence flags, fallback counts and wall times.

Replaying a path reproduces it exactly: the adaptive march only draws
forward, from each sample's own generator, and a fresh path's draws at the
solve's knot times, like a window's forward draws, consume it the same way.
Steps 2-4 draw exactly the normals ``WienerPath.refine_uniform`` and then a
grid query would, so every value is the one a stored refinement gives.

Root-mean-square errors aggregate over samples with NaN exclusion (diverged
runs are counted, not averaged).  Everything is deterministic given the
master seed: every march gives each sample the bits it gets alone, and the
aggregation is ordered by sample index.  So the tables do not change with
the worker count, which sets the contiguous chunks, or the window size.

``mean_cputime_s`` is wall time (``time.perf_counter``), not CPU time: for
every scheme, the wall time of its march's loop divided by its number of
rows, with path generation left out.  A fixed-step scheme's march runs a
window at a time, and its figure is the sum of its loop times over the
windows; the grid values are drawn outside those loops, and the figure
moves with the block size.  Forming the mixed increments ``S dW`` (and
the balanced step's ``|dW|``) from the window's increments happens inside
the timed loop, a chunk of steps at a time, and counts as the scheme's own
work, as when each step formed its noise itself.  The adaptive march draws
its normals as it steps, so it subtracts the time spent drawing.
"""

from __future__ import annotations

import copy
import csv
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .control import propose_steps
from .core import END_SNAP, MeshConfig, SdeProblem, SolveResult, last_step, require_integer
from .problems import problem_by_name
from .schemes import _STACK_SQ, _diverged, _mix, step_balanced, step_map
from .wiener import WienerPath, _bridge_rows, _draw_at

__all__ = [
    "ExperimentConfig",
    "TableRow",
    "OrderFit",
    "RmseResult",
    "MomentStats",
    "ConvergenceTable",
    "rmse",
    "fit_order",
    "run_experiment",
    "write_table_csv",
    "read_table_csv",
    "CSV_HEADER",
    "default_h_grid",
    "default_levels",
    "default_schemes",
]

CSV_HEADER = "problem,scheme,h_max,rho,samples,rmse,mean_cputime_s,mean_adaptive_h,n_backstop,n_diverged,n_excluded,order_slope"

#: Standard benchmark grid; the SPDE system uses a slightly coarser one.
DEFAULT_H_GRID = (0.25, 0.025, 0.0025, 0.00025)
SPDE_H_GRID = (0.25, 0.05, 0.005, 0.0005)


def default_h_grid(problem_name: str) -> tuple[float, ...]:
    return SPDE_H_GRID if problem_name == "spde" else DEFAULT_H_GRID


#: Deepest bridge refinement a sweep accepts.  The reference's memory does
#: not grow with the path, but a window holds at least one adaptive step of
#: it and the march takes every fine step: at 26 levels one adaptive step is
#: 2**26 fine steps, 512 MiB of increments per row and Wiener component.
_MAX_LEVELS = 26


def default_levels(problem_name: str) -> int:
    """Bridge refinement depth for the reference solution."""
    return 4 if problem_name == "spde" else 6


def default_schemes(problem_name: str) -> tuple[str, ...]:
    """The schemes a sweep compares: the truncated one where there is an envelope."""
    base = (
        "adaptive_semi_implicit",
        "drift_implicit",
        "balanced",
        "increment_tamed",
        "fully_tamed",
    )
    if problem_by_name(problem_name).truncation is not None:
        return base + ("truncated",)
    return base


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one convergence experiment.

    ``problem`` is a catalog name (``gbm | fhn05 | fhn01 | gl | svol |
    spde``) so worker processes can rebuild it.  ``schemes`` lists what to
    compare, each once; the adaptive semi-implicit run happens regardless because it
    defines the random mesh and the fixed uniform step.  Empty ``schemes``
    and ``h_max_list`` and a zero ``levels`` take the problem's defaults.
    Every field is checked here, so a bad sweep fails before any worker
    starts.
    """

    problem: str
    schemes: tuple[str, ...] = ()
    h_max_list: tuple[float, ...] = ()
    rho: float = MeshConfig.rho
    samples: int = 100
    levels: int = 0
    master_seed: int = 0

    def __post_init__(self):
        problem = problem_by_name(self.problem)  # raises on an unknown name
        for key in ("samples", "levels", "master_seed"):
            require_integer(key, getattr(self, key))
        object.__setattr__(self, "schemes", tuple(self.schemes) or default_schemes(self.problem))
        object.__setattr__(
            self, "h_max_list", tuple(self.h_max_list) or default_h_grid(self.problem)
        )
        if self.levels == 0:
            object.__setattr__(self, "levels", default_levels(self.problem))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.levels > _MAX_LEVELS:
            raise ValueError(f"levels must be <= {_MAX_LEVELS}, got {self.levels}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for h in self.h_max_list:
            MeshConfig(h, self.rho)  # raises on a bad h_max or rho
        for key in ("h_max_list", "schemes"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ValueError(f"{key} repeats a value: {values}")
        for s in self.schemes:
            step_map(problem, s)  # raises on an unknown scheme or a missing envelope
        if "adaptive_explicit" in self.schemes:
            raise ValueError(
                "experiments compare schemes on the adaptive semi-implicit mesh; "
                "run the adaptive explicit scheme directly through solve()"
            )


@dataclass(frozen=True)
class RmseResult:
    """Root-mean-square error with the excluded (non-finite) sample count."""

    value: float
    n_excluded: int


def rmse(errors: Sequence[float]) -> RmseResult:
    """Square root of the mean of the finite squared errors.

    Diverged samples contribute NaN squared errors; they are excluded from
    the mean and reported in ``n_excluded``.  An all-NaN input yields a NaN
    value.
    """
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("rmse needs at least one entry")
    finite = np.isfinite(arr)
    n_exc = int(arr.size - finite.sum())
    if n_exc == arr.size:
        return RmseResult(value=float("nan"), n_excluded=n_exc)
    return RmseResult(value=float(np.sqrt(arr[finite].mean())), n_excluded=n_exc)


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(rmse) against log(h_max)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    @property
    def ok(self) -> bool:
        """Whether there is a finite slope: two or more distinct usable ``h``."""
        return bool(np.isfinite(self.slope))


def fit_order(h_values: Sequence[float], rmse_values: Sequence[float]) -> OrderFit:
    """Empirical strong order: fit ``log(rmse) = slope*log(h) + intercept``.

    Non-finite or non-positive RMSE entries are dropped; with fewer than two
    distinct usable ``h`` values the fit is flagged insufficient (NaN slope,
    ``ok`` False).
    """
    h = np.asarray(list(h_values), dtype=float)
    r = np.asarray(list(rmse_values), dtype=float)
    keep = np.isfinite(r) & (r > 0) & np.isfinite(h) & (h > 0)
    h, r = h[keep], r[keep]
    if np.unique(h).size < 2:
        return OrderFit(float("nan"), float("nan"), float("nan"), int(h.size))
    x, y = np.log(h), np.log(r)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return OrderFit(float(slope), float(intercept), float(r2), int(h.size))


@dataclass
class TableRow:
    scheme: str
    h_max: float
    rmse: float
    n_excluded: int
    mean_cputime_s: float
    mean_adaptive_h: float
    n_backstop: int
    n_diverged: int


@dataclass
class MomentStats:
    """Pooled conditional-moment accumulators over all adaptive steps.

    ``dw_sum`` adds up ``dW_i / sqrt(h)`` over every step and component;
    ``normsq_sum`` adds up ``||dW||^2 / h`` over every step.  If the step
    increments have the right conditional distribution, ``dw_sum / (n m)``
    is near zero and ``normsq_sum / n`` near ``m``.
    """

    dw_sum: float = 0.0
    normsq_sum: float = 0.0
    n_steps: int = 0
    m: int = 1

    def mean_dw(self) -> float:
        return self.dw_sum / (self.n_steps * self.m)

    def mean_normsq(self) -> float:
        return self.normsq_sum / self.n_steps


@dataclass
class ConvergenceTable:
    """Aggregated experiment output: one row per (scheme, h_max) plus fits."""

    problem: str
    rho: float
    samples: int
    rows: list[TableRow]
    slopes: dict[str, OrderFit]
    moments: Optional[MomentStats] = None


# -- the per-sample engine ----------------------------------------------------

#: Forward normals each row of the adaptive march draws per generator call.
_DRAW_CHUNK = 256

#: Steps of a fixed-step march whose y-independent operands are formed at once.
_STEP_CHUNK = 256

#: Bytes of step sizes and increments one window of a refinement forms at
#: once, but at least one ``_STEP_CHUNK``: about 1 MB on 5 ``spde`` rows
#: (m = 101).  Its fine times, values and bridge scratch take as much again.
_FORM_BYTES = 3 << 17

#: Normals a skip pass draws and throws away per generator call.
_SKIP_DRAWS = 1 << 13


def _march(problem: SdeProblem, step, y: np.ndarray, source, rows=slice(None)) -> tuple:
    """The one batched march: the ``rows`` of the states ``y``, (k, d), each
    until it finishes or diverges; ``y`` is updated in place.

    At step n, ``source(n, rows, y)`` takes the active rows and their states
    and returns ``(h, dW, done, balanced, operands)`` for them: step sizes,
    increments, the rows that finish with this step and the rows that take
    a balanced step instead of ``step``'s (each None if no row does), and
    the operands that follow ``dW`` in the call to ``step``: the drift
    response an adaptive step reuses, or a fixed step's mixed increments
    ``S dW`` (and ``|dW|`` for the balanced step).  ``rows`` is
    ``slice(None)`` while every row is active, so rows are views; after the
    first row drops, an index array.  Balanced rows take one stacked
    balanced step and count as fallbacks.  Returns the diverged mask,
    fallback counts, steps per row and the loop's wall time.
    """
    k = len(y)
    diverged = np.zeros(k, dtype=bool)
    n_fallback = np.zeros(k, dtype=int)
    n_steps = np.zeros(k, dtype=int)
    n = 0
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while True:
            ya = y[rows]
            h, dW, done, balanced, operands = source(n, rows, ya)
            yn, fell = step(ya, h, dW, *operands)
            if balanced is not None and balanced.any():
                yn[balanced] = step_balanced(problem, ya[balanced], h[balanced], dW[balanced])
                fell = balanced if fell is None else fell | balanced
            if fell is not None:
                n_fallback[rows] += fell
            y[rows] = yn
            n += 1
            yy = np.vdot(yn, yn)
            if done is None and yy <= _STACK_SQ:
                continue  # no row finishes, and _diverged would clear them all
            bad = _diverged(yn, yy)
            drop = bad if done is None else bad | done
            if np.count_nonzero(drop):  # a third of .any()'s cost on a small mask
                idx = np.arange(k)[rows]
                diverged[idx[bad]] = True
                n_steps[idx[drop]] = n
                rows = idx[~drop]
                if not rows.size:
                    break
    return diverged, n_fallback, n_steps, time.perf_counter() - t0


def _march_batch(problem: SdeProblem, scheme: str, grid, y=None, rows=slice(None)) -> tuple:
    """March a batch of samples with one fixed-step scheme over ``grid``.

    Row i takes ``grid.lengths[i]`` steps, at least one, from its state in
    ``y`` (``x0`` if None), which the march updates in place; only ``rows``
    march.  The steps come from ``grid.chunk`` ``_STEP_CHUNK`` at a time,
    step-major, with their ``S dW`` formed in one stacked product, and for
    the balanced scheme their ``|dW|`` too, so each step reads contiguous
    views and its step map skips that work; once rows drop, each step
    gathers its rows from the chunk.  Returns (states, diverged mask,
    fallback counts, wall time).
    """
    step = step_map(problem, scheme)
    lengths = grid.lengths
    if y is None:
        y = np.broadcast_to(problem.x0, (len(lengths), problem.d)).copy()
    # Which rows finish is worked out only at the steps where some row does.
    ends = set(lengths[rows].tolist())
    last = max(ends)
    absolute = scheme == "balanced"
    hs = dws = noises = abs_dws = buffers = None

    def source(n, rows, y):
        nonlocal hs, dws, noises, abs_dws, buffers
        j = n % _STEP_CHUNK
        if j == 0:
            hs, dws = grid.chunk(n, min(n + _STEP_CHUNK, last))
            if buffers is None:  # the first chunk is the longest; the others reuse its buffers
                buffers = np.empty((*dws.shape[:2], problem.d)), np.empty(dws.shape) if absolute else None
            noises = _mix(problem, dws, out=buffers[0][: len(dws)])
            abs_dws = np.abs(dws, out=buffers[1][: len(dws)]) if absolute else None
        done = lengths[rows] == n + 1 if n + 1 in ends else None
        if absolute:
            return hs[j, rows], dws[j, rows], done, None, (noises[j, rows], abs_dws[j, rows])
        return hs[j, rows], dws[j, rows], done, None, (noises[j, rows],)

    diverged, n_fallback, _, elapsed = _march(problem, step, y, source, rows)
    return y, diverged, n_fallback, elapsed


class _GridMarch:
    """One fixed-step scheme's march over a block's uniform grids, resumed
    window by window: its states, divergence flags, fallback counts and
    loop time carry over from one window to the next."""

    def __init__(self, problem: SdeProblem, scheme: str, k: int):
        self.problem, self.scheme = problem, scheme
        self.y = np.broadcast_to(problem.x0, (k, problem.d)).copy()
        self.diverged = np.zeros(k, dtype=bool)
        self.n_fallback = np.zeros(k, dtype=int)
        self.elapsed = 0.0

    def take(self, grid) -> None:
        """March each row that has not diverged over its ``grid.lengths[i]`` steps."""
        rows = np.flatnonzero((grid.lengths > 0) & ~self.diverged)
        if len(rows):
            _, diverged, n_fallback, elapsed = _march_batch(
                self.problem, self.scheme, grid, self.y, rows if len(rows) < len(self.y) else slice(None)
            )
            self.diverged |= diverged
            self.n_fallback += n_fallback
            self.elapsed += elapsed


def _grid_times(T: float, n: int, lo: int, hi: int) -> np.ndarray:
    """Times ``lo..hi - 1`` of ``np.linspace(0.0, T, n + 1)``, bit for bit."""
    g = np.arange(lo, hi) * (T / n)
    if lo < hi == n + 1:
        g[-1] = T
    return g


class _GridWindows:
    """The uniform grids ``np.linspace(0, T, n[i] + 1)``, valued a window at
    a time and marched by every fixed-step scheme as soon as they are valued.

    :meth:`serve` values each row's grid times up to the end of one of the
    reference's windows, from that window's fine times and values: a time
    inside a fine interval is bridged, drawing from ``rngs[i]``, the
    generator past row i's refinement, as ``WienerPath._draw_many`` would
    draw after ``refine_uniform``.  :meth:`finish` draws the times past a
    row's last knot (a diverged adaptive solve's) forward, ``_STEP_CHUNK`` at
    a time.  Either way the steps whose right end was valued go to each of
    ``marches`` (``take(self)``): this object is then a depth-0 source in
    which row i has ``lengths[i]`` steps, differenced as ``np.diff`` of the
    grid and its values would be.  Between windows it keeps each row's last
    grid time and value, and buffers as long as the longest window's steps.
    """

    def __init__(self, T: float, n: Sequence[int], rngs, m: int, marches):
        k = len(n)
        self.T, self.n, self.rngs, self.marches = T, list(n), rngs, marches
        self.served = [1] * k  # grid times valued so far; time 0 is W = 0
        self.t, self.w = np.zeros(k), np.zeros((k, m))  # each row's last grid time and value
        self.lengths = np.zeros(k, dtype=int)
        self.hs, self.dws = np.zeros((0, k)), np.zeros((0, k, m))

    def chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """This window's steps ``lo..hi - 1``: (step sizes (n, k), increments (n, k, m))."""
        return self.hs[lo:hi], self.dws[lo:hi]

    def serve(self, t, w) -> None:
        """Value the grid times up to each row's end of the window with fine
        times ``t`` (k, P) and values ``w`` (k, P, m), and march them."""
        k, P, m = w.shape
        new, host = [], []
        for i, (n, lo) in enumerate(zip(self.n, self.served)):
            end = t[i, -1]
            g = _grid_times(self.T, n, lo, min(n + 1, int(end / (self.T / n)) + 2))
            new.append(g[: np.searchsorted(g, end, side="right")])
            host.append(np.searchsorted(t[i], new[-1]) + i * P)

        def normals(h, out):
            ends = np.cumsum(np.bincount(h // P, minlength=k)).tolist()
            for rng, lo, hi in zip(self.rngs, [0] + ends, ends):
                rng.standard_normal(out=out[lo:hi])

        ts = np.concatenate(new)
        self._take(ts, _draw_at(normals, t.ravel(), w.reshape(-1, m), ts, np.concatenate(host))[0], new)

    def finish(self, t, w) -> None:
        """Value and march the grid times past each row's last knot, at time
        ``t[i]`` with value ``w[i]``, drawn forward from there."""
        t, w = t.copy(), w.copy()  # where each row's next draws start
        while any(lo <= n for n, lo in zip(self.n, self.served)):
            new, vals = [], []
            for i, (n, lo, rng) in enumerate(zip(self.n, self.served, self.rngs)):
                new.append(_grid_times(self.T, n, lo, min(n + 1, lo + _STEP_CHUNK)))
                if len(new[-1]):
                    normals = lambda h, out: rng.standard_normal(out=out)
                    vals.append(_draw_at(normals, t[i : i + 1], w[i : i + 1], new[-1])[0])
                    t[i], w[i] = new[-1][-1], vals[-1][-1]
            self._take(np.concatenate(new), np.concatenate(vals), new)

    def _take(self, ts, vals, new) -> None:
        """Hand every march the steps to the grid times ``ts`` with values
        ``vals``, row by row, ``len(new[i])`` of them in row i."""
        self.lengths = counts = np.array([len(g) for g in new])
        if not len(ts):
            return
        starts = np.cumsum(counts) - counts
        has = np.flatnonzero(counts)
        first, last = starts[has], starts[has] + counts[has] - 1
        n = counts.max()
        if n > len(self.hs):
            self.hs, self.dws = np.zeros((n, *self.hs.shape[1:])), np.zeros((n, *self.dws.shape[1:]))
        rows = np.repeat(np.arange(len(counts)), counts)
        cols = np.arange(len(ts)) - starts[rows]
        dt, dw = np.empty_like(ts), np.empty_like(vals)
        np.subtract(ts[1:], ts[:-1], out=dt[1:])
        np.subtract(vals[1:], vals[:-1], out=dw[1:])
        dt[first], dw[first] = ts[first] - self.t[has], vals[first] - self.w[has]
        self.hs[cols, rows], self.dws[cols, rows] = dt, dw
        self.t[has], self.w[has] = ts[last], vals[last]
        self.served = [lo + c for lo, c in zip(self.served, counts.tolist())]
        for march in self.marches:
            march.take(self)


def _bisections(knots: np.ndarray, levels: int, out: list):
    """Yields ``refine_uniform``'s bisections ``(a + b) * 0.5`` of the row-major
    times ``knots``, level by level, into the buffers ``out`` by turns, the last into ``out[0]``."""
    fine = knots
    for l in range(levels):
        pts, fine = fine, out[(levels - 1 - l) % 2][:, : 2 * fine.shape[1] - 1]
        fine[:, ::2] = pts
        mid = np.add(pts[:, :-1], pts[:, 1:], out=fine[:, 1::2])
        mid *= 0.5
        yield fine


class _RefinedChunks:
    """The steps of the grids ``refine_uniform(times[i], levels)``, formed a
    window at a time, in time order, as the march asks for them.

    Row i's values at ``times[i]`` are drawn each window from a fresh
    generator seeded ``seeds[i]``, forward and cumulated as ``_draw_at``
    extends a path: the values ``WienerPath(m, seeds[i]).value_at_many(times[i])``
    gives.  ``rngs[i]`` is row i's generator where ``refine_uniform`` would
    begin to draw.  A skip pass counts each level's draws from the bisected
    times and gives each (row, level) a generator where they begin;
    ``refine_uniform`` draws level by level, left to right, so each serves
    its level's windows in order.  A window is whole coarse steps and whole
    ``_STEP_CHUNK`` chunks of about ``_FORM_BYTES``, stacked over rows.  A
    midpoint equal to an end of its interval (deep levels, or a row's
    padding) takes that end's value and draws nothing, as ``refine_uniform``
    keeps a knot.  So each window is ``np.diff`` of the refined grid and
    values, bit for bit.  Each formed window's fine times and values go to
    ``grids``, a :class:`_GridWindows`, and :meth:`finish` forms
    the windows the march did not ask for and then finishes ``grids``.  At
    ``levels`` 0 the grids are the times themselves.
    """

    def __init__(self, times, m: int, levels: int, seeds, rngs, grids):
        k, n = len(times), max(map(len, times))
        # A row's last knot pads it, so its padding bisects into steps of 0.
        self.knots = np.empty((k, n))
        for i, t in enumerate(times):
            self.knots[i], self.knots[i, : len(t)] = t[-1], t
        self.steps = np.array([len(t) - 1 for t in times])
        self.levels, self.lengths = levels, self.steps << levels
        unit = max(_STEP_CHUNK, 1 << levels)  # both powers of two
        span = unit * max(1, _FORM_BYTES // (unit * k * (m + 1) * 8))
        self.hs, self.dws = np.empty((span, k)), np.empty((span, k, m))
        # Every window reuses one set of buffers: the last two levels' times
        # and values, and the last level's normals and bridge scratch.
        self.times = [np.empty((k, span + 1)), np.empty((k, span // 2 + 1))]
        self.values = [np.empty((k, span + 1, m)), np.empty((k, span // 2 + 1, m))]
        self.z, self.work = np.empty((k * span // 2, m)), np.empty((3, k, span // 2))
        self.span = span >> levels  # coarse steps per window
        self.end = self.base = 0  # coarse steps formed: the window is base..end - 1
        self.knot_rngs = [np.random.default_rng(s) for s in seeds]
        self.w = np.empty((k, self.span + 1, m))  # a window's knot values
        self.last = np.zeros((k, m))  # each row's value at the end of the last window
        counts = np.zeros((k, levels), dtype=int)
        for c in range(0, n - 1, self.span):
            for l, fine in enumerate(_bisections(self.knots[:, c : c + self.span + 1], levels, self.times)):
                counts[:, l] += np.count_nonzero(self._drawn(fine)[1], axis=1)
        self.cursors, scratch = [[] for _ in rngs], np.empty(_SKIP_DRAWS)
        for rng, cursors, row in zip(rngs, self.cursors, (counts * m).tolist()):
            for c in row:  # a generator where each level's draws begin
                cursors.append(np.random.Generator(copy.copy(rng.bit_generator)))
                for lo in range(0, c, _SKIP_DRAWS):  # drawn and thrown away
                    rng.standard_normal(out=scratch[: min(_SKIP_DRAWS, c - lo)])
        self.grids = grids

    @staticmethod
    def _drawn(fine):
        """Which midpoints of a bisection ``fine`` equal their left end, and
        which draw: those equal to neither end."""
        a, b, mid = fine[:, :-1:2], fine[:, 2::2], fine[:, 1::2]
        at_a = mid == a
        return at_a, ~at_a & (mid != b)

    def _bisect_values(self, l: int, fine, w) -> np.ndarray:
        """Level ``l``'s values at the bisection ``fine`` of the times where they are ``w``."""
        out = self.values[(self.levels - 1 - l) % 2][:, : fine.shape[1]]
        out[:, ::2] = w
        wa, wb, wm = w[:, :-1], w[:, 1:], out[:, 1::2]
        at_a, drawn = self._drawn(fine)
        ends = np.cumsum(np.count_nonzero(drawn, axis=1)).tolist()
        z = self.z[: ends[-1]]
        for cursors, lo, hi in zip(self.cursors, [0] + ends, ends):
            cursors[l].standard_normal(out=z[lo:hi])
        every = len(z) == drawn.size
        if not every:  # midpoints on an end draw nothing
            z, drawn_z = np.zeros(wm.shape), z
            z[drawn] = drawn_z
        with np.errstate(invalid="ignore", divide="ignore"):
            work = self.work[:, :, : wm.shape[1]]
            _bridge_rows(fine[:, 1::2], fine[:, :-1:2], fine[:, 2::2], wa, wb, z.reshape(wm.shape), wm, work)
        if not every:  # and keep that end's value
            np.copyto(wm, np.where(at_a[..., None], wa, wb), where=~drawn[..., None])
        return out

    def _draw_knots(self, t) -> np.ndarray:
        """The window's knot values at its times ``t``, from the last window's
        end: each row's forward draws from its own generator, cumulated."""
        w = self.w[:, : t.shape[1]]
        w[:, 0] = self.last
        dt, z = np.diff(t, axis=1), w[:, 1:]
        for rng, zi, n in zip(self.knot_rngs, z, np.clip(self.steps - self.end, 0, len(dt[0])).tolist()):
            rng.standard_normal(out=zi[:n])
            zi[n:] = 0.0  # past the row's last knot
        z *= np.sqrt(dt)[..., None]
        return np.cumsum(w, axis=1, out=w)

    def _form(self) -> None:
        """The next window's step-major sizes and increments; its fine times
        and values go to the uniform grids."""
        c0 = self.end
        c1 = min(c0 + self.span, self.knots.shape[1] - 1)
        t = self.knots[:, c0 : c1 + 1]
        w = self._draw_knots(t)
        self.last[:] = w[:, -1]
        for l, t in enumerate(_bisections(t, self.levels, self.times)):
            w = self._bisect_values(l, t, w)
        self.grids.serve(t, w)
        n = t.shape[1] - 1
        np.subtract(t[:, 1:], t[:, :-1], out=self.hs[:n].T)
        np.subtract(w[:, 1:], w[:, :-1], out=self.dws[:n].transpose(1, 0, 2))
        self.base, self.end = c0, c1

    def chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Fine steps ``lo..hi - 1``, asked for in order and each inside one
        window: (step sizes (n, k), increments (n, k, m))."""
        while hi > self.end << self.levels:
            self._form()
        lo, hi = lo - (self.base << self.levels), hi - (self.base << self.levels)
        return self.hs[lo:hi], self.dws[lo:hi]

    def finish(self) -> None:
        """Form the windows the march did not ask for, then finish the
        uniform grids past each row's last knot."""
        while self.end < self.knots.shape[1] - 1:
            self._form()
        self.grids.finish(self.knots[:, -1], self.last)


def _solve_adaptive_batch(
    problem: SdeProblem, mesh_config: MeshConfig, seeds: Sequence[int]
) -> list[SolveResult]:
    """Protocol step 1: adaptive semi-implicit solves on fresh paths, as one march.

    Row i takes the steps ``solve()`` takes on ``WienerPath(m, seeds[i])``:
    the same controller decisions, backstop steps, final step onto T and
    divergence test, and the same forward draws.  Each row has its own
    generator and draws its normals ``_DRAW_CHUNK`` steps at a time, which
    consumes the stream as single draws do, and forms its increment as
    ``WienerPath`` does, ``(w + sqrt(t_next - t) z) - w``.  So every result
    equals ``solve()``'s bit for bit, whatever the other rows are.

    A row finishes when it lands on T; its floor hits are the march's
    balanced rows.  Each result's ``wall_time`` is the march's wall time,
    less the time spent drawing normals, divided by the number of rows.
    """
    k, m, T = len(seeds), problem.m, problem.t_end
    t_stop = T - END_SNAP * T
    rngs = [np.random.default_rng(seed) for seed in seeds]
    z = np.empty((k, _DRAW_CHUNK, m))
    w = np.zeros((k, m))
    t = np.zeros(k)
    mesh = np.empty((64, k))
    draw_s = 0.0

    def source(n, rows, y):
        nonlocal mesh, draw_s
        j = n % _DRAW_CHUNK
        if j == 0:
            t_draw = time.perf_counter()
            for i in np.arange(k)[rows]:
                z[i] = rngs[i].standard_normal((_DRAW_CHUNK, m))
            draw_s += time.perf_counter() - t_draw
        if n == len(mesh):
            mesh = np.concatenate([mesh, np.empty_like(mesh)])
        f_y = problem.f(y)
        h, backstop = propose_steps(y, f_y, mesh_config)
        ta = t[rows]
        final = ta + h >= t_stop
        if final.any():
            h[final] = last_step(ta[final], T)
            backstop &= ~final
        t_next = np.where(final, T, ta + h)
        wa = w[rows]
        wn = wa + np.sqrt(t_next - ta)[:, None] * z[rows, j]
        # Formed before w is written: while rows is a slice, wa is a view.
        dW = wn - wa
        t[rows], w[rows], mesh[n, rows] = t_next, wn, h
        return h, dW, final, backstop, (f_y,)

    step = step_map(problem, "adaptive_semi_implicit")
    y = np.broadcast_to(problem.x0, (k, problem.d)).copy()
    diverged, n_backstop, n_steps, elapsed = _march(problem, step, y, source)
    wall = (elapsed - draw_s) / k
    return [
        SolveResult(y[i].copy(), mesh[: n_steps[i], i].copy(), int(n_backstop[i]), wall, bool(diverged[i]))
        for i in range(k)
    ]


def _run_block(
    config: ExperimentConfig, problem: SdeProblem, seeds: Sequence[int], solved: Sequence[SolveResult]
) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, ...]]]:
    """Protocol steps 2-5 for a block of samples whose adaptive solves are done.

    ``seeds`` are the samples' path seeds.  The adaptive march only draws
    forward, so drawing a fresh path with the same seed at the solve's knot
    times replays its draws exactly, for the moment sums; its generator then
    stands where ``refine_uniform`` would begin.  The replay takes one
    sample at a time, draws its values without merging them into the path
    and turns them into increments in place.  The reference march forms its
    steps from the seeds and those generators a window at a time
    (:class:`_RefinedChunks`); each window values the uniform grids up to
    its end (:class:`_GridWindows`), and every fixed-step march
    (:class:`_GridMarch`) takes those steps before the next window is
    formed.  Between windows the block keeps its knot times and arrays
    that do not grow with the path.

    Returns each sample's two :class:`MomentStats` sums as a (k, 2) array
    and, per scheme, four columns in sample order: squared terminal errors
    against the reference (NaN where the scheme or the reference diverged),
    divergence flags, backstop or fallback counts and wall times.
    """
    T, m, k = problem.t_end, problem.m, len(seeds)
    moments = np.empty((k, 2))
    knots, rngs, steps = [], [], []
    for j, (seed, adaptive) in enumerate(zip(seeds, solved)):
        path = WienerPath(m, seed=seed)
        knots.append(adaptive.mesh_times())
        # Conditional-moment accumulators for the adaptive mesh, from the
        # increments, formed in place of the values from the end back.
        w, hs = path._draw_many(knots[-1])[0], adaptive.mesh
        normsq = np.empty(len(hs))
        for hi in range(len(hs), 0, -_STEP_CHUNK):
            lo = max(hi - _STEP_CHUNK, 0)
            dws = np.subtract(w[lo + 1 : hi + 1], w[lo:hi], out=w[lo + 1 : hi + 1])
            normsq[lo:hi] = np.square(dws).sum(axis=1)
        dws = w[1:]
        moments[j, 1] = (normsq / hs).sum()
        moments[j, 0] = np.divide(dws, np.sqrt(hs)[:, None], out=dws).sum()
        rngs.append(path.rng)
        steps.append(max(1, int(round(T / adaptive.mean_h))))
        del path, w, dws  # before the next sample's, and before the marches

    marches = {s: _GridMarch(problem, s, k) for s in config.schemes if s != "adaptive_semi_implicit"}
    grids = _GridWindows(T, steps, rngs, m, list(marches.values()))
    reference = _RefinedChunks(knots, m, config.levels, seeds, rngs, grids)
    del knots
    ref_y, ref_div, _, _ = _march_batch(problem, "balanced", reference)
    reference.finish()
    del reference, grids

    columns = {}
    for scheme in config.schemes:
        if scheme == "adaptive_semi_implicit":
            y = np.array([r.y_terminal for r in solved])
            div = np.array([r.diverged for r in solved])
            fall = np.array([r.n_backstop for r in solved])
            wall = np.array([r.wall_time for r in solved])
        else:
            march = marches[scheme]
            y, div, fall, wall = march.y, march.diverged, march.n_fallback, np.full(k, march.elapsed / k)
        diff = y - ref_y
        with np.errstate(over="ignore", invalid="ignore"):
            sq_err = np.vecdot(diff, diff)
        columns[scheme] = (np.where(div | ref_div, np.nan, sq_err), div, fall, wall)
    return moments, columns


def _run_chunk(config: ExperimentConfig, h_max: float, indices: Sequence[int]) -> tuple[list[SolveResult], tuple]:
    """Protocol steps 1-5 for the samples ``indices`` of one ``h_max``, as one
    block: their adaptive solves and ``_run_block``'s results, in sample order.
    """
    problem = problem_by_name(config.problem)
    seeds = [config.master_seed ^ i for i in indices]
    solved = _solve_adaptive_batch(problem, MeshConfig(h_max=h_max, rho=config.rho), seeds)
    return solved, _run_block(config, problem, seeds, solved)


def _worker_count(workers: Optional[int]) -> int:
    source = "workers" if workers is not None else "ADAPTSDE_WORKERS"
    if workers is None:
        env = os.environ.get("ADAPTSDE_WORKERS")
        try:
            workers = int(env or 1)
        except ValueError:
            raise ValueError(f"ADAPTSDE_WORKERS must be an integer, got {env!r}") from None
    require_integer(source, workers)
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ConvergenceTable:
    """Run the whole sweep: every ``h_max``, ``samples`` paths each.

    ``workers`` > 1 splits each ``h_max``'s samples into contiguous chunks,
    and each process runs its chunk end to end (the default comes from the
    ADAPTSDE_WORKERS environment variable, else 1); only then do the pool's
    modules load.  Results are bit-identical for any worker count, which
    sets the blocks: sample seeds and every march treat each sample on its
    own, and the aggregation is ordered by sample index.
    """
    problem = problem_by_name(config.problem)
    nworkers = _worker_count(workers)

    chunks = [c.tolist() for c in np.array_split(np.arange(config.samples), nworkers) if len(c)]
    rows: list[TableRow] = []
    mom = MomentStats(m=problem.m)
    if nworkers > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=nworkers) if nworkers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for h_max in config.h_max_list:
            done = list(run(_run_chunk, repeat(config), repeat(h_max), chunks))
            solved = [r for rs, _ in done for r in rs]
            results = [block for _, block in done]
            # A left-to-right fold over (h_max, sample): np.sum, math.fsum
            # and, from Python 3.12, sum() of floats all round differently.
            for dw_sum, normsq_sum in np.concatenate([mom_k for mom_k, _ in results]).tolist():
                mom.dw_sum += dw_sum
                mom.normsq_sum += normsq_sum
            mom.n_steps += sum(r.n_steps for r in solved)
            mean_ad_h = float(np.mean([r.mean_h for r in solved]))
            for scheme in config.schemes:
                sq_err, div, fall, wall = map(np.concatenate, zip(*(cols[scheme] for _, cols in results)))
                res = rmse(sq_err)
                rows.append(
                    TableRow(
                        scheme=scheme,
                        h_max=h_max,
                        rmse=res.value,
                        n_excluded=res.n_excluded,
                        mean_cputime_s=float(np.mean(wall)),
                        mean_adaptive_h=mean_ad_h,
                        n_backstop=int(fall.sum()),
                        n_diverged=int(div.sum()),
                    )
                )

    slopes = {}
    for scheme in config.schemes:
        srows = [r for r in rows if r.scheme == scheme]
        slopes[scheme] = fit_order([r.h_max for r in srows], [r.rmse for r in srows])

    return ConvergenceTable(
        problem=config.problem,
        rho=config.rho,
        samples=config.samples,
        rows=rows,
        slopes=slopes,
        moments=mom,
    )


# -- CSV serialization --------------------------------------------------------


def write_table_csv(table: ConvergenceTable, fileobj) -> None:
    """Write the table in the fixed column schema; floats as their ``repr``.

    Per-(scheme, h_max) rows leave ``order_slope`` blank; one summary row per
    scheme (blank ``h_max`` and statistics columns) carries the fitted slope.
    """
    out = csv.writer(fileobj, lineterminator="\n")
    out.writerow(CSV_HEADER.split(","))
    for row in table.rows:
        out.writerow([
            table.problem, row.scheme, row.h_max, table.rho, table.samples, row.rmse,
            row.mean_cputime_s, row.mean_adaptive_h, row.n_backstop, row.n_diverged, row.n_excluded, "",
        ])
    for scheme, fit in table.slopes.items():
        out.writerow([table.problem, scheme, "", table.rho, table.samples, *[""] * 6, fit.slope if fit.ok else ""])


def read_table_csv(fileobj) -> ConvergenceTable:
    """Parse a table written by :func:`write_table_csv`.

    Raises ``ValueError`` naming the offending row on malformed input.
    """
    reader = csv.reader(fileobj)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: missing header") from None
    if [c.strip() for c in header] != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {','.join(header)!r}")
    rows: list[TableRow] = []
    slopes: dict[str, OrderFit] = {}
    problem = ""
    rho = float("nan")
    samples = 0
    for lineno, rec in enumerate(reader, start=2):
        if not rec or all(not c for c in rec):
            continue
        if len(rec) != 12:
            raise ValueError(f"row {lineno}: expected 12 columns, got {len(rec)}")
        try:
            problem = rec[0]
            rho = float(rec[3])
            samples = int(rec[4])
            if rec[2] == "":
                slope = float(rec[11]) if rec[11] else float("nan")
                slopes[rec[1]] = OrderFit(slope, float("nan"), float("nan"), 2 if rec[11] else 0)
            else:
                rows.append(
                    TableRow(
                        scheme=rec[1],
                        h_max=float(rec[2]),
                        rmse=float(rec[5]),
                        n_excluded=int(rec[10]),
                        mean_cputime_s=float(rec[6]),
                        mean_adaptive_h=float(rec[7]),
                        n_backstop=int(rec[8]),
                        n_diverged=int(rec[9]),
                    )
                )
        except (ValueError, IndexError) as exc:
            raise ValueError(f"row {lineno}: malformed record {rec!r}: {exc}") from None
    return ConvergenceTable(
        problem=problem, rho=rho, samples=samples, rows=rows, slopes=slopes
    )
