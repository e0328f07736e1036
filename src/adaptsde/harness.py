"""Monte-Carlo strong-convergence and efficiency experiments.

The measurement protocol, per ``h_max`` and per chunk of samples
(``_run_chunk``, one per worker):

1. solve every sample path of the chunk with the adaptive semi-implicit
   scheme, on the path a fresh :class:`~adaptsde.wiener.WienerPath` would
   draw (seed = master seed XOR sample index), as one march; each result
   equals ``solve()``'s on that path, bit for bit,
2. replay each sample's path from its seed at its mesh's knot times, one
   sample at a time, for the moment sums, then skip through the draws of its
   bridge refinement: draw each level's normals and throw them away, keeping
   a generator where the level begins,
3. bisect every adaptive step ``levels`` times with Brownian bridges and
   march the balanced method over the fine grid: that is the reference
   solution for this sample.  The chunk is one block, whose fine steps are
   formed a window of whole adaptive steps at a time, knot values drawn
   afresh from the seeds, and dropped once marched, so its memory does not
   grow with the path,
4. set the uniform step ``h_u = T / round(T / h_bar)`` from the sample's own
   mean adaptive step ``h_bar`` and run every fixed-step scheme on that grid,
   with increments bridged from the same path, in the same windows, into
   the block's one stored copy of path values, which each march reads,
5. record, per scheme and in sample order, squared terminal errors against
   the reference, divergence flags, fallback counts and wall times.

Replaying a path reproduces it exactly: the adaptive march only draws
forward, from each sample's own generator, and ``value_at_many`` at the
solve's knot times, like a window's forward draws, consumes it the same way.
Steps 2-4 draw exactly the normals ``WienerPath.refine_uniform`` and then a
grid query would, so every value is the one a stored refinement gives.

Root-mean-square errors aggregate over samples with NaN exclusion (diverged
runs are counted, not averaged).  Everything is deterministic given the
master seed: every march gives each sample the bits it gets alone, and the
aggregation is ordered by sample index.  So the tables do not change with
the worker count, which sets the contiguous chunks, or the window size.

``mean_cputime_s`` is wall time (``time.perf_counter``), not CPU time: for
every scheme, the wall time of its march's loop divided by its number of
rows, with path generation left out.  A fixed-step scheme's grid values
are drawn before its march, so its figure moves with the block size; forming
the step sizes, increments and mixed increments ``S dW`` from them happens
inside the timed loop, a chunk of steps at a time, and counts as the
scheme's own work, as when each step formed its noise itself.  The adaptive
march draws its normals as it steps, so it subtracts the time spent drawing.
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


def _march(problem: SdeProblem, step, k: int, source) -> tuple:
    """The one batched march: k rows from ``x0`` until each finishes or diverges.

    At step n, ``source(n, rows, y)`` takes the active rows and their states
    and returns ``(h, dW, done, balanced, f_y, noise)`` for them: step
    sizes, increments, the rows that finish with this step and the rows that
    take a balanced step instead of ``step``'s (each None if no row does),
    the drift response an adaptive step reuses (None for fixed steps) and
    the mixed increments ``S dW`` a fixed step reuses (None for adaptive).
    ``rows`` is ``slice(None)`` while every row is active, so rows are
    views; after the first row drops, an index array.  Balanced rows take
    one stacked balanced step and count as fallbacks.  Returns the states,
    diverged mask, fallback counts, steps per row and the loop's wall time.
    """
    y = np.broadcast_to(problem.x0, (k, problem.d)).copy()
    diverged = np.zeros(k, dtype=bool)
    n_fallback = np.zeros(k, dtype=int)
    n_steps = np.zeros(k, dtype=int)
    rows, n = slice(None), 0
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while True:
            ya = y[rows]
            h, dW, done, balanced, f_y, noise = source(n, rows, ya)
            yn, fell = step(ya, h, dW, noise=noise) if f_y is None else step(ya, h, dW, f_y)
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
    return y, diverged, n_fallback, n_steps, time.perf_counter() - t0


def _march_batch(problem: SdeProblem, scheme: str, grid: _RefinedChunks) -> tuple:
    """March a batch of samples with one fixed-step scheme over ``grid``.

    Row i takes ``grid.lengths[i]`` steps, at least one.  The steps come
    from ``grid.chunk`` ``_STEP_CHUNK`` at a time, step-major, with their
    ``S dW`` formed in one stacked product, so each step reads contiguous
    views and its step map skips that product; once rows drop, each step
    gathers its rows from the chunk.  Returns (terminal states, diverged
    mask, fallback counts, wall time).
    """
    step = step_map(problem, scheme)
    lengths = grid.lengths
    # Which rows finish is worked out only at the steps where some row does.
    ends = set(lengths.tolist())
    last = int(lengths.max())
    hs = dws = noises = None

    def source(n, rows, y):
        nonlocal hs, dws, noises
        j = n % _STEP_CHUNK
        if j == 0:
            hs, dws = grid.chunk(n, min(n + _STEP_CHUNK, last))
            noises = _mix(problem, dws)
        done = lengths[rows] == n + 1 if n + 1 in ends else None
        return hs[j, rows], dws[j, rows], done, None, None, noises[j, rows]

    y, diverged, n_fallback, _, elapsed = _march(problem, step, len(lengths), source)
    return y, diverged, n_fallback, elapsed


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

    Row i's values at ``times[i]`` are read in place from ``values``, a
    (k, n, m) store with each row padded by its last value, or else drawn
    each window from a fresh generator seeded ``seeds[i]``, forward and
    cumulated as ``_draw_at`` extends a path: the values
    ``WienerPath(m, seeds[i]).value_at_many(times[i])`` gives.  ``rngs[i]``
    is row i's generator where ``refine_uniform`` would begin to draw.  A
    skip pass counts each level's draws from the bisected times and gives
    each (row, level) a generator where they begin; ``refine_uniform`` draws
    level by level, left to right, so each serves its level's windows in
    order.  A window is whole coarse steps and whole ``_STEP_CHUNK`` chunks
    of about ``_FORM_BYTES``, stacked over rows.  A midpoint equal to an end
    of its interval (deep levels, or a row's padding) takes that end's value
    and draws nothing, as ``refine_uniform`` keeps a knot.  So each window
    is ``np.diff`` of the refined grid and values, bit for bit, and the
    times ``grids[i]`` get the values ``WienerPath._draw_many`` would draw
    after the refinement, in one padded store (:meth:`finish`).  At
    ``levels`` 0 the grids are the times themselves.
    """

    def __init__(self, times, m: int, levels: int, values=None, seeds=(), rngs=(), grids=()):
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
        room = span if levels else 0  # depth 0 bisects nothing
        self.times = [np.empty((k, room + 1)), np.empty((k, room // 2 + 1))]
        self.values = [np.empty((k, room + 1, m)), np.empty((k, room // 2 + 1, m))]
        self.z, self.work = np.empty((k * room // 2, m)), np.empty((3, k, room // 2))
        self.span = span >> levels  # coarse steps per window
        self.end = self.base = 0  # coarse steps formed: the window is base..end - 1
        self.coarse, self.knot_rngs = values, [np.random.default_rng(s) for s in seeds]
        self.w = np.empty((k, self.span + 1, m)) if values is None else None  # a window's knot values
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
        self.rngs, self.grids, self.served = rngs, grids, [0] * len(grids)  # grid times valued so far
        self.grid_values = np.empty((k, max(map(len, grids), default=0), m))

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

    def _serve_grids(self, t, w) -> None:
        """Value the grid times up to the window's end, from its times ``t``
        and values ``w`` and each row's own generator."""
        k, P, m = w.shape
        his = [np.searchsorted(g, t[i, -1], side="right") for i, g in enumerate(self.grids)]
        new = [g[lo:hi] for g, lo, hi in zip(self.grids, self.served, his)]
        host = np.concatenate([np.searchsorted(t[i], g) + i * P for i, g in enumerate(new)])
        normals = lambda h: np.concatenate(
            [rng.standard_normal((n, m)) for rng, n in zip(self.rngs, np.bincount(h // P, minlength=k))])
        vals = _draw_at(normals, t.ravel(), w.reshape(-1, m), np.concatenate(new), host)[0]
        ends = np.cumsum([len(g) for g in new]).tolist()
        for i, lo, hi in zip(range(k), [0] + ends, ends):
            self.grid_values[i, self.served[i] : his[i]] = vals[lo:hi]
        self.served = his

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
        """The next window's step-major sizes and increments, and its grid values."""
        c0 = self.end
        c1 = min(c0 + self.span, self.knots.shape[1] - 1)
        t = self.knots[:, c0 : c1 + 1]
        w = self._draw_knots(t) if self.coarse is None else self.coarse[:, c0 : c1 + 1]
        self.last[:] = w[:, -1]
        for l, t in enumerate(_bisections(t, self.levels, self.times)):
            w = self._bisect_values(l, t, w)
        if self.grids:
            self._serve_grids(t, w)
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

    def finish(self) -> np.ndarray:
        """The grids' values as a (k, n, m) store, each row padded with its
        last value, once every window is formed; times past a row's last
        knot (a diverged adaptive solve's) extend its path forward."""
        while self.end < self.knots.shape[1] - 1:
            self._form()
        m = self.last.shape[1]
        for i, (g, rng, lo) in enumerate(zip(self.grids, self.rngs, self.served)):
            row = self.grid_values[i, : len(g)]
            if lo < len(g):
                normals = lambda h: rng.standard_normal((len(h), m))
                row[lo:] = _draw_at(normals, self.knots[i, -1:], self.last[i : i + 1], g[lo:])[0]
            self.grid_values[i, len(g) :] = row[-1]
        return self.grid_values


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
        return h, dW, final, backstop, f_y, None

    step = step_map(problem, "adaptive_semi_implicit")
    y, diverged, n_backstop, n_steps, elapsed = _march(problem, step, k, source)
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
    forward, so querying a fresh path with the same seed at the solve's knot
    times replays its draws exactly, for the moment sums; its generator then
    stands where ``refine_uniform`` would begin.  The reference march forms
    its steps from the seeds and those generators a window at a time
    (:class:`_RefinedChunks`), and the same windows value the uniform grids
    into one store, from which each fixed-step march forms its steps in
    place, as a refinement of depth 0.

    Returns each sample's two :class:`MomentStats` sums as a (k, 2) array
    and, per scheme, four columns in sample order: squared terminal errors
    against the reference (NaN where the scheme or the reference diverged),
    divergence flags, backstop or fallback counts and wall times.
    """
    T, m, k = problem.t_end, problem.m, len(seeds)
    moments = np.empty((k, 2))
    knots, rngs, grids = [], [], []
    for j, (seed, adaptive) in enumerate(zip(seeds, solved)):
        path = WienerPath(m, seed=seed)
        knots.append(adaptive.mesh_times())
        # Conditional-moment accumulators for the adaptive mesh.
        dws, hs = np.diff(path.value_at_many(knots[-1]), axis=0), adaptive.mesh
        moments[j] = (dws / np.sqrt(hs)[:, None]).sum(), ((dws**2).sum(axis=1) / hs).sum()
        rngs.append(path.rng)
        grids.append(np.linspace(0.0, T, max(1, int(round(T / adaptive.mean_h))) + 1))
        del path, dws  # before the next sample's, and before the marches

    reference = _RefinedChunks(knots, m, config.levels, seeds=seeds, rngs=rngs, grids=grids)
    del knots
    ref_y, ref_div, _, _ = _march_batch(problem, "balanced", reference)
    grid_values = reference.finish()
    del reference

    columns = {}
    for scheme in config.schemes:
        if scheme == "adaptive_semi_implicit":
            y = np.array([r.y_terminal for r in solved])
            div = np.array([r.diverged for r in solved])
            fall = np.array([r.n_backstop for r in solved])
            wall = np.array([r.wall_time for r in solved])
        else:
            y, div, fall, elapsed = _march_batch(problem, scheme, _RefinedChunks(grids, m, 0, grid_values))
            wall = np.full(k, elapsed / k)
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
