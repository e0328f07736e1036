"""Monte-Carlo strong-convergence and efficiency experiments.

The measurement protocol, per ``h_max`` and per chunk of samples
(``_run_chunk``, one per worker):

1. solve every sample path of the chunk with the adaptive semi-implicit
   scheme, on the path a fresh :class:`~adaptsde.wiener.WienerPath` would
   draw (seed = master seed XOR sample index), as one march; each result
   equals ``solve()``'s on that path, bit for bit,
2. lay the chunk out in blocks from the realized meshes (``_layout``),
3. per block, rebuild each sample's path from its seed and the knot times of
   its mesh, bisect every adaptive step ``levels`` times with Brownian
   bridges and march the balanced method over the fine grid: that is the
   reference solution for this sample.  The block holds each sample's
   refined values and coarse knot times, no padded arrays; the march forms
   the fine step sizes and increments from them a chunk at a time,
4. set the uniform step ``h_u = T / round(T / h_bar)`` from the sample's own
   mean adaptive step ``h_bar`` and run every fixed-step scheme on that grid,
   with increments bridged from the same path,
5. record, per scheme and in sample order, squared terminal errors against
   the reference, divergence flags, fallback counts and wall times.

Rebuilding a path in step 3 reproduces it exactly: the adaptive march only
draws forward, from each sample's own generator, and ``value_at_many`` at
the solve's knot times consumes the generator the same way.

Root-mean-square errors aggregate over samples with NaN exclusion (diverged
runs are counted, not averaged).  Everything is deterministic given the
master seed: every march gives each sample the bits it gets alone, and the
aggregation is ordered by sample index.  So the tables do not change with
the worker count, which sets the contiguous chunks, or the block layout.

``mean_cputime_s`` is wall time (``time.perf_counter``), not CPU time: for
every scheme, the wall time of its march's loop divided by its number of
rows, with path generation left out.  A fixed-step scheme's grid values
are drawn before its march, so its figure moves with the layout; forming
the step sizes, increments and mixed increments ``S dW`` from them happens
inside the timed loop, a chunk of steps at a time, and counts as the
scheme's own work, as when each step formed its noise itself.  The adaptive
march draws its normals as it steps, so it subtracts the time spent drawing.
"""

from __future__ import annotations

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
from .schemes import _diverged, _mix, step_balanced, step_map
from .wiener import WienerPath

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


#: Deepest bridge refinement a sweep accepts.  ``_layout`` marches a sample
#: over budget as a block of its own, so only this cap bounds one sample's
#: reference: at 26 levels one adaptive step holds ``_BLOCK_BYTES`` of it per
#: Wiener component, and a deeper sweep would die allocating, after its solves.
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

#: Padded reference bytes one block may be charged (see ``_layout``).
_BLOCK_BYTES = 512 * 2**20

#: Forward normals each row of the adaptive march draws per generator call.
_DRAW_CHUNK = 256

#: Steps of a fixed-step march whose y-independent operands are formed at once.
_STEP_CHUNK = 256

#: Bytes of reference step sizes and increments formed at once, whole chunks.
_FORM_BYTES = 1 << 19


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
            bad = _diverged(yn)
            drop = bad if done is None else bad | done
            if np.count_nonzero(drop):  # a third of .any()'s cost on a small mask
                idx = np.arange(k)[rows]
                diverged[idx[bad]] = True
                n_steps[idx[drop]] = n
                rows = idx[~drop]
                if not rows.size:
                    break
    return y, diverged, n_fallback, n_steps, time.perf_counter() - t0


def _march_batch(
    problem: SdeProblem,
    scheme: str,
    times: Sequence[np.ndarray],
    values: Sequence[np.ndarray],
    levels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """March a batch of samples with one fixed-step scheme.

    Row i steps over the grid ``refine_uniform(times[i], levels)``, or
    ``times[i]`` itself at ``levels`` 0, whose Brownian values are
    ``values[i]``: ``len(values[i]) - 1`` steps, at least one.  The steps
    come from :func:`_refined_chunks` ``_STEP_CHUNK`` at a time, step-major,
    with their ``S dW`` formed in one stacked product, so each step reads
    contiguous views and its step map skips that product; once rows drop,
    each step gathers its rows from the chunk.  Returns
    (terminal states, diverged mask, fallback counts, wall time).
    """
    step = step_map(problem, scheme)
    chunk = _refined_chunks(times, values, levels)
    lengths = np.array([len(v) - 1 for v in values])
    # Which rows finish is worked out only at the steps where some row does.
    ends = set(lengths.tolist())
    last = int(lengths.max())
    hs = dws = noises = None

    def source(n, rows, y):
        nonlocal hs, dws, noises
        j = n % _STEP_CHUNK
        if j == 0:
            hs, dws = chunk(n, min(n + _STEP_CHUNK, last))
            noises = _mix(problem, dws)
        done = lengths[rows] == n + 1 if n + 1 in ends else None
        return hs[j, rows], dws[j, rows], done, None, None, noises[j, rows]

    y, diverged, n_fallback, _, elapsed = _march(problem, step, len(lengths), source)
    return y, diverged, n_fallback, elapsed


def _refined_chunks(times: Sequence[np.ndarray], values: Sequence[np.ndarray], levels: int):
    """``_march_batch``'s chunks of the grids ``refine_uniform(times[i],
    levels)``, whose values are ``values[i]``, formed as they are asked for.
    At ``levels`` 0 the grids are the times themselves.

    Step sizes bisect only the coarse knots that span the steps asked for,
    level by level, with ``refine_uniform``'s midpoints ``(a + b) * 0.5``;
    increments subtract consecutive values row by row.  Both equal
    ``np.diff`` of the stored grid and values bit for bit.  They are formed
    for up to ``_FORM_BYTES`` of steps at a time, whole chunks, and served
    from there.
    """
    k, m = len(times), values[0].shape[1]
    n_fine = [len(v) - 1 for v in values]
    last = max(n_fine)
    # Coarse knots, step-major; a row's last knot pads it, so its padding
    # bisects into steps of 0.
    knots = np.empty((max(map(len, times)), k))
    for i, t in enumerate(times):
        knots[: len(t), i] = t
        knots[len(t) :, i] = t[-1]
    span = _STEP_CHUNK * max(1, _FORM_BYTES // (_STEP_CHUNK * k * (m + 1) * 8))
    dws = np.zeros((span, k, m))
    base = end = 0  # steps base..end - 1 are formed, their sizes in hs
    hs = None

    def form(lo, hi):
        first = (lo >> levels) << levels  # fine index of pts[0]
        pts = knots[lo >> levels : -(-hi >> levels) + 1]
        for s in range(levels - 1, -1, -1):
            fine = np.empty((2 * len(pts) - 1, k))
            fine[::2] = pts
            mid = np.add(pts[:-1], pts[1:], out=fine[1::2])
            mid *= 0.5
            # Keep the points, 2**s apart, that span fine indices lo..hi.
            a = (lo >> s) - (first >> s)
            pts = fine[a : a + (-(-hi >> s) - (lo >> s)) + 1]
            first = (lo >> s) << s
        for i, w in enumerate(values):
            end = min(hi, n_fine[i])
            if lo < end:
                np.subtract(w[lo + 1 : end + 1], w[lo:end], out=dws[: end - lo, i])
        return np.subtract(pts[1:], pts[:-1])

    def chunk(lo, hi):
        nonlocal base, end, hs
        if not base <= lo < hi <= end:
            base, end = lo, min(lo + span, last)
            hs = form(base, end)
        return hs[lo - base : hi - base], dws[lo - base : hi - base]

    return chunk


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


def _layout(solved: Sequence[SolveResult], levels: int, m: int) -> list[range]:
    """Split the samples into consecutive blocks by padded reference bytes.

    A block of k samples is charged ``k * L_max * (m + 1) * 8`` bytes, with
    ``L_i = n_steps_i * 2**levels``: padded (k, L_max) step sizes and
    (k, L_max, m) increments.  It holds only each sample's ``(L_i + 1, m)``
    refined values, so the charge over-counts them.  It bounds a block's
    memory and nothing else: no table depends on the block boundaries.
    Walking the samples in index order, a block closes before the sample
    that would push it past ``_BLOCK_BYTES``; a sample over the budget on
    its own is marched alone.
    """
    blocks, lo, L_max = [], 0, 0
    for i, res in enumerate(solved):
        L_i = res.n_steps << levels
        if i > lo and (i + 1 - lo) * max(L_max, L_i) * (m + 1) * 8 > _BLOCK_BYTES:
            blocks.append(range(lo, i))
            lo, L_max = i, 0
        L_max = max(L_max, L_i)
    blocks.append(range(lo, len(solved)))
    return blocks


def _run_block(
    config: ExperimentConfig, problem: SdeProblem, seeds: Sequence[int], solved: Sequence[SolveResult]
) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, ...]]]:
    """Protocol steps 3-5 for a block of samples whose adaptive solves are done.

    ``seeds`` are the samples' path seeds.  The adaptive march only draws
    forward, so querying a fresh path with the same seed at the solve's knot
    times replays its draws exactly; the
    rebuilt path then continues as if ``solve()`` had just run on it.  The
    block keeps each sample's refined store as it is, with no padding, and
    the reference march forms its steps from it a chunk at a time
    (``_refined_chunks``).  The uniform grids' values are drawn without
    being merged into that store, and each fixed-step march forms its steps
    from them the same way, as a refinement of depth 0.

    Returns each sample's two :class:`MomentStats` sums as a (k, 2) array
    and, per scheme, four columns in sample order: squared terminal errors
    against the reference (NaN where the scheme or the reference diverged),
    divergence flags, backstop or fallback counts and wall times.
    """
    T, m, k = problem.t_end, problem.m, len(seeds)
    moments = np.empty((k, 2))
    knots, fine_values, grids, grid_values = [], [], [], []
    for j, (seed, adaptive) in enumerate(zip(seeds, solved)):
        path = WienerPath(m, seed=seed)
        times = adaptive.mesh_times()
        # Conditional-moment accumulators for the adaptive mesh.
        dws = np.diff(path.value_at_many(times), axis=0)
        hs = adaptive.mesh
        moments[j] = (dws / np.sqrt(hs)[:, None]).sum(), ((dws**2).sum(axis=1) / hs).sum()

        knots.append(times)
        # The refined store itself, as a view; the fine times are not kept.
        fine_values.append(path.values_on_grid(path.refine_uniform(times, config.levels)))

        grids.append(np.linspace(0.0, T, max(1, int(round(T / adaptive.mean_h))) + 1))
        grid_values.append(path._draw_many(grids[-1])[0])  # read once, so not merged into the store
    del path

    ref_y, ref_div, _, _ = _march_batch(problem, "balanced", knots, fine_values, config.levels)
    del knots, fine_values

    columns = {}
    for scheme in config.schemes:
        if scheme == "adaptive_semi_implicit":
            y = np.array([r.y_terminal for r in solved])
            div = np.array([r.diverged for r in solved])
            fall = np.array([r.n_backstop for r in solved])
            wall = np.array([r.wall_time for r in solved])
        else:
            y, div, fall, elapsed = _march_batch(problem, scheme, grids, grid_values, 0)
            wall = np.full(k, elapsed / k)
        diff = y - ref_y
        with np.errstate(over="ignore", invalid="ignore"):
            sq_err = np.vecdot(diff, diff)
        columns[scheme] = (np.where(div | ref_div, np.nan, sq_err), div, fall, wall)
    return moments, columns


def _run_chunk(config: ExperimentConfig, h_max: float, indices: Sequence[int]) -> tuple[list[SolveResult], list]:
    """Protocol steps 1-5 for the samples ``indices`` of one ``h_max``.

    Returns their adaptive solves and, for each block of ``_layout`` over
    those solves, ``_run_block``'s results, all in sample order.
    """
    problem = problem_by_name(config.problem)
    seeds = [config.master_seed ^ i for i in indices]
    solved = _solve_adaptive_batch(problem, MeshConfig(h_max=h_max, rho=config.rho), seeds)
    blocks = _layout(solved, config.levels, problem.m)
    return solved, [_run_block(config, problem, seeds[b.start : b.stop], solved[b.start : b.stop]) for b in blocks]


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
    modules load.  Results are bit-identical for any worker count and block
    layout: sample seeds and every march treat each sample on its own, and
    the aggregation is ordered by sample index.
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
            results = [block for _, blocks in done for block in blocks]
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
