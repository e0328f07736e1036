"""Monte-Carlo strong-convergence and efficiency experiments.

The measurement protocol, per sample path and per ``h_max``:

1. seed a fresh :class:`~adaptsde.wiener.WienerPath` (seed = master seed XOR
   sample index),
2. run the adaptive semi-implicit scheme, recording its mesh,
3. bisect every adaptive step ``levels`` times with Brownian bridges and
   march the balanced method over the fine grid: that is the reference
   solution for this sample,
4. set the uniform step ``h_u = T / round(T / h_bar)`` from the sample's own
   mean adaptive step ``h_bar`` and run every fixed-step scheme on that grid,
   with increments bridged from the same path,
5. record squared terminal errors against the reference plus per-scheme
   wall times.

Root-mean-square errors aggregate over samples with NaN exclusion (diverged
runs are counted, not averaged).  Everything is deterministic given the
master seed: per-sample seeding is worker independent, samples are processed
in fixed blocks whose size depends only on the configuration, and the
aggregation is ordered by sample index.

The fixed-step marches are vectorized across a block of samples; ragged
lengths are handled by stepping only the still-active rows.

``mean_cputime_s`` is wall time (``time.perf_counter``), not CPU time, and it
is not measured the same way for every scheme.  A fixed-step scheme's figure
is its batched march over the block, divided by the block size; its
increments are drawn beforehand and are not counted.  The adaptive scheme's
figure is the wall time of its own unbatched ``solve()`` on one path, which
includes drawing that path's Brownian increments.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import MeshConfig, SdeProblem, mesh_times
from .problems import gl_truncation_functions, problem_by_name
from .schemes import (
    SCHEME_IDS,
    DIVERGENCE_THRESHOLD,
    NewtonConfig,
    solve,
    step_balanced,
    step_drift_implicit_batch,
    step_explicit_euler,
    step_fully_tamed,
    step_increment_tamed,
    step_truncated,
)
from .wiener import WienerPath

__all__ = [
    "ExperimentConfig",
    "SampleRecord",
    "TableRow",
    "OrderFit",
    "RmseResult",
    "MomentStats",
    "ConvergenceTable",
    "rmse",
    "fit_order",
    "run_sample",
    "run_experiment",
    "write_table_csv",
    "read_table_csv",
    "CSV_HEADER",
    "default_h_grid",
    "default_levels",
    "default_schemes",
]

CSV_HEADER = "problem,scheme,h_max,rho,samples,rmse,mean_cputime_s,mean_adaptive_h,n_backstop,n_diverged,order_slope"

#: Standard benchmark grid; the SPDE system uses a slightly coarser one.
DEFAULT_H_GRID = (0.25, 0.025, 0.0025, 0.00025)
SPDE_H_GRID = (0.25, 0.05, 0.005, 0.0005)


def default_h_grid(problem_name: str) -> tuple[float, ...]:
    return SPDE_H_GRID if problem_name == "spde" else DEFAULT_H_GRID


def default_levels(problem_name: str) -> int:
    """Bridge refinement depth for the reference solution."""
    return 4 if problem_name == "spde" else 6


def default_schemes(problem_name: str) -> tuple[str, ...]:
    base = (
        "adaptive_semi_implicit",
        "drift_implicit",
        "balanced",
        "increment_tamed",
        "fully_tamed",
    )
    if problem_name == "gl":
        return base + ("truncated",)
    return base


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one convergence experiment.

    ``problem`` is a catalog name (``gbm | fhn05 | fhn01 | gl | svol |
    spde``) so worker processes can rebuild it.  ``schemes`` lists what to
    compare; the adaptive semi-implicit run happens regardless because it
    defines the random mesh and the fixed uniform step.
    """

    problem: str
    schemes: tuple[str, ...] = ()
    h_max_list: tuple[float, ...] = ()
    rho: float = 100.0
    samples: int = 100
    levels: int = 0
    master_seed: int = 0
    t_end: Optional[float] = None
    beta: float = 0.5
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
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
        if any(not 0 < h <= 1 for h in self.h_max_list):
            raise ValueError("every h_max must lie in (0, 1]")
        for s in self.schemes:
            if s not in SCHEME_IDS:
                raise ValueError(f"unknown scheme {s!r}; choose from {', '.join(SCHEME_IDS)}")
        if "adaptive_explicit" in self.schemes:
            raise ValueError(
                "experiments compare schemes on the adaptive semi-implicit mesh; "
                "run the adaptive explicit scheme directly through solve()"
            )
        if "truncated" in self.schemes and self.problem != "gl":
            raise ValueError("the truncated scheme is only wired up for the 'gl' problem")


@dataclass
class SampleRecord:
    """Everything measured for one sample path at one ``h_max``."""

    sample_index: int
    h_max: float
    sq_err: dict[str, float]
    cputime: dict[str, float]
    n_backstop: dict[str, int]
    diverged: dict[str, bool]
    path_checksum: dict[str, str]
    mean_adaptive_h: float
    n_adaptive_steps: int
    reference_terminal: np.ndarray
    terminal: dict[str, np.ndarray]
    w_terminal: np.ndarray
    moment_dw_sum: float
    moment_normsq_sum: float


@dataclass(frozen=True)
class RmseResult:
    """Root-mean-square error with the excluded (non-finite) sample count."""

    value: float
    n_excluded: int
    n_total: int

    @property
    def ok(self) -> bool:
        return self.n_excluded < self.n_total


def rmse(errors: Sequence[float]) -> RmseResult:
    """Square root of the mean of the finite squared errors.

    Diverged samples contribute NaN squared errors; they are excluded from
    the mean and reported in ``n_excluded``.  An all-NaN input yields a NaN
    value with ``ok == False`` (no finite samples).
    """
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("rmse needs at least one entry")
    finite = np.isfinite(arr)
    n_exc = int(arr.size - finite.sum())
    if n_exc == arr.size:
        return RmseResult(value=float("nan"), n_excluded=n_exc, n_total=arr.size)
    return RmseResult(
        value=float(np.sqrt(arr[finite].mean())), n_excluded=n_exc, n_total=arr.size
    )


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(rmse) against log(h_max)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    @property
    def ok(self) -> bool:
        return self.n_points >= 2


def fit_order(h_values: Sequence[float], rmse_values: Sequence[float]) -> OrderFit:
    """Empirical strong order: fit ``log(rmse) = slope*log(h) + intercept``.

    Non-finite or non-positive RMSE entries are dropped; with fewer than two
    usable points the fit is flagged insufficient (NaN slope, ``ok`` False).
    """
    h = np.asarray(list(h_values), dtype=float)
    r = np.asarray(list(rmse_values), dtype=float)
    keep = np.isfinite(r) & (r > 0) & np.isfinite(h) & (h > 0)
    h, r = h[keep], r[keep]
    if h.size < 2:
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

    def rows_for(self, scheme: str) -> list[TableRow]:
        return [r for r in self.rows if r.scheme == scheme]


# -- the per-sample engine ----------------------------------------------------


def _build_problem(name: str, t_end: Optional[float]) -> SdeProblem:
    problem = problem_by_name(name)
    if t_end is not None and t_end != problem.t_end:
        problem = replace(problem, t_end=t_end)
    return problem


def _path_checksum(seed_token: str, w_terminal: np.ndarray) -> str:
    """Witness that a scheme consumed this particular path realization."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(seed_token.encode())
    digest.update(np.ascontiguousarray(w_terminal).tobytes())
    return digest.hexdigest()


@dataclass
class _Prepared:
    """Per-sample noise data extracted from the path, ready for marching."""

    index: int
    dt_fine: np.ndarray  # (L,)
    dw_fine: np.ndarray  # (L, m)
    dt_grid: np.ndarray  # (n_u,)
    dw_grid: np.ndarray  # (n_u, m)
    adaptive: object  # SolveResult of the adaptive run
    w_terminal: np.ndarray
    checksum: str
    moment_dw_sum: float
    moment_normsq_sum: float
    adaptive_y: np.ndarray


def _prepare_sample(
    problem: SdeProblem,
    h_max: float,
    rho: float,
    levels: int,
    master_seed: int,
    index: int,
) -> _Prepared:
    """Steps 1-4 of the protocol for one sample: everything that touches RNG."""
    seed = master_seed ^ index
    path = WienerPath(problem.m, seed=seed)
    cfg = MeshConfig(h_max=h_max, rho=rho)
    adaptive = solve(problem, "adaptive_semi_implicit", path, config=cfg)

    # Conditional-moment accumulators for the adaptive mesh.
    times = mesh_times(adaptive.mesh)
    knot_vals = path.values_on_grid(times)
    dws = np.diff(knot_vals, axis=0)
    hs = np.array([r.h for r in adaptive.mesh])
    moment_dw = float((dws / np.sqrt(hs)[:, None]).sum())
    moment_normsq = float(((dws**2).sum(axis=1) / hs).sum())

    fine_times = path.refine_uniform(adaptive.mesh, levels)
    fine_vals = path.values_on_grid(fine_times)
    dt_fine = np.diff(fine_times)
    dw_fine = np.diff(fine_vals, axis=0)

    T = problem.t_end
    n_u = max(1, int(round(T / adaptive.mean_h)))
    grid = np.linspace(0.0, T, n_u + 1)
    grid_vals = path.value_at_many(grid)
    dt_grid = np.diff(grid)
    dw_grid = np.diff(grid_vals, axis=0)

    w_terminal = path.value_at(T)
    checksum = _path_checksum(f"{seed}", w_terminal)
    return _Prepared(
        index=index,
        dt_fine=dt_fine,
        dw_fine=dw_fine,
        dt_grid=dt_grid,
        dw_grid=dw_grid,
        adaptive=adaptive,
        w_terminal=w_terminal,
        checksum=checksum,
        moment_dw_sum=moment_dw,
        moment_normsq_sum=moment_normsq,
        adaptive_y=adaptive.y_terminal,
    )


def _pad_stack(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack ragged (L_i, ...) arrays into (k, L_max, ...) plus length vector."""
    k = len(arrays)
    lengths = np.array([a.shape[0] for a in arrays])
    L = int(lengths.max())
    out = np.zeros((k, L) + arrays[0].shape[1:])
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
    return out, lengths


def _march_batch(
    problem: SdeProblem,
    scheme: str,
    dt: np.ndarray,
    dw: np.ndarray,
    lengths: np.ndarray,
    *,
    newton: Optional[NewtonConfig] = None,
    beta: float = 0.5,
    mu_inv=None,
    H=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """March a batch of samples with one scheme over per-sample step arrays.

    ``dt`` has shape (k, L), ``dw`` (k, L, m); row i uses its first
    ``lengths[i]`` steps.  Only still-active rows are stepped, so padding is
    never touched.  Returns (terminal states, diverged mask, backstop/fallback
    counts, elapsed wall time).
    """
    k, L = dt.shape
    y = np.broadcast_to(problem.x0, (k, problem.d)).copy()
    diverged = np.zeros(k, dtype=bool)
    n_fallback = np.zeros(k, dtype=int)

    if scheme == "balanced":
        step = lambda ya, h, w: (step_balanced(problem, ya, h, w), None)
    elif scheme == "increment_tamed":
        step = lambda ya, h, w: (step_increment_tamed(problem, ya, h, w), None)
    elif scheme == "fully_tamed":
        step = lambda ya, h, w: (step_fully_tamed(problem, ya, h, w, beta), None)
    elif scheme == "truncated":
        step = lambda ya, h, w: (step_truncated(problem, ya, h, w, mu_inv, H), None)
    elif scheme == "drift_implicit":
        step = lambda ya, h, w: step_drift_implicit_batch(problem, ya, h, w, newton)
    elif scheme == "explicit_euler":
        step = lambda ya, h, w: (step_explicit_euler(problem, ya, h, w), None)
    else:
        raise ValueError(f"scheme {scheme!r} has no batched fixed-grid march")

    # A state is diverged once any component leaves the finite ball of radius
    # DIVERGENCE_THRESHOLD; comparing squared norms also sweeps in NaN/inf.
    thr_sq = DIVERGENCE_THRESHOLD**2
    min_len = int(lengths.min()) if k else 0
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        i = 0
        # Fast path while every row is active: column views, no row gathers.
        while i < min_len:
            yn, fell = step(y, dt[:, i], dw[:, i])
            if fell is not None:
                n_fallback += fell.astype(int)
            y = yn
            i += 1
            ok = np.square(yn).sum(axis=-1) <= thr_sq
            if not ok.all():
                diverged = ~ok
                break
        while i < L:
            act = np.flatnonzero((i < lengths) & ~diverged)
            if act.size == 0:
                break
            yn, fell = step(y[act], dt[act, i], dw[act, i])
            if fell is not None:
                n_fallback[act] += fell.astype(int)
            y[act] = yn
            bad = ~(np.square(yn).sum(axis=-1) <= thr_sq)
            if bad.any():
                diverged[act[bad]] = True
            i += 1
    elapsed = time.perf_counter() - t0
    return y, diverged, n_fallback, elapsed


def _block_size(problem: SdeProblem, h_max: float, levels: int) -> int:
    """Samples marched together: big enough to amortize numpy dispatch, small
    enough to keep the padded step arrays a few hundred MB.  Depends only on
    the configuration, so results are independent of worker count."""
    # The slack factor covers how far below h_max the controller typically
    # sits; the stiff lattice system shrinks steps far more than the rest.
    slack = 32 if problem.name == "spde" else 4
    est_steps = math.ceil(problem.t_end / h_max) * 2**levels * slack
    est_bytes = est_steps * (problem.m + 1) * 8 * 2
    return int(np.clip(int(1e9 / max(est_bytes, 1)), 1, 64))


def _run_block(
    problem_name: str,
    t_end: Optional[float],
    h_max: float,
    rho: float,
    levels: int,
    schemes: tuple[str, ...],
    beta: float,
    newton: NewtonConfig,
    master_seed: int,
    indices: Sequence[int],
) -> list[SampleRecord]:
    """Run the full protocol for a block of sample indices at one h_max."""
    problem = _build_problem(problem_name, t_end)
    prepared = [
        _prepare_sample(problem, h_max, rho, levels, master_seed, i) for i in indices
    ]
    k = len(prepared)
    mu_inv = H = None
    if "truncated" in schemes:
        mu_inv, H = gl_truncation_functions()

    dt_fine, len_fine = _pad_stack([p.dt_fine for p in prepared])
    dw_fine, _ = _pad_stack([p.dw_fine for p in prepared])
    ref_y, ref_div, _, _ = _march_batch(problem, "balanced", dt_fine, dw_fine, len_fine)
    del dt_fine, dw_fine

    dt_grid, len_grid = _pad_stack([p.dt_grid for p in prepared])
    dw_grid, _ = _pad_stack([p.dw_grid for p in prepared])

    records = []
    sq_err: dict[str, list[float]] = {}
    cput: dict[str, float] = {}
    divs: dict[str, np.ndarray] = {}
    falls: dict[str, np.ndarray] = {}
    terminals: dict[str, np.ndarray] = {}

    for scheme in schemes:
        if scheme == "adaptive_semi_implicit":
            continue
        y, div, nfb, elapsed = _march_batch(
            problem,
            scheme,
            dt_grid,
            dw_grid,
            len_grid,
            newton=newton,
            beta=beta,
            mu_inv=mu_inv,
            H=H,
        )
        terminals[scheme] = y
        divs[scheme] = div
        falls[scheme] = nfb
        cput[scheme] = elapsed / k

    for j, p in enumerate(prepared):
        errs: dict[str, float] = {}
        times: dict[str, float] = {}
        backs: dict[str, int] = {}
        dv: dict[str, bool] = {}
        checks: dict[str, str] = {}
        term: dict[str, np.ndarray] = {}
        ref = ref_y[j]
        ref_ok = not ref_div[j]

        def record_scheme(name, y_term, diverged_flag, cputime, n_back):
            bad = diverged_flag or not ref_ok or not np.all(np.isfinite(y_term))
            diff = y_term - ref
            errs[name] = float("nan") if bad else float(np.dot(diff, diff))
            times[name] = cputime
            backs[name] = n_back
            dv[name] = bool(diverged_flag)
            checks[name] = p.checksum
            term[name] = np.asarray(y_term, dtype=float)

        for scheme in schemes:
            if scheme == "adaptive_semi_implicit":
                record_scheme(
                    scheme,
                    p.adaptive_y,
                    p.adaptive.diverged,
                    p.adaptive.wall_time,
                    p.adaptive.n_backstop,
                )
            else:
                record_scheme(
                    scheme,
                    terminals[scheme][j],
                    bool(divs[scheme][j]),
                    cput[scheme],
                    int(falls[scheme][j]),
                )
        records.append(
            SampleRecord(
                sample_index=p.index,
                h_max=h_max,
                sq_err=errs,
                cputime=times,
                n_backstop=backs,
                diverged=dv,
                path_checksum=checks,
                mean_adaptive_h=p.adaptive.mean_h,
                n_adaptive_steps=p.adaptive.n_steps,
                reference_terminal=ref,
                terminal=term,
                w_terminal=p.w_terminal,
                moment_dw_sum=p.moment_dw_sum,
                moment_normsq_sum=p.moment_normsq_sum,
            )
        )
    return records


def run_sample(config: ExperimentConfig, sample_index: int, h_max: float) -> SampleRecord:
    """Full per-sample protocol for one sample path at one ``h_max``."""
    return _run_block(
        config.problem,
        config.t_end,
        h_max,
        config.rho,
        config.levels,
        config.schemes,
        config.beta,
        config.newton,
        config.master_seed,
        [sample_index],
    )[0]


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("ADAPTSDE_WORKERS")
    if env:
        return max(1, int(env))
    return 1


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ConvergenceTable:
    """Run the whole sweep: every ``h_max``, ``samples`` paths each.

    ``workers`` > 1 fans blocks of samples out to processes (the default
    comes from the ADAPTSDE_WORKERS environment variable, else 1).  Results
    are bit-identical for any worker count: sample seeds, block boundaries
    and the aggregation order depend only on the configuration.
    """
    problem = _build_problem(config.problem, config.t_end)
    nworkers = _worker_count(workers)

    jobs = []
    for h_max in config.h_max_list:
        B = _block_size(problem, h_max, config.levels)
        for lo in range(0, config.samples, B):
            indices = list(range(lo, min(lo + B, config.samples)))
            jobs.append((h_max, indices))

    args = [
        (
            config.problem,
            config.t_end,
            h_max,
            config.rho,
            config.levels,
            config.schemes,
            config.beta,
            config.newton,
            config.master_seed,
            indices,
        )
        for h_max, indices in jobs
    ]
    if nworkers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            block_results = list(pool.map(_run_block_star, args))
    else:
        block_results = [_run_block(*a) for a in args]

    by_h: dict[float, list[SampleRecord]] = {h: [] for h in config.h_max_list}
    for (h_max, _), recs in zip(jobs, block_results):
        by_h[h_max].extend(recs)
    for h_max in by_h:
        by_h[h_max].sort(key=lambda r: r.sample_index)

    run_schemes = list(config.schemes)
    rows: list[TableRow] = []
    mom = MomentStats(m=problem.m)
    for h_max in config.h_max_list:
        recs = by_h[h_max]
        mean_ad_h = float(np.mean([r.mean_adaptive_h for r in recs]))
        for r in recs:
            mom.dw_sum += r.moment_dw_sum
            mom.normsq_sum += r.moment_normsq_sum
            mom.n_steps += r.n_adaptive_steps
        for scheme in run_schemes:
            res = rmse([r.sq_err[scheme] for r in recs])
            rows.append(
                TableRow(
                    scheme=scheme,
                    h_max=h_max,
                    rmse=res.value,
                    n_excluded=res.n_excluded,
                    mean_cputime_s=float(np.mean([r.cputime[scheme] for r in recs])),
                    mean_adaptive_h=mean_ad_h,
                    n_backstop=int(sum(r.n_backstop[scheme] for r in recs)),
                    n_diverged=int(sum(r.diverged[scheme] for r in recs)),
                )
            )

    slopes = {}
    for scheme in run_schemes:
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


def _run_block_star(a):
    return _run_block(*a)


# -- CSV serialization --------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_table_csv(table: ConvergenceTable, fileobj) -> None:
    """Write the table in the fixed column schema.

    Per-(scheme, h_max) rows leave ``order_slope`` blank; one summary row per
    scheme (blank ``h_max`` and statistics columns) carries the fitted slope.
    """
    fileobj.write(CSV_HEADER + "\n")
    for row in table.rows:
        fields = [
            table.problem,
            row.scheme,
            _fmt(row.h_max),
            _fmt(table.rho),
            str(table.samples),
            _fmt(row.rmse),
            _fmt(row.mean_cputime_s),
            _fmt(row.mean_adaptive_h),
            str(row.n_backstop),
            str(row.n_diverged),
            "",
        ]
        fileobj.write(",".join(fields) + "\n")
    for scheme, fit in table.slopes.items():
        fields = [
            table.problem,
            scheme,
            "",
            _fmt(table.rho),
            str(table.samples),
            "",
            "",
            "",
            "",
            "",
            _fmt(fit.slope) if fit.ok else "",
        ]
        fileobj.write(",".join(fields) + "\n")


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
        if len(rec) != 11:
            raise ValueError(f"row {lineno}: expected 11 columns, got {len(rec)}")
        try:
            problem = rec[0]
            rho = float(rec[3])
            samples = int(rec[4])
            if rec[2] == "":
                slope = float(rec[10]) if rec[10] else float("nan")
                slopes[rec[1]] = OrderFit(slope, float("nan"), float("nan"), 2 if rec[10] else 0)
            else:
                rows.append(
                    TableRow(
                        scheme=rec[1],
                        h_max=float(rec[2]),
                        rmse=float(rec[5]),
                        n_excluded=0,
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
