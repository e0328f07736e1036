"""The integrators: adaptive semi-implicit with backstop, plus competitors.

Every ``step_*`` function is a pure map ``(y, h, dW) -> y_next`` that
broadcasts over leading axes: ``y`` of shape ``(..., d)``, ``dW`` of shape
``(..., m)``, and ``h`` either a scalar or an array of shape ``(...,)``.
A step with ``h == 0`` and ``dW == 0`` returns ``y`` exactly, so a
zero-padded step leaves a state as it is.

``solve`` marches a single sample path from 0 to T and records the realized
mesh.  Fixed-step schemes take a uniform step ``h``; the adaptive schemes
take a :class:`~adaptsde.core.MeshConfig` and consult the controller each
step, falling back to one balanced step of length ``h_min`` whenever the
raw proposal reaches the floor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
import scipy.linalg

from .control import propose_step
from .core import MeshConfig, SdeProblem, SolveResult, StepRecord
from .wiener import WienerPath

__all__ = [
    "SCHEME_IDS",
    "ADAPTIVE_SCHEMES",
    "FIXED_STEP_SCHEMES",
    "LinearSolver",
    "NewtonConfig",
    "step_semi_implicit",
    "step_balanced",
    "step_increment_tamed",
    "step_fully_tamed",
    "step_truncated",
    "step_drift_implicit",
    "step_drift_implicit_batch",
    "step_explicit_euler",
    "solve",
    "DIVERGENCE_THRESHOLD",
]

SCHEME_IDS = (
    "adaptive_semi_implicit",
    "adaptive_explicit",
    "drift_implicit",
    "balanced",
    "increment_tamed",
    "fully_tamed",
    "truncated",
    "explicit_euler",
)
ADAPTIVE_SCHEMES = ("adaptive_semi_implicit", "adaptive_explicit")
FIXED_STEP_SCHEMES = tuple(s for s in SCHEME_IDS if s not in ADAPTIVE_SCHEMES)

#: States whose norm passes this are flagged diverged (also any non-finite).
DIVERGENCE_THRESHOLD = 1e12


def _hcol(h, y):
    """Reshape ``h`` so it multiplies state vectors: scalar or (...,) -> (..., 1)."""
    if np.ndim(h) == 0:
        return h
    return np.asarray(h)[..., None]


def _vnorm(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean norm along one axis; cheaper than np.linalg.norm in a loop."""
    return np.sqrt(np.square(x).sum(axis=axis))


class LinearSolver:
    """Solves ``(I - h A) x = b``, dispatching on the structure of ``A``.

    Dense operators get an LU factorization cached per step size (adaptive
    runs reuse the ``h_max`` factorization for most steps); tridiagonal ones
    go straight to LAPACK's ``gtsv``, and diagonal or scalar ones plain
    arithmetic.
    ``solve_batch`` handles a different ``h`` per batch row, which the
    vectorized adaptive march needs.
    """

    _MAX_CACHE = 64

    def __init__(self, problem: SdeProblem):
        self.A = problem.A
        self.structure = problem.structure_hint
        self.d = problem.d
        self._lu_cache: dict[float, tuple] = {}
        if self.structure == "scalar":
            self._a00 = float(self.A[0, 0])
        elif self.structure == "diagonal":
            self._diag = np.diagonal(self.A).copy()
        elif self.structure == "tridiagonal":
            self._sub = np.concatenate(([0.0], np.diagonal(self.A, -1)))
            self._dia = np.diagonal(self.A).copy()
            self._sup = np.concatenate((np.diagonal(self.A, 1), [0.0]))
            self._dl = self._sub[1:]
            self._du = self._sup[:-1]
            self._gtsv = scipy.linalg.get_lapack_funcs("gtsv", (self._dia,))

    def solve(self, h: float, b: np.ndarray) -> np.ndarray:
        """Solve with one step size ``h`` for right-hand sides ``(..., d)``."""
        h = float(h)
        if self.structure == "scalar":
            return b / (1.0 - h * self._a00)
        if self.structure == "diagonal":
            return b / (1.0 - h * self._diag)
        if self.structure == "tridiagonal":
            flat = b.reshape(-1, self.d)
            _, _, _, x, info = self._gtsv(-h * self._dl, 1.0 - h * self._dia, -h * self._du, flat.T)
            if info != 0:
                raise np.linalg.LinAlgError(f"tridiagonal solve failed (LAPACK gtsv info={info})")
            return x.T.reshape(b.shape)
        fact = self._lu_cache.get(h)
        if fact is None:
            M = np.eye(self.d) - h * self.A
            fact = scipy.linalg.lu_factor(M, check_finite=False)
            if len(self._lu_cache) >= self._MAX_CACHE:
                self._lu_cache.clear()
            self._lu_cache[h] = fact
        flat = np.atleast_2d(b.reshape(-1, self.d))
        x = scipy.linalg.lu_solve(fact, flat.T, check_finite=False).T
        return x.reshape(b.shape)

    def solve_batch(self, h: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve with per-row step sizes: ``h`` of shape (k,), ``b`` of (k, d)."""
        h = np.asarray(h, dtype=float)
        if self.structure == "scalar":
            return b / (1.0 - h[:, None] * self._a00)
        if self.structure == "diagonal":
            return b / (1.0 - h[:, None] * self._diag)
        if self.structure == "tridiagonal":
            return self._thomas_batch(h, b)
        M = np.eye(self.d) - h[:, None, None] * self.A
        return np.linalg.solve(M, b[..., None])[..., 0]

    def _thomas_batch(self, h: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized Thomas sweep over the batch axis for (I - h A) x = b."""
        k, d = b.shape
        sub = -h[:, None] * self._sub  # (k, d), entry i couples row i to i-1
        dia = 1.0 - h[:, None] * self._dia
        sup = -h[:, None] * self._sup  # entry i couples row i to i+1
        cp = np.empty((k, d))
        dp = np.empty((k, d))
        cp[:, 0] = sup[:, 0] / dia[:, 0]
        dp[:, 0] = b[:, 0] / dia[:, 0]
        for i in range(1, d):
            m = dia[:, i] - sub[:, i] * cp[:, i - 1]
            cp[:, i] = sup[:, i] / m
            dp[:, i] = (b[:, i] - sub[:, i] * dp[:, i - 1]) / m
        x = np.empty((k, d))
        x[:, -1] = dp[:, -1]
        for i in range(d - 2, -1, -1):
            x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
        return x

    def residual(self, h, x: np.ndarray, b: np.ndarray) -> float:
        """``||(I - h A) x - b||`` over the whole batch, for verification."""
        hx = _hcol(h, x)
        r = x - hx * (x @ self.A.T) - b
        return float(np.linalg.norm(r))


@dataclass(frozen=True)
class NewtonConfig:
    """Newton-iteration settings for the drift-implicit scheme.

    ``fallback`` selects what happens when the iteration fails: take one
    balanced-method step instead (the backstop), or raise.
    """

    tol: float = 1e-10
    max_iter: int = 50
    fallback: Literal["balanced_backstop", "fail"] = "balanced_backstop"
    predictor: Literal["previous", "explicit_euler"] = "previous"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.fallback not in ("balanced_backstop", "fail"):
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if self.predictor not in ("previous", "explicit_euler"):
            raise ValueError(f"unknown predictor {self.predictor!r}")


# -- one-step maps ----------------------------------------------------------


def _noise(problem: SdeProblem, amp: np.ndarray, dW) -> np.ndarray:
    """``g(y) dW`` from the amplitudes ``amp = g(y)``: ``amp * (S dW)``, (..., d)."""
    return amp * (np.asarray(dW) @ problem.S.T)


def _col_norms(problem: SdeProblem, amp: np.ndarray) -> np.ndarray:
    """Column norms ``||g_r(y)||`` of the diffusion matrix, shape (..., m)."""
    return np.sqrt(np.square(amp) @ problem.S2)


def step_semi_implicit(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    solver: Optional[LinearSolver] = None,
) -> np.ndarray:
    """One step of ``(I - h A) Y' = Y + h f(Y) + g(Y) dW``."""
    if solver is None:
        solver = LinearSolver(problem)
    rhs = y + _hcol(h, y) * problem.f(y) + _noise(problem, problem.g(y), dW)
    if np.ndim(h) == 0:
        return solver.solve(float(h), rhs)
    return solver.solve_batch(np.asarray(h), rhs)


def step_balanced(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray) -> np.ndarray:
    """Balanced step: increment divided by ``1 + h ||D|| + sum_r ||g_r dW_r||``.

    ``D = A y + f(y)`` is the full drift.  The denominator is at least 1, so
    the state moves by no more than the raw Euler increment.
    """
    D = problem.drift(y)
    amp = problem.g(y)
    dW = np.asarray(dW)
    num = _hcol(h, y) * D + _noise(problem, amp, dW)
    # ||g_r dW_r|| = |dW_r| ||g_r||
    denom = 1.0 + np.asarray(h) * _vnorm(D) + (np.abs(dW) * _col_norms(problem, amp)).sum(axis=-1)
    return y + num / denom[..., None]


def step_increment_tamed(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray) -> np.ndarray:
    """Tame the whole Euler increment: ``y + v / max(1, h ||v||)``."""
    v = _hcol(h, y) * problem.drift(y) + _noise(problem, problem.g(y), dW)
    denom = np.maximum(1.0, np.asarray(h) * _vnorm(v))
    return y + v / denom[..., None]


def step_fully_tamed(
    problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray, beta: float = 0.5
) -> np.ndarray:
    """Tame drift and diffusion separately with an ``h**beta`` weight.

    ``y + [h D + g dW] / (1 + h^beta ||D|| + h^beta sum_j ||g_j||)`` with
    ``D = A y + f(y)``.  ``beta = 1/2`` is the standard order-1/2 choice.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    D = problem.drift(y)
    amp = problem.g(y)
    num = _hcol(h, y) * D + _noise(problem, amp, dW)
    hb = np.asarray(h) ** beta
    denom = 1.0 + hb * _vnorm(D) + hb * _col_norms(problem, amp).sum(axis=-1)
    return y + num / denom[..., None]


def step_truncated(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    mu_inv: Callable[[float], float],
    H: Callable[[float], float],
) -> np.ndarray:
    """Explicit Euler on the state clamped to the ball of radius ``mu_inv(H(h))``.

    ``z = (||y|| ^ mu_inv(H(h))) y / ||y||`` with the convention ``0/0 = 0``;
    then ``y + h (A z + f(z)) + g(z) dW``.
    """
    r = _vnorm(y)
    if np.ndim(h) == 0:
        bound = mu_inv(H(float(h))) if float(h) > 0 else np.inf
    else:
        harr = np.asarray(h, dtype=float)
        bound = np.where(harr > 0, mu_inv(H(np.where(harr > 0, harr, 1.0))), np.inf)
    scale = np.where(r > 0, np.minimum(r, bound) / np.where(r > 0, r, 1.0), 0.0)
    z = scale[..., None] * y
    return y + _hcol(h, y) * problem.drift(z) + _noise(problem, problem.g(z), dW)


def step_explicit_euler(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray) -> np.ndarray:
    """Plain Euler-Maruyama: ``y + h (A y + f(y)) + g(y) dW``."""
    return y + _hcol(h, y) * problem.drift(y) + _noise(problem, problem.g(y), dW)


def step_drift_implicit(
    problem: SdeProblem,
    y: np.ndarray,
    h: float,
    dW: np.ndarray,
    newton: Optional[NewtonConfig] = None,
) -> tuple[np.ndarray, bool]:
    """Fully drift-implicit step: solve ``x = y + h (A x + f(x)) + g(y) dW``.

    Newton iteration on ``F(x) = x - h (A x + f(x)) - y - g(y) dW`` with
    Jacobian ``I - h (A + Df(x))``.  On non-convergence (or a singular
    Jacobian) the configured fallback applies; the default takes one
    balanced step over the same ``h`` and reports ``used_fallback=True``.
    """
    if problem.df is None:
        raise ValueError("drift-implicit scheme needs problem.df (Jacobian of f)")
    newton = newton or NewtonConfig()
    c = y + _noise(problem, problem.g(y), dW)
    if newton.predictor == "explicit_euler":
        x = step_explicit_euler(problem, y, h, dW)
    else:
        x = y.copy()
    eye = np.eye(problem.d)
    for _ in range(newton.max_iter):
        F = x - h * problem.drift(x) - c
        if np.linalg.norm(F) <= newton.tol:
            return x, False
        J = eye - h * (problem.A + problem.df(x))
        try:
            dx = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        x = x - dx
        if not np.all(np.isfinite(x)):
            break
    else:
        F = x - h * problem.drift(x) - c
        if np.linalg.norm(F) <= newton.tol:
            return x, False
    if newton.fallback == "fail":
        raise RuntimeError(f"Newton iteration failed to converge at h={h}")
    return step_balanced(problem, y, h, dW), True


def step_drift_implicit_batch(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    newton: Optional[NewtonConfig] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drift-implicit step over a batch of states ``(k, d)``.

    Each row runs its own Newton iteration; rows that fail fall back to one
    balanced step.  Returns ``(y_next, used_fallback)`` with a boolean mask.
    """
    if problem.df is None:
        raise ValueError("drift-implicit scheme needs problem.df (Jacobian of f)")
    newton = newton or NewtonConfig()
    y = np.asarray(y, dtype=float)
    k, d = y.shape
    hv = np.broadcast_to(np.asarray(h, dtype=float), (k,))
    c = y + _noise(problem, problem.g(y), dW)
    if newton.predictor == "explicit_euler":
        x = step_explicit_euler(problem, y, hv, dW)
    else:
        x = y.copy()
    eye = np.eye(d)
    converged = np.zeros(k, dtype=bool)
    failed = np.zeros(k, dtype=bool)
    for _ in range(newton.max_iter + 1):
        active = ~(converged | failed)
        if not active.any():
            break
        xa = x[active]
        F = xa - hv[active, None] * problem.drift(xa) - c[active]
        ok = np.linalg.norm(F, axis=-1) <= newton.tol
        idx = np.flatnonzero(active)
        converged[idx[ok]] = True
        live = idx[~ok]
        if live.size == 0:
            continue
        J = eye[None] - hv[live, None, None] * (problem.A[None] + problem.df(x[live]))
        try:
            dx = np.linalg.solve(J, F[~ok][..., None])[..., 0]
        except np.linalg.LinAlgError:
            failed[live] = True
            continue
        xn = x[live] - dx
        bad = ~np.all(np.isfinite(xn), axis=-1)
        x[live] = np.where(bad[:, None], x[live], xn)
        failed[live[bad]] = True
    failed |= ~converged
    if failed.any():
        if newton.fallback == "fail":
            raise RuntimeError("Newton iteration failed to converge for some batch rows")
        x[failed] = step_balanced(problem, y[failed], hv[failed], dW[failed])
    return x, failed


# -- single-path driver ------------------------------------------------------


def _diverged(y: np.ndarray) -> bool:
    return (not np.all(np.isfinite(y))) or math.sqrt(float(y @ y)) > DIVERGENCE_THRESHOLD


def solve(
    problem: SdeProblem,
    scheme: str,
    path: WienerPath,
    *,
    config: Optional[MeshConfig] = None,
    h: Optional[float] = None,
    newton: Optional[NewtonConfig] = None,
    beta: float = 0.5,
    mu_inv: Optional[Callable] = None,
    H: Optional[Callable] = None,
    record_trajectory: bool = False,
    solver: Optional[LinearSolver] = None,
) -> SolveResult:
    """March one sample path of ``problem`` from 0 to T with ``scheme``.

    Adaptive schemes require ``config``; fixed-step schemes require ``h``.
    The final step is truncated to land exactly on T.  A non-finite state or
    one with norm beyond ``DIVERGENCE_THRESHOLD`` aborts the run with the
    ``diverged`` flag set (expected for explicit Euler on stiff problems).
    """
    if scheme not in SCHEME_IDS:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {', '.join(SCHEME_IDS)}")
    if path.dim != problem.m:
        raise ValueError(f"path has {path.dim} components, problem needs m={problem.m}")
    adaptive = scheme in ADAPTIVE_SCHEMES
    if adaptive and config is None:
        raise ValueError(f"scheme {scheme!r} needs a MeshConfig")
    if not adaptive:
        if h is None:
            raise ValueError(f"fixed-step scheme {scheme!r} needs a step size h")
        if not 0 < h <= problem.t_end:
            raise ValueError("step size must satisfy 0 < h <= t_end")
    if scheme == "truncated" and (mu_inv is None or H is None):
        raise ValueError("truncated scheme needs mu_inv and H")
    if solver is None and scheme in ("adaptive_semi_implicit", "drift_implicit"):
        solver = LinearSolver(problem)

    T = problem.t_end
    y = problem.x0.copy()
    t = 0.0
    mesh: list[StepRecord] = []
    trajectory = [(0.0, y.copy())] if record_trajectory else None
    n_backstop = 0
    diverged = False
    tiny = 1e-14 * T

    t0 = time.perf_counter()
    while t < T - tiny:
        if adaptive:
            f_y = problem.drift(y) if scheme == "adaptive_explicit" else problem.f(y)
            decision = propose_step(y, f_y, config)
            h_n = decision.h
            attempted = decision.raw_proposal
        else:
            h_n = h
            attempted = h

        final_step = t + h_n >= T - tiny
        if final_step:
            # Truncate onto T, nudging by ulps so the recorded step sizes
            # accumulate to the terminal time bitwise: mesh times must hit
            # the stored path knots exactly.
            h_n = T - t
            for _ in range(64):
                s = t + h_n
                if s == T:
                    break
                h_n = np.nextafter(h_n, np.inf if s < T else 0.0)
        use_backstop = adaptive and decision.use_backstop and not final_step
        t_next = T if final_step else t + h_n
        dW = path.increment(t, t_next)
        origin = "main_scheme"
        if adaptive:
            if use_backstop:
                y_next = step_balanced(problem, y, h_n, dW)
                origin = "backstop"
                n_backstop += 1
            elif scheme == "adaptive_semi_implicit":
                y_next = step_semi_implicit(problem, y, h_n, dW, solver=solver)
            else:
                y_next = step_explicit_euler(problem, y, h_n, dW)
        elif scheme == "drift_implicit":
            y_next, fell_back = step_drift_implicit(problem, y, h_n, dW, newton)
            if fell_back:
                origin = "backstop"
                n_backstop += 1
        elif scheme == "balanced":
            y_next = step_balanced(problem, y, h_n, dW)
        elif scheme == "increment_tamed":
            y_next = step_increment_tamed(problem, y, h_n, dW)
        elif scheme == "fully_tamed":
            y_next = step_fully_tamed(problem, y, h_n, dW, beta)
        elif scheme == "truncated":
            y_next = step_truncated(problem, y, h_n, dW, mu_inv, H)
        else:  # explicit_euler
            y_next = step_explicit_euler(problem, y, h_n, dW)

        mesh.append(StepRecord(t_start=t, h=h_n, origin=origin, attempted_h=attempted))
        y = np.asarray(y_next, dtype=float)
        t = t_next
        if record_trajectory:
            trajectory.append((t, y.copy()))
        if _diverged(y):
            diverged = True
            break
    wall = time.perf_counter() - t0

    n_steps = len(mesh)
    mean_h = float(np.mean([r.h for r in mesh])) if mesh else 0.0
    return SolveResult(
        y_terminal=y,
        mesh=mesh,
        n_steps=n_steps,
        n_backstop=n_backstop,
        mean_h=mean_h,
        wall_time=wall,
        diverged=diverged,
        trajectory=trajectory,
    )
