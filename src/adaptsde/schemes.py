"""The integrators: adaptive semi-implicit with backstop, plus competitors.

Every ``step_*`` function is a pure map ``(y, h, dW) -> y_next`` that
broadcasts over leading axes: ``y`` of shape ``(..., d)``, ``dW`` of shape
``(..., m)``, and ``h`` either a scalar or an array of shape ``(...,)``.
A step with ``h == 0`` and ``dW == 0`` returns ``y`` exactly, so a
zero-padded step leaves a state as it is.  The products follow
:mod:`adaptsde.core`'s rule for rows, and the linear solves treat each row
of a stack on its own, so a step gives a row the same bits whatever else is
stacked with it.

Every ``step_*`` function also takes ``noise=None``: the mixed increment
``S dW`` of shape ``(..., d)``, formed by :func:`_mix`, when the caller
already has it.  Like ``f_y`` and ``D`` it only carries a value and selects
no behaviour: the step then skips that product and gives the same bits.
The harness's fixed-step marches form it a chunk of steps at a time;
``solve`` and the adaptive march pass nothing.

``step_map`` turns a scheme id into one ``(y, h, dW, noise=None) ->
(y_next, fell_back)`` function and :func:`_diverged` is the one divergence test;
``solve`` and the harness's batched march both use them.  ``solve``
marches a single sample path from 0 to T and records the realized mesh as
an array of step sizes.  Fixed-step schemes take a uniform step ``h``; the
adaptive schemes take a :class:`~adaptsde.core.MeshConfig` and consult the
controller each step, falling back to one balanced step of length
``h_min`` whenever the raw proposal reaches the floor.  Each step ``solve``
evaluates the drift response once, for the controller and the step, and
takes the new state's squared norm ``np.vdot(y, y)`` once: the divergence
test reads it, and so does the next step's decision.  That decision is
:func:`~adaptsde.control.propose_step`'s rule, called without its
:class:`~adaptsde.control.StepDecision` wrapper.

``solve`` keeps its own scalar loop, not the harness's march with a batch
of one, because it accepts a ``WienerPath`` that may already hold knots
and bridges into them, where the march only draws forward from fresh
streams.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

import numpy as np

from .control import _decide
from .core import END_SNAP, MeshConfig, SdeProblem, SolveResult, infer_structure, last_step
from .wiener import WienerPath

__all__ = [
    "SCHEME_IDS",
    "ADAPTIVE_SCHEMES",
    "LinearSolver",
    "step_semi_implicit",
    "step_balanced",
    "step_increment_tamed",
    "step_fully_tamed",
    "step_truncated",
    "step_drift_implicit_batch",
    "step_explicit_euler",
    "step_map",
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

#: States whose norm passes this are flagged diverged (also any non-finite).
DIVERGENCE_THRESHOLD = 1e12
_THRESHOLD_SQ = DIVERGENCE_THRESHOLD**2
#: ``_diverged``'s one-reduction test: the threshold less a 2**-20 margin.
_STACK_SQ = _THRESHOLD_SQ * (1.0 - 2.0**-20)

#: Drift-implicit Newton iteration: converged once the residual norm is at
#: most ``_NEWTON_TOL``, failed after ``_NEWTON_MAX_ITER`` updates.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


def _hcol(h, y):
    """Reshape ``h`` so it multiplies state vectors: scalar or (...,) -> (..., 1)."""
    # getattr, not np.ndim: np.ndim costs about a microsecond on a Python
    # float, and every step pays it.
    if getattr(h, "ndim", 0) == 0:
        return h
    return np.asarray(h)[..., None]


def _vnorm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis; cheaper than np.linalg.norm in a loop."""
    sq = np.add.reduce(np.square(x), axis=-1)
    return np.sqrt(sq, out=sq) if sq.ndim else np.sqrt(sq)  # a 1-D x reduces to a scalar


@functools.cache
def _gtsv():
    """LAPACK's ``dgtsv``; scipy.linalg loads on this first call, which most runs never make."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs("gtsv", dtype=np.float64)


class LinearSolver:
    """Solves ``(I - h A) x = b``, dispatching on the structure of ``A``.

    The structure is read off ``A``'s sparsity pattern by
    :func:`~adaptsde.core.infer_structure`.  Diagonal operators, every 1x1
    operator among them, are solved by plain arithmetic; tridiagonal ones,
    every other 2x2 operator among them, by LAPACK's ``gtsv``; dense ones by
    ``np.linalg.solve``.  One 2x2 system with one ``h`` is solved in Python
    floats with the arithmetic of reference ``gtsv``, which gives its bits
    at a fraction of the cost of the call.  scipy loads on the first ``gtsv`` call.
    """

    def __init__(self, problem: SdeProblem):
        self.A = problem.A
        self.structure = infer_structure(self.A)
        self.d = problem.d
        if self.structure == "diagonal":
            # A 1x1 factor is a float, so a float-h solve is one division.
            self._diag = np.diagonal(self.A).copy() if self.d > 1 else self.A.item()
        elif self.structure == "tridiagonal":
            self._dl = np.diagonal(self.A, -1).copy()
            self._dia = np.diagonal(self.A).copy()
            self._du = np.diagonal(self.A, 1).copy()
            if self.d == 2:
                self._a2 = (self._dl[0].item(), *self._dia.tolist(), self._du[0].item())

    def solve(self, h, b: np.ndarray) -> np.ndarray:
        """Solve for right-hand sides ``b`` of shape ``(..., d)``.

        ``h`` is one step size for every row, or an array with one per row,
        shape ``b.shape[:-1]``; either way each row is its own system.  A
        tridiagonal ``A`` stacks the k systems into one of size k·d, with
        zero couplings between the blocks, and solves it with one ``gtsv``
        call; each row comes out as it would from a solve of its own.  If
        any entry of that solution is not finite, the rows are solved one by
        one instead, so a non-finite row cannot spill into its neighbours.
        """
        # isinstance, not np.ndim: np.ndim costs about a microsecond on a
        # Python float, and solve() makes one call per step.
        per_row = isinstance(h, np.ndarray) and h.ndim > 0
        if self.structure == "diagonal":
            return b / (1.0 - (h[..., None] if per_row else h) * self._diag)
        if not per_row and b.ndim == 1 and self.d == 2:
            try:
                return self._solve2(float(h), b)
            except ZeroDivisionError:
                pass  # a zero or NaN pivot: gtsv gives the value or the error
        flat = b.reshape(-1, self.d)
        hv = np.broadcast_to(h, b.shape[:-1]).reshape(-1, 1)
        if self.structure == "dense":
            x = np.linalg.solve(np.eye(self.d) - hv[:, :, None] * self.A, flat[..., None])
            return x.reshape(b.shape)
        lower = np.zeros((len(hv), self.d))
        upper = np.zeros((len(hv), self.d))
        lower[:, :-1] = -hv * self._dl
        upper[:, :-1] = -hv * self._du
        diag = 1.0 - hv * self._dia
        x = self._tridiagonal(lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1], flat.reshape(-1, 1))
        if len(hv) > 1 and not np.isfinite(x).all():
            # gtsv carries 0 * inf = NaN across a zero coupling, so a
            # non-finite row would spoil its neighbours: solve apart.
            x = np.stack([self.solve(float(hi), bi) for hi, bi in zip(hv[:, 0], flat)])
        return x.reshape(b.shape)

    def _solve2(self, h: float, b: np.ndarray) -> np.ndarray:
        """Reference ``dgtsv`` for N = 2, NRHS = 1, step by step, in Python floats.

        A division by zero raises ZeroDivisionError, and the caller then
        calls ``gtsv`` itself.  That is where ``gtsv`` reports info 1 (a zero
        ``d1`` kept as pivot) or info 2 (a zero final ``d2``), or divides by
        zero past a NaN pivot and returns NaN or inf.
        """
        a10, a00, a11, a01 = self._a2
        dl, d1, d2, du = -h * a10, 1.0 - h * a00, 1.0 - h * a11, -h * a01
        b1, b2 = b.tolist()
        if abs(d1) >= abs(dl):
            fact = dl / d1
            d2 = d2 - fact * du
            b2 = b2 - fact * b1
        else:
            # Row interchange: the subdiagonal entry becomes the pivot.
            fact = d1 / dl
            d1, d2, du = dl, du - fact * d2, d2
            b1, b2 = b2, b1 - fact * b2
        x2 = b2 / d2
        return np.array(((b1 - du * x2) / d1, x2))

    def _tridiagonal(self, dl, d, du, b):
        """LAPACK ``gtsv`` on the tridiagonal system ``(dl, d, du)``, rhs (n, r)."""
        _, _, _, x, info = _gtsv()(dl, d, du, b)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (LAPACK gtsv info={info})")
        return x


# -- one-step maps ----------------------------------------------------------


def _mix(problem: SdeProblem, dW) -> np.ndarray:
    """The mixed increment ``S dW``, shape (..., d), for increments (..., m)."""
    return np.vecmat(dW, problem.S.T)


def _noise(problem: SdeProblem, amp: np.ndarray, dW, noise=None) -> np.ndarray:
    """``g(y) dW`` from the amplitudes ``amp = g(y)``: ``amp * (S dW)``, (..., d).

    ``noise`` is ``S dW`` if the caller has formed it with :func:`_mix`.
    """
    return amp * (_mix(problem, dW) if noise is None else noise)


def _col_norms(problem: SdeProblem, amp: np.ndarray) -> np.ndarray:
    """Column norms ``||g_r(y)||`` of the diffusion matrix, shape (..., m)."""
    sq = np.vecmat(np.square(amp), problem.S2)
    return np.sqrt(sq, out=sq)


def step_semi_implicit(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    solver: Optional[LinearSolver] = None,
    f_y: Optional[np.ndarray] = None,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One step of ``(I - h A) Y' = Y + h f(Y) + g(Y) dW``; ``f_y`` is ``f(y)`` if known."""
    solver = solver or LinearSolver(problem)
    f_y = problem.f(y) if f_y is None else f_y
    rhs = y + _hcol(h, y) * f_y + _noise(problem, problem.g(y), dW, noise)
    return solver.solve(h, rhs)


def step_balanced(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray, noise=None) -> np.ndarray:
    """Balanced step: increment divided by ``1 + h ||D|| + sum_r ||g_r dW_r||``.

    ``D = A y + f(y)`` is the full drift.  The denominator is at least 1, so
    the state moves by no more than the raw Euler increment.
    """
    D = problem.drift(y)
    amp = problem.g(y)
    dW = np.asarray(dW)
    num = _hcol(h, y) * D
    num += _noise(problem, amp, dW, noise)
    # ||g_r dW_r|| = |dW_r| ||g_r||
    noise_norm = np.add.reduce(np.abs(dW) * _col_norms(problem, amp), axis=-1)
    denom = _vnorm(D)
    denom *= h
    denom += 1.0
    denom += noise_norm
    num /= denom[..., None]
    num += y
    return num


def step_increment_tamed(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray, noise=None) -> np.ndarray:
    """Tame the whole Euler increment: ``y + v / max(1, h ||v||)``."""
    v = _hcol(h, y) * problem.drift(y) + _noise(problem, problem.g(y), dW, noise)
    denom = np.maximum(1.0, np.asarray(h) * _vnorm(v))
    return y + v / denom[..., None]


def step_fully_tamed(problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray, noise=None) -> np.ndarray:
    """Tame drift and diffusion separately with the standard ``h**(1/2)`` weight.

    ``y + [h D + g dW] / (1 + h^(1/2) ||D|| + h^(1/2) sum_j ||g_j||)`` with
    ``D = A y + f(y)``.
    """
    D = problem.drift(y)
    amp = problem.g(y)
    num = _hcol(h, y) * D + _noise(problem, amp, dW, noise)
    hb = np.asarray(h) ** 0.5
    denom = 1.0 + hb * _vnorm(D) + hb * np.add.reduce(_col_norms(problem, amp), axis=-1)
    return y + num / denom[..., None]


def step_truncated(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    mu_inv: Callable[[float], float],
    H: Callable[[float], float],
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Explicit Euler on the state clamped to the ball of radius ``mu_inv(H(h))``.

    ``z = (||y|| ^ mu_inv(H(h))) y / ||y||`` with the convention ``0/0 = 0``;
    then ``y + h (A z + f(z)) + g(z) dW``.
    """
    r = _vnorm(y)
    harr = np.asarray(h, dtype=float)
    bound = np.where(harr > 0, mu_inv(H(np.where(harr > 0, harr, 1.0))), np.inf)
    scale = np.where(r > 0, np.minimum(r, bound) / np.where(r > 0, r, 1.0), 0.0)
    z = scale[..., None] * y
    return y + _hcol(h, y) * problem.drift(z) + _noise(problem, problem.g(z), dW, noise)


def step_explicit_euler(
    problem: SdeProblem, y: np.ndarray, h, dW: np.ndarray, D=None, noise=None
) -> np.ndarray:
    """Plain Euler-Maruyama: ``y + h D + g(y) dW``; ``D`` is ``A y + f(y)`` if known."""
    D = problem.drift(y) if D is None else D
    return y + _hcol(h, y) * D + _noise(problem, problem.g(y), dW, noise)


def step_drift_implicit_batch(
    problem: SdeProblem,
    y: np.ndarray,
    h,
    dW: np.ndarray,
    noise: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fully drift-implicit step: solve ``x = y + h (A x + f(x)) + g(y) dW``.

    ``y`` holds one state ``(d,)`` or a batch ``(..., d)``.  Each state runs
    its own Newton iteration on ``F(x) = x - h (A x + f(x)) - y - g(y) dW``
    with Jacobian ``I - h (A + Df(x))``.  Where the iteration does not
    converge, meets a singular Jacobian or leaves the finite numbers, that
    state takes one balanced step over the same ``h`` instead, and the
    other states of the batch are not affected.  Returns
    ``(y_next, used_fallback)``, the mask of shape ``y.shape[:-1]``.
    """
    if problem.df is None:
        raise ValueError("drift-implicit scheme needs problem.df (Jacobian of f)")
    y = np.asarray(y, dtype=float)
    lead, d = y.shape[:-1], problem.d
    c = (y + _noise(problem, problem.g(y), dW, noise)).reshape(-1, d)
    y = y.reshape(-1, d)
    dW = np.asarray(dW).reshape(-1, problem.m)
    k = y.shape[0]
    hv = np.broadcast_to(np.asarray(h, dtype=float), lead).reshape(k)
    x = y.copy()
    eye = np.eye(d)
    converged = np.zeros(k, dtype=bool)
    failed = np.zeros(k, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER + 1):
        active = ~(converged | failed)
        if not active.any():
            break
        xa = x[active]
        F = xa - hv[active, None] * problem.drift(xa) - c[active]
        ok = _vnorm(F) <= _NEWTON_TOL
        idx = np.flatnonzero(active)
        converged[idx[ok]] = True
        live = idx[~ok]
        if live.size == 0:
            continue
        # I - h (A + Df) in one buffer; the array df returns is only read.
        J = np.add(problem.df(x[live]), problem.A)
        J *= hv[live, None, None]
        np.subtract(eye, J, out=J)
        xn = x[live] - _newton_updates(J, F[~ok])
        bad = ~np.all(np.isfinite(xn), axis=-1)
        x[live] = np.where(bad[:, None], x[live], xn)
        failed[live[bad]] = True
    failed |= ~converged
    if failed.any():
        x[failed] = step_balanced(problem, y[failed], hv[failed], dW[failed])
    return x.reshape(lead + (d,)), failed.reshape(lead)


def _newton_updates(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve ``J_i dx_i = F_i`` for a stack ``J`` (k, d, d); NaN rows where singular.

    ``np.linalg.solve`` raises for the whole stack if one matrix is
    singular, so the stack is then solved one matrix at a time, and only
    the singular ones come out NaN.
    """
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.full_like(F, np.nan)
        return np.concatenate([_newton_updates(J[i : i + 1], F[i : i + 1]) for i in range(len(J))])


def step_map(problem: SdeProblem, scheme: str) -> Callable[..., tuple[np.ndarray, object]]:
    """The one-step map of ``scheme`` as ``fn(y, h, dW, noise=None) -> (y_next, fell_back)``.

    ``noise`` is the mixed increment ``S dW`` if the caller has it.
    ``fell_back`` is the drift-implicit scheme's Newton-fallback mask and
    None for every other scheme.  An adaptive scheme maps to its main step,
    ``fn(y, h, dW, f_y)``, where ``f_y`` is the response its controller
    read: ``f(y)`` for the semi-implicit scheme, the full drift for the
    explicit one.  The controller and the backstop stay with the caller.
    The truncated scheme takes its growth envelope from
    ``problem.truncation`` and raises ValueError for a problem without one.
    Each closure looks its ``step_*`` function up as a module global when
    it is called, so a rebinding of that name (a tracer's wrapper, say)
    reaches every caller.
    """
    if scheme == "adaptive_semi_implicit":
        solver = LinearSolver(problem)
        return lambda y, h, dW, f_y: (step_semi_implicit(problem, y, h, dW, solver, f_y), None)
    if scheme in ("adaptive_explicit", "explicit_euler"):
        return lambda y, h, dW, D=None, noise=None: (step_explicit_euler(problem, y, h, dW, D, noise), None)
    if scheme == "drift_implicit":
        return lambda y, h, dW, noise=None: step_drift_implicit_batch(problem, y, h, dW, noise)
    if scheme == "balanced":
        return lambda y, h, dW, noise=None: (step_balanced(problem, y, h, dW, noise), None)
    if scheme == "increment_tamed":
        return lambda y, h, dW, noise=None: (step_increment_tamed(problem, y, h, dW, noise), None)
    if scheme == "fully_tamed":
        return lambda y, h, dW, noise=None: (step_fully_tamed(problem, y, h, dW, noise), None)
    if scheme == "truncated":
        if problem.truncation is None:
            raise ValueError("truncated scheme needs problem.truncation, a growth envelope (mu_inv, H)")
        mu_inv, H = problem.truncation
        return lambda y, h, dW, noise=None: (step_truncated(problem, y, h, dW, mu_inv, H, noise), None)
    raise ValueError(f"unknown scheme {scheme!r}; choose one of {', '.join(SCHEME_IDS)}")


# -- single-path driver ------------------------------------------------------


def _diverged(y: np.ndarray, yy=None):
    """Whether a state ``(d,)``, or each row of a stack ``(k, d)``, is diverged.

    ``not ||y||^2 <= DIVERGENCE_THRESHOLD^2`` is true for NaN and inf too,
    and a row gets the same verdict alone as in a stack.  ``yy`` is
    ``np.vdot(y, y)`` if the caller has it.

    One reduction settles a state or a stack in the common case: the sum of
    all its squared entries, which bounds every row's squared norm up to
    rounding.  Below the threshold by a relative margin of 2**-20, which
    covers the rounding of both for any stack that fits in memory, it clears
    every row at once.  Only what fails it, by a NaN, an inf or a norm near
    or past the threshold, takes the exact per-row sums of squares.
    """
    if (np.vdot(y, y) if yy is None else yy) <= _STACK_SQ:
        return np.zeros(y.shape[:-1], dtype=bool) if y.ndim > 1 else False
    return ~(np.add.reduce(np.square(y), axis=-1) <= _THRESHOLD_SQ)


def solve(
    problem: SdeProblem,
    scheme: str,
    path: WienerPath,
    *,
    config: Optional[MeshConfig] = None,
    h: Optional[float] = None,
    record_trajectory: bool = False,
) -> SolveResult:
    """March one sample path of ``problem`` from 0 to T with ``scheme``.

    Adaptive schemes require ``config`` and fixed-step schemes ``h``; each
    raises ValueError on the other's argument.  The truncated scheme needs
    a problem with a ``truncation`` envelope.
    The final step is truncated to land exactly on T.  A non-finite state or
    one with norm beyond ``DIVERGENCE_THRESHOLD`` aborts the run with the
    ``diverged`` flag set (expected for explicit Euler on stiff problems).
    """
    step = step_map(problem, scheme)
    if path.dim != problem.m:
        raise ValueError(f"path has {path.dim} components, problem needs m={problem.m}")
    adaptive = scheme in ADAPTIVE_SCHEMES
    if adaptive:
        if config is None:
            raise ValueError(f"scheme {scheme!r} needs a MeshConfig")
        if h is not None:
            raise ValueError(f"adaptive scheme {scheme!r} takes config, not a step size h")
    else:
        if h is None:
            raise ValueError(f"fixed-step scheme {scheme!r} needs a step size h")
        if config is not None:
            raise ValueError(f"fixed-step scheme {scheme!r} takes a step size h, not config")
        if not 0 < h <= problem.t_end:
            raise ValueError("step size must satisfy 0 < h <= t_end")

    T = problem.t_end
    y = problem.x0.copy()
    yy = np.vdot(y, y)
    t = 0.0
    mesh: list[float] = []
    trajectory = [y.copy()] if record_trajectory else None
    n_backstop = 0
    diverged = False
    t_stop = T - END_SNAP * T

    t0 = time.perf_counter()
    while t < t_stop:
        if adaptive:
            f_y = problem.drift(y) if scheme == "adaptive_explicit" else problem.f(y)
            h_n, use_backstop = _decide(y, f_y, yy, config)
        else:
            h_n, use_backstop = h, False

        final_step = t + h_n >= t_stop
        if final_step:
            h_n = last_step(t, T)
        t_next = T if final_step else t + h_n
        dW = path.increment(t, t_next)
        if use_backstop and not final_step:
            y, fell_back = step_balanced(problem, y, h_n, dW), True
        else:
            y, fell_back = step(y, h_n, dW, f_y) if adaptive else step(y, h_n, dW)
        n_backstop += bool(fell_back)

        mesh.append(h_n)
        t = t_next
        if record_trajectory:
            trajectory.append(y.copy())
        yy = np.vdot(y, y)
        if _diverged(y, yy):
            diverged = True
            break
    wall = time.perf_counter() - t0

    return SolveResult(
        y_terminal=y,
        mesh=np.array(mesh, dtype=float),
        n_backstop=n_backstop,
        wall_time=wall,
        diverged=diverged,
        trajectory=None if trajectory is None else np.array(trajectory),
    )
