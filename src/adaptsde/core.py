"""Shared domain types: SDE problems, mesh configuration, step records, results.

Conventions used throughout the package:

* States are numpy arrays of shape ``(d,)``.  Coefficient callables must also
  accept stacked states of shape ``(..., d)`` and broadcast over the leading
  axes; the Monte-Carlo harness relies on this to advance whole batches of
  sample paths in single vectorized steps.
* ``f`` maps ``(..., d) -> (..., d)``.  The diffusion is stored factored:
  ``g`` maps ``(..., d) -> (..., d)`` pointwise amplitudes and the constant
  ``d x m`` matrix ``S`` mixes the Wiener components, so the diffusion
  matrix is ``g(y)[..., :, None] * S`` and column ``i`` of it is the
  diffusion vector paired with the i-th Wiener component.  The step maps
  never form that matrix: they take ``g(y) dW`` as ``g(y) * (S dW)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

StructureHint = Literal["dense", "tridiagonal", "diagonal", "scalar"]

__all__ = [
    "SdeProblem",
    "MeshConfig",
    "StepRecord",
    "SolveResult",
    "HmaxBoundReport",
    "validate_hmax_bound",
    "terminal_error",
    "infer_structure",
    "mesh_times",
]


@dataclass(frozen=True)
class SdeProblem:
    """An autonomous Ito SDE ``dX = [A X + f(X)] dt + diag(g(X)) S dW``.

    Parameters
    ----------
    d, m
        State dimension and number of independent Wiener components.
    A
        ``d x d`` linear drift operator (may be zero).  The semi-implicit
        scheme treats this part implicitly.
    f
        Nonlinear drift, ``(..., d) -> (..., d)``.
    g
        Diffusion amplitudes, ``(..., d) -> (..., d)``.
    S
        Constant ``d x m`` noise matrix.  The diffusion matrix is
        ``g(y)[..., :, None] * S``; its column ``i`` multiplies ``dW_i``.
        ``S2 = S**2`` is cached alongside for the column norms.
    df
        Optional Jacobian of ``f``, ``(..., d) -> (..., d, d)``.  Required by
        the drift-implicit scheme's Newton solver.
    x0
        Initial state, shape ``(d,)``.
    t_end
        Horizon ``T > 0``.
    structure_hint
        Shape of ``A`` used to pick the linear solver: one of ``dense``,
        ``tridiagonal``, ``diagonal``, ``scalar``.
    name
        Optional catalog name; problems built by :mod:`adaptsde.problems`
        carry one so multiprocessing workers can rebuild them.
    """

    d: int
    m: int
    A: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    S: np.ndarray
    x0: np.ndarray
    t_end: float
    df: Optional[Callable[[np.ndarray], np.ndarray]] = None
    structure_hint: StructureHint = "dense"
    name: Optional[str] = None
    S2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("dimensions d and m must be positive")
        A = np.asarray(self.A, dtype=float)
        if A.shape != (self.d, self.d):
            raise ValueError(f"A must be {self.d}x{self.d}, got {A.shape}")
        S = np.asarray(self.S, dtype=float)
        if S.shape != (self.d, self.m):
            raise ValueError(f"S must be {self.d}x{self.m}, got {S.shape}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},), got {x0.shape}")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S2", S**2)
        object.__setattr__(self, "x0", x0)

    def drift(self, y: np.ndarray) -> np.ndarray:
        """Full drift ``A y + f(y)`` for states of shape ``(..., d)``."""
        return y @ self.A.T + self.f(y)


def infer_structure(A: np.ndarray) -> StructureHint:
    """Classify the sparsity pattern of ``A`` (tightest hint that applies)."""
    A = np.asarray(A)
    d = A.shape[0]
    if d == 1:
        return "scalar"
    if np.count_nonzero(A - np.diag(np.diagonal(A))) == 0:
        return "diagonal"
    mask = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1
    if np.count_nonzero(np.where(mask, 0.0, A)) == 0:
        return "tridiagonal"
    return "dense"


@dataclass(frozen=True)
class MeshConfig:
    """Adaptive-mesh bounds: ``h_max`` and the ratio ``rho = h_max / h_min``.

    ``h_min`` is always derived, never stored, so the pair can not drift out
    of sync.  ``h_max <= 1`` is enforced because the step-size analysis the
    method rests on assumes it.
    """

    h_max: float
    rho: float = 100.0

    def __post_init__(self):
        if not 0 < self.h_max <= 1:
            raise ValueError(f"h_max must be in (0, 1], got {self.h_max}")
        if not self.rho >= 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")

    @property
    def h_min(self) -> float:
        return self.h_max / self.rho


@dataclass(frozen=True)
class StepRecord:
    """One realized step of a solve.

    ``origin`` tells which map produced the step: the scheme itself or the
    backstop.  A backstop step always has ``h == h_min``.  ``attempted_h`` is
    the controller's raw proposal before clamping (for fixed-step schemes it
    equals ``h``).
    """

    t_start: float
    h: float
    origin: Literal["main_scheme", "backstop"]
    attempted_h: float


@dataclass
class SolveResult:
    """Outcome of a single solve: terminal state plus step bookkeeping."""

    y_terminal: np.ndarray
    mesh: list[StepRecord]
    n_steps: int
    n_backstop: int
    mean_h: float
    wall_time: float
    diverged: bool = False
    trajectory: Optional[list[tuple[float, np.ndarray]]] = None

    def mesh_times(self) -> np.ndarray:
        """Knot times ``t_0 = 0, ..., t_N`` implied by the mesh records."""
        return mesh_times(self.mesh)


def mesh_times(mesh: Sequence[StepRecord]) -> np.ndarray:
    ts = np.empty(len(mesh) + 1)
    ts[0] = 0.0
    acc = 0.0
    for i, rec in enumerate(mesh):
        acc += rec.h
        ts[i + 1] = acc
    return ts


def terminal_error(y: np.ndarray, x_ref: np.ndarray) -> float:
    """Squared l2 terminal error ``||y - x_ref||^2`` for one sample.

    The harness averages these over samples and takes the square root.
    """
    y = np.asarray(y, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if y.shape != x_ref.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {x_ref.shape}")
    diff = y - x_ref
    return float(np.dot(diff, diff))


@dataclass(frozen=True)
class HmaxBoundReport:
    """Result of the step-size bound check.

    ``holds`` is None when the matrix square root iteration failed and the
    bound could not be evaluated; ``lhs`` is then NaN.
    """

    holds: Optional[bool]
    lhs: float
    delta: float
    message: str = ""


def _sqrt_norm_symmetric(A: np.ndarray) -> float:
    """``||A^(1/2)||^2`` for symmetric A: the spectral radius of ``|A|``."""
    eig = np.linalg.eigvalsh(A)
    return float(np.max(np.abs(eig)))


def _denman_beavers_sqrt(A: np.ndarray, tol: float = 1e-12, max_iter: int = 100) -> Optional[np.ndarray]:
    """Principal matrix square root by the Denman-Beavers iteration.

    Runs in complex arithmetic so complex-conjugate eigenvalue pairs (for
    example the FitzHugh-Nagumo drift matrix) are handled.  Returns None if
    the iteration does not converge or an iterate is singular.
    """
    X = A.astype(complex)
    Y = np.eye(A.shape[0], dtype=complex)
    for _ in range(max_iter):
        try:
            Xi = np.linalg.inv(X)
            Yi = np.linalg.inv(Y)
        except np.linalg.LinAlgError:
            return None
        Xn = 0.5 * (X + Yi)
        Yn = 0.5 * (Y + Xi)
        delta = np.linalg.norm(Xn - X) / max(np.linalg.norm(Xn), 1e-300)
        X, Y = Xn, Yn
        if delta <= tol:
            if not np.all(np.isfinite(X)):
                return None
            return X
    return None


def _spectral_norm_power(M: np.ndarray, tol: float = 1e-12, max_iter: int = 100) -> float:
    """2-norm of M by power iteration on ``M* M``."""
    B = M.conj().T @ M
    d = B.shape[0]
    v = np.ones(d, dtype=B.dtype) / math.sqrt(d)
    lam = 0.0
    for _ in range(max_iter):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        lam_new = float(np.real(np.vdot(v, B @ v)))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))


def validate_hmax_bound(problem: SdeProblem, config: MeshConfig, delta: float = 0.0) -> HmaxBoundReport:
    """Check ``h_max (||A^(1/2)||^2 + (1 + h_max/2) ||A||^2) <= 1 - delta``.

    This is the sufficient condition under which the implicit solve in the
    semi-implicit scheme is well behaved.  Benchmark parameter sets routinely
    violate it and still run fine, so a violation only emits a warning and
    never blocks a run.

    For symmetric ``A`` the term ``||A^(1/2)||^2`` equals the spectral radius
    of ``|A|`` and is computed by eigendecomposition; otherwise the principal
    square root is formed by a Denman-Beavers iteration and its norm taken by
    power iteration.
    """
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    A = problem.A
    h = config.h_max
    norm_A = _spectral_norm_power(A)
    if np.allclose(A, A.T, rtol=0.0, atol=1e-13 * max(1.0, float(np.max(np.abs(A))))):
        sqrt_norm_sq = _sqrt_norm_symmetric(A)
    else:
        root = _denman_beavers_sqrt(A)
        if root is None:
            msg = "matrix square root iteration failed to converge; bound indeterminate"
            warnings.warn(msg)
            return HmaxBoundReport(holds=None, lhs=float("nan"), delta=delta, message=msg)
        sqrt_norm_sq = _spectral_norm_power(root) ** 2
    lhs = h * (sqrt_norm_sq + (1.0 + h / 2.0) * norm_A**2)
    holds = bool(lhs <= 1.0 - delta)
    msg = ""
    if not holds:
        msg = (
            f"step-size bound violated: h_max*(||A^(1/2)||^2 + (1+h_max/2)*||A||^2) "
            f"= {lhs:.6g} > {1.0 - delta:.6g}; proceeding anyway"
        )
        warnings.warn(msg)
    return HmaxBoundReport(holds=holds, lhs=float(lhs), delta=delta, message=msg)
