"""Shared domain types: SDE problems, mesh configuration, solve results.

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
* Every product of a stack of rows with a matrix, or of a row with itself,
  is a gufunc over rows: ``np.vecmat(x, M)`` for ``x M`` and
  ``np.vecdot(x, x)`` for ``x . x``.  Each row then gets the bits it gets
  alone, and a 1-D state those of ``x @ M`` and ``x @ x``, so no result
  depends on how many samples are stacked with it.
* A solve's mesh is the array of its realized step sizes, ``h_0`` to
  ``h_{N-1}``.  Its knot times ``0, h_0, h_0 + h_1, ...`` are not stored:
  they come from :func:`mesh_times`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

Structure = Literal["dense", "tridiagonal", "diagonal"]

__all__ = [
    "SdeProblem",
    "MeshConfig",
    "SolveResult",
    "infer_structure",
    "mesh_times",
    "last_step",
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
        scheme treats this part implicitly, with a linear solver chosen from
        the sparsity pattern of ``A`` (:func:`infer_structure`): diagonal,
        tridiagonal or dense.
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
    truncation
        Optional growth envelope ``(mu_inv, H)`` of the coefficients: the
        inverse of an envelope ``mu`` and the gauge ``H(h)``, which together
        give the truncated scheme's radius ``mu_inv(H(h))``.  Required by
        the truncated scheme.
    x0
        Initial state, shape ``(d,)``.
    t_end
        Horizon ``T > 0``.
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
    truncation: Optional[tuple[Callable, Callable]] = None
    S2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("d", "m"):
            require_integer(key, getattr(self, key))
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
        pair = self.truncation
        if pair is not None and not (isinstance(pair, tuple) and len(pair) == 2 and all(map(callable, pair))):
            raise ValueError(f"truncation must be a pair (mu_inv, H) of callables, got {pair!r}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S2", S**2)
        object.__setattr__(self, "x0", x0)

    def drift(self, y: np.ndarray) -> np.ndarray:
        """Full drift ``A y + f(y)`` for states of shape ``(..., d)``."""
        return np.vecmat(y, self.A.T) + self.f(y)


def require_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an int or numpy integer; a float
    or bool would pass a range check (2.0 == 2, True == 1), but sizes nothing."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def infer_structure(A: np.ndarray) -> Structure:
    """Classify the sparsity pattern of ``A``: the tightest structure that applies.

    Every ``1 x 1`` operator is diagonal, and every ``2 x 2`` operator that
    is not diagonal counts as tridiagonal.
    """
    A = np.asarray(A)
    d = A.shape[0]
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
        # An infinite rho gives h_min = 0, where the floor and its backstop
        # can never act.
        if not 1 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 1, got {self.rho}")

    @property
    def h_min(self) -> float:
        return self.h_max / self.rho


@dataclass
class SolveResult:
    """Outcome of a single solve: terminal state plus the realized mesh.

    ``mesh`` holds the step sizes, shape ``(n_steps,)``.  ``trajectory``,
    when recorded, holds the states at the knot times ``mesh_times()``,
    shape ``(n_steps + 1, d)``.  ``n_backstop`` counts the steps taken by
    the backstop or, for the drift-implicit scheme, by the Newton fallback.
    """

    y_terminal: np.ndarray
    mesh: np.ndarray
    n_backstop: int
    wall_time: float
    diverged: bool = False
    trajectory: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return len(self.mesh)

    @property
    def mean_h(self) -> float:
        return float(np.mean(self.mesh)) if len(self.mesh) else 0.0

    def mesh_times(self) -> np.ndarray:
        """Knot times ``t_0 = 0, ..., t_N`` implied by the mesh."""
        return mesh_times(self.mesh)


def mesh_times(h) -> np.ndarray:
    """Knot times of the step sizes ``h``, accumulated left to right."""
    return np.concatenate(([0.0], np.cumsum(h)))


#: End-of-run snap: a march stops within ``END_SNAP * t_end`` of ``t_end``,
#: and a step that comes that close is its last, landed by :func:`last_step`.
END_SNAP = 1e-14


def last_step(t, t_end: float):
    """Step sizes ``h`` from the times ``t`` (scalar or array) to ``t_end``.

    ``h`` starts as ``t_end - t`` and is nudged by ulps until ``t + h ==
    t_end`` bitwise, so a mesh's accumulated knot times hit the terminal
    time, and the path's knot there, exactly.
    """
    h = t_end - t
    for _ in range(64):
        s = t + h
        short = s != t_end
        if not np.any(short):
            break
        h = np.where(short, np.nextafter(h, np.where(s < t_end, np.inf, 0.0)), h)
    return h if np.ndim(h) else float(h)

