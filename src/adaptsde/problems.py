"""Benchmark problem catalog.

Five stiff test systems with non-globally-Lipschitz coefficients, each
returned as a ready-made :class:`~adaptsde.core.SdeProblem` with the linear
part split out for the semi-implicit scheme:

* ``gbm``: scalar geometric Brownian motion, strongly mean-reverting; the
  classic linear stability example, with a closed-form solution.
* ``fhn``: FitzHugh-Nagumo neuron with additive noise (stiff for small
  epsilon; cubic drift).
* ``ginzburg_landau``: scalar stochastic Ginzburg-Landau with cubic drift
  and multiplicative noise.
* ``stoch_vol_32``: two-dimensional 3/2-volatility model, superlinear
  diffusion ``||x||^(3/2)``.
* ``spde_fd``: finite-difference discretization of a stochastic
  reaction-diffusion PDE on (0,1) with quintic drift and decaying noise
  modes, yielding a stiff tridiagonal system of 100 coupled SDEs.

All coefficient callables broadcast over leading axes (states of shape
``(..., d)``), which the vectorized Monte-Carlo harness relies on.  Each
diffusion is given factored, as pointwise amplitudes ``g(x)`` of shape
``(..., d)`` times a constant noise matrix ``S`` (see :mod:`adaptsde.core`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import SdeProblem

__all__ = [
    "gbm",
    "gbm_exact_terminal",
    "fhn",
    "ginzburg_landau",
    "stoch_vol_32",
    "spde_fd",
    "gl_truncation_functions",
    "problem_by_name",
    "PROBLEM_NAMES",
]

PROBLEM_NAMES = ("gbm", "fhn05", "fhn01", "gl", "svol", "spde")

# GBM parameters: strongly stable drift, vigorous noise. The mean-square
# stability threshold for fixed-step explicit Euler is -2(r + s^2/2)/r^2
# = 7/64, far below the coarsest benchmark step.
GBM_R = -8.0
GBM_SIGMA = 3.0


def gbm(u0: float = 1.0, t_end: float = 1.0) -> SdeProblem:
    """Geometric Brownian motion ``du = r u dt + sigma u dW``, r=-8, sigma=3."""

    def f(x):
        return np.zeros_like(x)

    def g(x):
        return GBM_SIGMA * np.asarray(x)

    def df(x):
        x = np.asarray(x)
        return np.zeros(x.shape + (1,))

    name = "gbm" if (u0 == 1.0 and t_end == 1.0) else None
    return SdeProblem(
        d=1,
        m=1,
        A=np.array([[GBM_R]]),
        f=f,
        g=g,
        S=np.ones((1, 1)),
        df=df,
        x0=np.array([float(u0)]),
        t_end=t_end,
        structure_hint="scalar",
        name=name,
    )


def gbm_exact_terminal(w_t: np.ndarray, t: float = 1.0, u0: float = 1.0) -> np.ndarray:
    """Closed-form GBM solution ``u0 exp((r - sigma^2/2) t + sigma W(t))``.

    ``w_t`` is the Brownian value at time ``t`` (scalar or array); used as a
    per-path exact reference.
    """
    return u0 * np.exp((GBM_R - 0.5 * GBM_SIGMA**2) * t + GBM_SIGMA * np.asarray(w_t))


def fhn(epsilon: float, x0=(0.0, 0.0), t_end: float = 1.0) -> SdeProblem:
    """FitzHugh-Nagumo with additive noise.

    The voltage equation ``eps dV = [V - V^3 + w] dt + sigma_1 sqrt(eps) dW_1``
    is divided through by ``eps`` so the linear part matches the drift matrix
    ``A = [[1/eps, 1/eps], [-1, -beta]]``; the recovery equation is
    ``dw = [-V - beta w + alpha] dt + sigma_2 dW_2``.  With ``eps = 0.5`` the
    matrix has a complex-conjugate eigenvalue pair, with ``eps = 0.1`` two
    real eigenvalues.  alpha=0.1, beta=0.01, sigma_1=0.05, sigma_2=0.1.

    The initial state defaults to the origin.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha, beta = 0.1, 0.01
    s1, s2 = 0.05, 0.1
    eps = float(epsilon)
    A = np.array([[1.0 / eps, 1.0 / eps], [-1.0, -beta]])
    G0 = np.array([[s1 / math.sqrt(eps), 0.0], [0.0, s2]])

    def f(x):
        x = np.asarray(x)
        V = x[..., 0]
        out = np.empty_like(x)
        out[..., 0] = -(V**3) / eps
        out[..., 1] = alpha
        return out

    def g(x):
        return np.broadcast_to(1.0, np.shape(x))

    def df(x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = -3.0 * x[..., 0] ** 2 / eps
        return out

    default = x0 == (0.0, 0.0) and t_end == 1.0
    name = None
    if default and eps == 0.5:
        name = "fhn05"
    elif default and eps == 0.1:
        name = "fhn01"
    return SdeProblem(
        d=2,
        m=2,
        A=A,
        f=f,
        g=g,
        S=G0,
        df=df,
        x0=np.asarray(x0, dtype=float),
        t_end=t_end,
        structure_hint="dense",
        name=name,
    )


def ginzburg_landau(t_end: float = 1.0) -> SdeProblem:
    """Scalar stochastic Ginzburg-Landau ``dx = a x (b - x^2) dt + c x dW``.

    a=0.1, b=1, c=0.2, x(0)=2.  The drift splits as ``A = a b`` (linear) and
    ``f(x) = -a x^3`` (dissipative cubic).
    """
    a, b, c = 0.1, 1.0, 0.2

    def f(x):
        return -a * np.asarray(x) ** 3

    def g(x):
        return c * np.asarray(x)

    def df(x):
        x = np.asarray(x)
        return (-3.0 * a * x**2)[..., None]

    return SdeProblem(
        d=1,
        m=1,
        A=np.array([[a * b]]),
        f=f,
        g=g,
        S=np.ones((1, 1)),
        df=df,
        x0=np.array([2.0]),
        t_end=t_end,
        structure_hint="scalar",
        name="gl" if t_end == 1.0 else None,
    )


def gl_truncation_functions() -> tuple[Callable, Callable]:
    """``(mu_inv, H)`` for the truncated scheme on the Ginzburg-Landau problem.

    ``mu(r) = K (1 + r^3)`` with ``K = 0.2`` dominates both
    ``sup_{|x|<=r} |A x + f(x)|`` and ``sup_{|x|<=r} |g(x)|`` for the GL
    coefficients, so it is an admissible growth envelope; its inverse is
    ``mu_inv(s) = ((s/K) - 1)^(1/3)`` for ``s >= K`` (zero below).  The gauge
    is ``H(h) = mu(1) h^(-1/4)``, which sends the truncation radius to
    infinity as ``h -> 0`` so the scheme reduces to explicit Euler in the
    limit.  Both functions accept scalars or arrays.
    """
    K = 0.2

    def mu_inv(s):
        s = np.asarray(s, dtype=float)
        r = np.where(s >= K, np.cbrt(np.maximum(s / K - 1.0, 0.0)), 0.0)
        if r.ndim == 0:
            return float(r)
        return r

    def H(h):
        h = np.asarray(h, dtype=float)
        out = K * 2.0 * h ** (-0.25)  # mu(1) = 2K = 0.4
        if out.ndim == 0:
            return float(out)
        return out

    return mu_inv, H


def stoch_vol_32(t_end: float = 1.0) -> SdeProblem:
    """Two-dimensional 3/2-volatility model.

    ``dX = lam X (mu - ||X||) dt + ||X||^(3/2) B dW`` with lam=2.5, mu=1,
    ``B = [[2,1],[1,2]]/sqrt(10)`` and ``X(0) = (1,1)``.  The norm plays the
    role the absolute value has in the scalar 3/2 model.  Linear split:
    ``A = lam mu I``, ``f(x) = -lam ||x|| x``.
    """
    lam, mu = 2.5, 1.0
    B = np.array([[2.0, 1.0], [1.0, 2.0]]) / math.sqrt(10.0)

    def f(x):
        x = np.asarray(x)
        n = np.sqrt(np.square(x).sum(axis=-1, keepdims=True))
        return -lam * n * x

    def g(x):
        x = np.asarray(x)
        n = np.sqrt(np.square(x).sum(axis=-1, keepdims=True))
        return np.broadcast_to(n**1.5, x.shape)

    def df(x):
        x = np.asarray(x)
        n = np.sqrt(np.square(x).sum(axis=-1))
        safe = np.where(n > 0, n, 1.0)
        outer = x[..., :, None] * x[..., None, :] / safe[..., None, None]
        eye = np.eye(2)
        out = -lam * (n[..., None, None] * eye + outer)
        return np.where(n[..., None, None] > 0, out, 0.0)

    return SdeProblem(
        d=2,
        m=2,
        A=lam * mu * np.eye(2),
        f=f,
        g=g,
        S=B,
        df=df,
        x0=np.array([1.0, 1.0]),
        t_end=t_end,
        structure_hint="diagonal",
        name="svol" if t_end == 1.0 else None,
    )


def spde_fd(
    epsilon: float = 0.1,
    J: int = 101,
    modes: Optional[int] = None,
    t_end: float = 1.0,
) -> SdeProblem:
    """Finite-difference system for a stochastic reaction-diffusion PDE.

    Central differences on (0,1) with zero Dirichlet boundaries and grid
    spacing ``dx = 1/J`` give ``d = J - 1`` interior unknowns at
    ``x_i = i dx``.  The linear part is ``eps tridiag(1,-2,1)/dx^2 + eta I``
    with eta=11; the remaining drift is ``f(u) = u^3 - 2 u^5`` elementwise.
    Noise mode ``j`` forces component ``i`` with
    ``sigma u_i^2 j^(-3/2) sin(j pi x_i)``, sigma=0.2; by default there are
    ``J`` modes.  Initial data ``u0(x) = 2 sin(pi x)``.
    """
    if J < 3:
        raise ValueError("J must be at least 3")
    if modes is None:
        modes = J
    if modes < 1:
        raise ValueError("modes must be positive")
    eps = float(epsilon)
    eta, lam_q, sigma = 11.0, 2.0, 0.2
    d = J - 1
    dx = 1.0 / J
    xs = dx * np.arange(1, J)  # interior grid points
    lap = (np.diag(np.full(d - 1, 1.0), -1) + np.diag(np.full(d, -2.0)) + np.diag(np.full(d - 1, 1.0), 1)) / dx**2
    A = eps * lap + eta * np.eye(d)
    js = np.arange(1, modes + 1)
    # Spatial noise profile: S[i, j-1] = j^(-3/2) sin(j pi x_i).
    S = js[None, :] ** -1.5 * np.sin(np.pi * np.outer(xs, js))

    def f(u):
        u = np.asarray(u)
        return u**3 - lam_q * u**5

    def g(u):
        return sigma * np.asarray(u) ** 2

    def df(u):
        u = np.asarray(u)
        out = np.zeros(u.shape + (d,))
        idx = np.arange(d)
        out[..., idx, idx] = 3.0 * u**2 - 5.0 * lam_q * u**4
        return out

    default = eps == 0.1 and J == 101 and modes == J and t_end == 1.0
    return SdeProblem(
        d=d,
        m=int(modes),
        A=A,
        f=f,
        g=g,
        S=S,
        df=df,
        x0=2.0 * np.sin(np.pi * xs),
        t_end=t_end,
        structure_hint="tridiagonal",
        name="spde" if default else None,
    )


_CONSTRUCTORS = {
    "gbm": gbm,
    "fhn05": lambda: fhn(0.5),
    "fhn01": lambda: fhn(0.1),
    "gl": ginzburg_landau,
    "svol": stoch_vol_32,
    "spde": spde_fd,
}


def problem_by_name(name: str) -> SdeProblem:
    """Build a catalog problem from its CLI name.

    Known names: ``gbm | fhn05 | fhn01 | gl | svol | spde``.
    """
    try:
        ctor = _CONSTRUCTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose one of {', '.join(PROBLEM_NAMES)}"
        ) from None
    return ctor()
