"""Benchmark problem catalog.

Five stiff test systems with non-globally-Lipschitz coefficients, each
returned as a ready-made :class:`~adaptsde.core.SdeProblem` with the linear
part split out for the semi-implicit scheme:

* ``gbm``: scalar geometric Brownian motion, strongly mean-reverting; the
  classic linear stability example, with a closed-form solution.
* ``fhn``: FitzHugh-Nagumo neuron with additive noise (stiff for small
  epsilon; cubic drift).
* ``ginzburg_landau``: scalar stochastic Ginzburg-Landau with cubic drift
  and multiplicative noise; the one problem with a growth envelope, so the
  one the truncated scheme runs on.
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
from typing import Callable

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
GBM_X0 = 1.0
GBM_T = 1.0

# SPDE parameters: diffusion coefficient and grid cells, one noise mode each.
SPDE_EPSILON = 0.1
SPDE_J = 101


def gbm() -> SdeProblem:
    """Geometric Brownian motion ``du = r u dt + sigma u dW``, r=-8, sigma=3."""

    def f(x):
        return np.zeros_like(x)

    def g(x):
        return GBM_SIGMA * np.asarray(x)

    def df(x):
        x = np.asarray(x)
        return np.zeros(x.shape + (1,))

    return SdeProblem(
        d=1,
        m=1,
        A=np.array([[GBM_R]]),
        f=f,
        g=g,
        S=np.ones((1, 1)),
        df=df,
        x0=np.array([GBM_X0]),
        t_end=GBM_T,
    )


def gbm_exact_terminal(w_t: np.ndarray) -> np.ndarray:
    """Closed-form terminal value of :func:`gbm`, ``x0 exp((r - sigma^2/2) T + sigma W(T))``.

    ``w_t`` is the Brownian value at ``T`` (scalar or array); used as a
    per-path exact reference.
    """
    return GBM_X0 * np.exp((GBM_R - 0.5 * GBM_SIGMA**2) * GBM_T + GBM_SIGMA * np.asarray(w_t))


def fhn(epsilon: float) -> SdeProblem:
    """FitzHugh-Nagumo with additive noise.

    The voltage equation ``eps dV = [V - V^3 + w] dt + sigma_1 sqrt(eps) dW_1``
    is divided through by ``eps`` so the linear part matches the drift matrix
    ``A = [[1/eps, 1/eps], [-1, -beta]]``; the recovery equation is
    ``dw = [-V - beta w + alpha] dt + sigma_2 dW_2``.  With ``eps = 0.5`` the
    matrix has a complex-conjugate eigenvalue pair, with ``eps = 0.1`` two
    real eigenvalues.  alpha=0.1, beta=0.01, sigma_1=0.05, sigma_2=0.1.
    The initial state is the origin.
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
        return np.ones_like(x)

    def df(x):
        x = np.asarray(x)
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = -3.0 * x[..., 0] ** 2 / eps
        return out

    return SdeProblem(
        d=2,
        m=2,
        A=A,
        f=f,
        g=g,
        S=G0,
        df=df,
        x0=np.zeros(2),
        t_end=1.0,
    )


def ginzburg_landau() -> SdeProblem:
    """Scalar stochastic Ginzburg-Landau ``dx = a x (b - x^2) dt + c x dW``.

    a=0.1, b=1, c=0.2, x(0)=2.  The drift splits as ``A = a b`` (linear) and
    ``f(x) = -a x^3`` (dissipative cubic).  The growth envelope is
    :func:`gl_truncation_functions`.
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
        t_end=1.0,
        truncation=gl_truncation_functions(),
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
        return np.where(s >= K, np.cbrt(np.maximum(s / K - 1.0, 0.0)), 0.0)

    def H(h):
        return K * 2.0 * np.asarray(h, dtype=float) ** (-0.25)  # mu(1) = 2K = 0.4

    return mu_inv, H


def stoch_vol_32() -> SdeProblem:
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
        return np.repeat(n**1.5, x.shape[-1], axis=-1)

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
        t_end=1.0,
    )


def spde_fd() -> SdeProblem:
    """Finite-difference system for a stochastic reaction-diffusion PDE.

    Central differences on (0,1) with zero Dirichlet boundaries and grid
    spacing ``dx = 1/J``, J=101, give ``d = J - 1 = 100`` interior unknowns
    at ``x_i = i dx``.  The linear part is ``eps tridiag(1,-2,1)/dx^2 + eta I``
    with eps=0.1 and eta=11; the remaining drift is ``f(u) = u^3 - 2 u^5``
    elementwise.  Noise mode ``j = 1..J`` forces component ``i`` with
    ``sigma u_i^2 j^(-3/2) sin(j pi x_i)``, sigma=0.2.  Initial data
    ``u0(x) = 2 sin(pi x)``.
    """
    eps, J = SPDE_EPSILON, SPDE_J
    eta, lam_q, sigma = 11.0, 2.0, 0.2
    d = J - 1
    dx = 1.0 / J
    xs = dx * np.arange(1, J)  # interior grid points
    lap = (np.diag(np.full(d - 1, 1.0), -1) + np.diag(np.full(d, -2.0)) + np.diag(np.full(d - 1, 1.0), 1)) / dx**2
    A = eps * lap + eta * np.eye(d)
    js = np.arange(1, J + 1)
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

    return SdeProblem(
        d=d,
        m=J,
        A=A,
        f=f,
        g=g,
        S=S,
        df=df,
        x0=2.0 * np.sin(np.pi * xs),
        t_end=1.0,
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
