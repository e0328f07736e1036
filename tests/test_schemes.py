"""Integrator tests: one-step worked examples, linear solver checks, the
bookkeeping of solve(), and step-map properties over the catalog."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsde.core import MeshConfig, SdeProblem
from adaptsde.problems import (
    PROBLEM_NAMES,
    gbm,
    ginzburg_landau,
    gl_truncation_functions,
    problem_by_name,
    stoch_vol_32,
)
from adaptsde.schemes import (
    ADAPTIVE_SCHEMES,
    DIVERGENCE_THRESHOLD,
    FIXED_STEP_SCHEMES,
    SCHEME_IDS,
    LinearSolver,
    NewtonConfig,
    solve,
    step_balanced,
    step_drift_implicit,
    step_drift_implicit_batch,
    step_explicit_euler,
    step_fully_tamed,
    step_increment_tamed,
    step_semi_implicit,
    step_truncated,
)
from adaptsde.wiener import WienerPath


def cubic_problem(x0=1.0):
    """d = m = 1 toy with A = -1, f = -x^3, g = 0.5 x.

    Small enough that every one-step formula can be evaluated by hand.
    """
    return SdeProblem(
        d=1,
        m=1,
        A=np.array([[-1.0]]),
        f=lambda x: -(x**3),
        g=lambda x: 0.5 * x,
        S=np.ones((1, 1)),
        df=lambda x: (-3.0 * x**2)[..., None],
        x0=np.array([float(x0)]),
        t_end=1.0,
        structure_hint="scalar",
    )


def const_drift_problem(c, gval=0.0):
    """Zero A, constant nonlinear drift c, constant diffusion gval."""
    return SdeProblem(
        d=1,
        m=1,
        A=np.zeros((1, 1)),
        f=lambda x: np.full_like(x, c),
        g=lambda x: np.full_like(x, gval),
        S=np.ones((1, 1)),
        x0=np.zeros(1),
        t_end=1.0,
        structure_hint="scalar",
    )


Y1 = np.array([1.0])
H = 0.5
DW = np.array([0.2])


class TestOneStepWorkedExamples:
    def test_semi_implicit(self):
        # (1 + 0.5) y' = 1 + 0.5*(-1) + 0.1 = 0.6  ->  y' = 0.4
        p = cubic_problem()
        out = step_semi_implicit(p, Y1, H, DW)
        assert out[0] == pytest.approx(0.4, abs=1e-14)

    def test_explicit_euler(self):
        # 1 + 0.5*(-1 - 1) + 0.1 = 0.1
        p = cubic_problem()
        out = step_explicit_euler(p, Y1, H, DW)
        assert out[0] == pytest.approx(0.1, abs=1e-14)

    def test_balanced(self):
        # increment -0.9, denominator 1 + 1 + 0.1 = 2.1: 1 - 3/7 = 4/7
        p = cubic_problem()
        out = step_balanced(p, Y1, H, DW)
        assert out[0] == pytest.approx(4.0 / 7.0, abs=1e-14)

    def test_increment_tamed_inactive_is_explicit_euler(self):
        # |v| = 0.9, h|v| = 0.45 <= 1: denominator clamps at 1 and the
        # step is y + v (up to float association with the Euler form)
        p = cubic_problem()
        tamed = step_increment_tamed(p, Y1, H, DW)
        plain = step_explicit_euler(p, Y1, H, DW)
        assert tamed[0] == pytest.approx(plain[0], abs=1e-15)
        assert tamed[0] == 1.0 + (0.5 * -2.0 + 0.1)

    def test_increment_tamed_active(self):
        # y=2: v = 0.5*(-10) + 0.2 = -4.8, denom = max(1, 2.4) = 2.4
        p = cubic_problem()
        out = step_increment_tamed(p, np.array([2.0]), H, DW)
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    def test_fully_tamed(self):
        # h=0.25: num = -0.4, denom = 1 + 0.5*2 + 0.5*0.5 = 2.25
        p = cubic_problem()
        out = step_fully_tamed(p, Y1, 0.25, DW, beta=0.5)
        assert out[0] == pytest.approx(37.0 / 45.0, abs=1e-14)

    def test_fully_tamed_rejects_bad_beta(self):
        p = cubic_problem()
        with pytest.raises(ValueError):
            step_fully_tamed(p, Y1, 0.25, DW, beta=0.0)
        with pytest.raises(ValueError):
            step_fully_tamed(p, Y1, 0.25, DW, beta=1.5)

    def test_truncated_clamps_state(self):
        # mu_inv(H(0.5)) = 2 clamps y=3 to z=2, then Euler from y:
        # 3 + 0.5*(-2 - 8) + 1*0.2 = -1.8
        p = cubic_problem()
        out = step_truncated(p, np.array([3.0]), H, DW, mu_inv=lambda s: s, H=lambda h: 1.0 / h)
        assert out[0] == pytest.approx(-1.8, abs=1e-14)

    def test_truncated_inside_radius_is_explicit_euler(self):
        p = cubic_problem()
        out = step_truncated(p, Y1, H, DW, mu_inv=lambda s: s, H=lambda h: 1.0 / h)
        plain = step_explicit_euler(p, Y1, H, DW)
        assert out[0] == plain[0]

    def test_truncated_zero_state_stays_put(self):
        p = cubic_problem()
        out = step_truncated(p, np.zeros(1), H, np.zeros(1), mu_inv=lambda s: s, H=lambda h: 1.0 / h)
        assert out[0] == 0.0

    def test_drift_implicit_matches_scalar_root(self):
        # x = 1 + 0.5*(-x - x^3) + 0.1, i.e. 1.5 x + 0.5 x^3 = 1.1
        p = cubic_problem()
        out, fell_back = step_drift_implicit(p, Y1, H, DW)
        assert not fell_back
        root = scipy.optimize.brentq(lambda x: 1.5 * x + 0.5 * x**3 - 1.1, 0.0, 1.0, xtol=1e-14)
        assert out[0] == pytest.approx(root, abs=1e-10)
        # residual of the implicit equation itself
        resid = out[0] - H * (p.A[0, 0] * out[0] + p.f(out)[0]) - (1.0 + 0.1)
        assert abs(resid) <= 1e-10

    def test_drift_implicit_requires_jacobian(self):
        p = SdeProblem(
            d=1, m=1, A=np.array([[-1.0]]),
            f=lambda x: -(x**3),
            g=lambda x: 0.5 * x, S=np.ones((1, 1)),
            x0=Y1, t_end=1.0,
        )
        with pytest.raises(ValueError, match="df"):
            step_drift_implicit(p, Y1, H, DW)


class TestDenominatorClamps:
    """Hand evaluations of the taming denominators on constant-drift toys."""

    def test_balanced_zero_drift_zero_noise_is_identity(self):
        p = const_drift_problem(0.0)
        y = np.array([0.7])
        assert step_balanced(p, y, 0.3, np.array([0.9]))[0] == y[0]

    def test_balanced_pure_drift(self):
        # drift 1, h 1: 0 + 1/(1 + 1) = 0.5
        p = const_drift_problem(1.0)
        out = step_balanced(p, np.zeros(1), 1.0, np.zeros(1))
        assert out[0] == pytest.approx(0.5, abs=1e-15)

    def test_balanced_pure_noise(self):
        # g dW = 3: 3/(1 + 3) = 0.75
        p = const_drift_problem(0.0, gval=3.0)
        out = step_balanced(p, np.zeros(1), 1.0, np.array([1.0]))
        assert out[0] == pytest.approx(0.75, abs=1e-15)

    def test_increment_tamed_small_increment_exact(self):
        p = const_drift_problem(0.4)
        y = np.array([2.0])
        out = step_increment_tamed(p, y, 0.5, np.zeros(1))
        assert out[0] == y[0] + 0.5 * 0.4  # h|v| = 0.1 <= 1, no rescale

    def test_increment_tamed_large_increment(self):
        # v = 10 at h = 1 rescales to exactly 1
        p = const_drift_problem(10.0)
        out = step_increment_tamed(p, np.zeros(1), 1.0, np.zeros(1))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_fully_tamed_pure_drift(self):
        # num = 0.25, denom = 1 + 0.5 = 1.5: 1/6
        p = const_drift_problem(1.0)
        out = step_fully_tamed(p, np.zeros(1), 0.25, np.zeros(1), beta=0.5)
        assert out[0] == pytest.approx(1.0 / 6.0, abs=1e-15)


class TestBatchConsistency:
    """Batched step evaluation agrees with row-by-row scalar calls."""

    @pytest.mark.parametrize(
        "stepper",
        [step_explicit_euler, step_balanced, step_increment_tamed, step_fully_tamed],
    )
    def test_stateless_steppers(self, stepper):
        p = stoch_vol_32()
        rng = np.random.default_rng(3)
        y = rng.normal(size=(6, 2)) * 1.5
        dw = rng.normal(size=(6, 2)) * 0.3
        batch = stepper(p, y, 0.05, dw)
        for i in range(6):
            row = stepper(p, y[i], 0.05, dw[i])
            np.testing.assert_allclose(batch[i], row, rtol=1e-13, atol=0.0)

    def test_semi_implicit_batch(self):
        p = stoch_vol_32()
        rng = np.random.default_rng(4)
        y = rng.normal(size=(5, 2))
        dw = rng.normal(size=(5, 2)) * 0.2
        h = np.full(5, 0.04)
        batch = step_semi_implicit(p, y, h, dw)
        for i in range(5):
            row = step_semi_implicit(p, y[i], 0.04, dw[i])
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-15)

    def test_drift_implicit_batch(self):
        p = ginzburg_landau()
        rng = np.random.default_rng(5)
        y = rng.normal(size=(7, 1)) * 2.0
        dw = rng.normal(size=(7, 1)) * 0.1
        batch, fell = step_drift_implicit_batch(p, y, np.full(7, 0.02), dw)
        assert fell.shape == (7,)
        assert not fell.any()
        for i in range(7):
            row, fb = step_drift_implicit(p, y[i], 0.02, dw[i])
            assert not fb
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-15)


class TestNewtonFallback:
    def test_starved_iteration_falls_back_to_balanced(self):
        p = cubic_problem()
        cfg = NewtonConfig(max_iter=1, fallback="balanced_backstop")
        out, fell_back = step_drift_implicit(p, Y1, H, DW, newton=cfg)
        assert fell_back
        np.testing.assert_array_equal(out, step_balanced(p, Y1, H, DW))

    def test_fail_mode_raises(self):
        p = cubic_problem()
        cfg = NewtonConfig(max_iter=1, fallback="fail")
        with pytest.raises(RuntimeError, match="Newton"):
            step_drift_implicit(p, Y1, H, DW, newton=cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
        with pytest.raises(ValueError):
            NewtonConfig(fallback="shrug")


def random_structured_problem(structure, d, seed):
    rng = np.random.default_rng(seed)
    if structure == "scalar":
        A = rng.normal(size=(1, 1))
        d = 1
    elif structure == "diagonal":
        A = np.diag(rng.normal(size=d))
    elif structure == "tridiagonal":
        A = np.diag(rng.normal(size=d))
        A += np.diag(rng.normal(size=d - 1), 1)
        A += np.diag(rng.normal(size=d - 1), -1)
    else:
        A = rng.normal(size=(d, d))
    return SdeProblem(
        d=d, m=1, A=A,
        f=lambda x: np.zeros_like(x),
        g=lambda x: np.zeros_like(x), S=np.zeros((d, 1)),
        x0=np.zeros(d), t_end=1.0,
        structure_hint=structure,
    )


class TestLinearSolver:
    @pytest.mark.parametrize("structure,d", [
        ("scalar", 1), ("diagonal", 4), ("tridiagonal", 5), ("dense", 5),
    ])
    def test_residual_small(self, structure, d):
        p = random_structured_problem(structure, d, seed=ord(structure[0]))
        solver = LinearSolver(p)
        rng = np.random.default_rng(99)
        for h in (0.3, 0.01, 0.0004):
            b = rng.normal(size=p.d)
            x = solver.solve(h, b)
            assert solver.residual(h, x, b) <= 1e-10

    @pytest.mark.parametrize("structure,d", [
        ("scalar", 1), ("diagonal", 4), ("tridiagonal", 5), ("dense", 5),
    ])
    def test_batch_matches_rowwise(self, structure, d):
        p = random_structured_problem(structure, d, seed=17 + d)
        solver = LinearSolver(p)
        rng = np.random.default_rng(100)
        h = np.array([0.2, 0.05, 0.008])
        b = rng.normal(size=(3, p.d))
        xb = solver.solve_batch(h, b)
        for i in range(3):
            xi = solver.solve(float(h[i]), b[i])
            np.testing.assert_allclose(xb[i], xi, rtol=1e-11, atol=1e-13)

    def test_tridiagonal_agrees_with_dense(self):
        rng = np.random.default_rng(8)
        d = 6
        A = np.diag(rng.normal(size=d)) + np.diag(rng.normal(size=d - 1), 1) + np.diag(
            rng.normal(size=d - 1), -1
        )
        mk = lambda hint: SdeProblem(
            d=d, m=1, A=A,
            f=lambda x: np.zeros_like(x),
            g=lambda x: np.zeros_like(x), S=np.zeros((d, 1)),
            x0=np.zeros(d), t_end=1.0, structure_hint=hint,
        )
        tri = LinearSolver(mk("tridiagonal"))
        dense = LinearSolver(mk("dense"))
        b = rng.normal(size=d)
        np.testing.assert_allclose(tri.solve(0.07, b), dense.solve(0.07, b), rtol=1e-10)

    def test_dense_factor_cache_stays_correct_under_pressure(self):
        # push more distinct h values through than the cache can hold,
        # then revisit the first one
        p = random_structured_problem("dense", 4, seed=21)
        solver = LinearSolver(p)
        b = np.arange(1.0, 5.0)
        first = solver.solve(0.5, b)
        for k in range(1, 80):
            solver.solve(0.5 / (k + 1), b)
        again = solver.solve(0.5, b)
        np.testing.assert_array_equal(first, again)
        assert solver.residual(0.5, again, b) <= 1e-10


class TestSolveDriver:
    def test_scheme_inventory(self):
        assert set(ADAPTIVE_SCHEMES) | set(FIXED_STEP_SCHEMES) == set(SCHEME_IDS)
        assert "adaptive_semi_implicit" in ADAPTIVE_SCHEMES
        assert "explicit_euler" in FIXED_STEP_SCHEMES

    def test_adaptive_mesh_invariants(self):
        p = ginzburg_landau()
        cfg = MeshConfig(h_max=0.05, rho=100.0)
        res = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=31), config=cfg)
        assert not res.diverged
        hs = np.array([r.h for r in res.mesh])
        assert np.all(hs[:-1] <= cfg.h_max + 1e-15)
        assert np.all(hs[:-1] >= cfg.h_min - 1e-15)
        assert math.fsum(hs) == pytest.approx(p.t_end, rel=1e-12)
        n = res.n_steps
        assert math.floor(p.t_end / cfg.h_max) <= n <= math.ceil(p.t_end / cfg.h_min) + 1
        assert res.mean_h == pytest.approx(p.t_end / n, rel=1e-12)

    def test_mesh_times_are_path_knots(self):
        p = ginzburg_landau()
        path = WienerPath(1, seed=32)
        res = solve(p, "adaptive_semi_implicit", path, config=MeshConfig(0.05, 100.0))
        ts = res.mesh_times()
        vals = path.values_on_grid(ts)
        assert vals.shape == (len(ts), 1)
        assert np.all(np.isfinite(vals))
        assert ts[-1] == p.t_end

    def test_same_seed_reproducible(self):
        p = stoch_vol_32()
        cfg = MeshConfig(0.1, 100.0)
        a = solve(p, "adaptive_semi_implicit", WienerPath(2, seed=77), config=cfg)
        b = solve(p, "adaptive_semi_implicit", WienerPath(2, seed=77), config=cfg)
        np.testing.assert_array_equal(a.y_terminal, b.y_terminal)
        assert [r.h for r in a.mesh] == [r.h for r in b.mesh]

    def test_linear_problem_semi_implicit_equals_drift_implicit(self):
        # with f identically zero both schemes solve the same linear system
        p = gbm()
        for seed in range(5):
            a = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=seed),
                      config=MeshConfig(0.25, 100.0))
            b = solve(p, "drift_implicit", WienerPath(1, seed=seed), h=0.25)
            assert a.n_steps == b.n_steps == 4
            assert abs(a.y_terminal[0] - b.y_terminal[0]) <= 1e-12

    def test_zero_drift_response_keeps_h_max(self):
        p = gbm()
        res = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=2),
                    config=MeshConfig(0.25, 100.0))
        assert [r.h for r in res.mesh] == [0.25, 0.25, 0.25, pytest.approx(0.25)]
        assert res.n_backstop == 0

    def test_backstop_engages_far_from_equilibrium(self):
        p = SdeProblem(
            d=1, m=1, A=np.array([[0.1]]),
            f=lambda x: -0.1 * x**3,
            g=lambda x: 0.2 * x, S=np.ones((1, 1)),
            df=lambda x: (-0.3 * x**2)[..., None],
            x0=np.array([40.0]), t_end=1.0, structure_hint="scalar",
        )
        cfg = MeshConfig(h_max=0.1, rho=100.0)
        res = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=11), config=cfg)
        assert res.n_backstop >= 1
        backstop_steps = [r for r in res.mesh if r.origin == "backstop"]
        assert len(backstop_steps) == res.n_backstop
        for r in backstop_steps[:-1]:
            assert r.h == pytest.approx(cfg.h_min)
            assert r.attempted_h < cfg.h_min
        assert not res.diverged
        # plenty of headroom makes the floor unreachable for the same start
        wide = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=11),
                     config=MeshConfig(h_max=0.1, rho=1e7))
        assert wide.n_backstop == 0

    def test_explicit_euler_divergence_flag(self):
        p = SdeProblem(
            d=1, m=1, A=np.array([[0.1]]),
            f=lambda x: -0.1 * x**3,
            g=lambda x: 0.2 * x, S=np.ones((1, 1)),
            x0=np.array([20.0]), t_end=1.0, structure_hint="scalar",
        )
        res = solve(p, "explicit_euler", WienerPath(1, seed=1), h=0.25)
        assert res.diverged
        bad = res.y_terminal[0]
        assert not np.isfinite(bad) or abs(bad) > DIVERGENCE_THRESHOLD

    def test_trajectory_recording(self):
        p = ginzburg_landau()
        res = solve(p, "balanced", WienerPath(1, seed=3), h=0.25, record_trajectory=True)
        assert res.trajectory is not None
        times = [t for t, _ in res.trajectory]
        np.testing.assert_allclose(times, res.mesh_times(), rtol=0, atol=0)
        np.testing.assert_array_equal(res.trajectory[0][1], p.x0)

    def test_truncated_scheme_runs_on_gl(self):
        mu_inv, gauge = gl_truncation_functions()
        p = ginzburg_landau()
        res = solve(p, "truncated", WienerPath(1, seed=4), h=0.05, mu_inv=mu_inv, H=gauge)
        assert not res.diverged
        assert res.n_steps == 20

    def test_validation_errors(self):
        p = ginzburg_landau()
        path = WienerPath(1, seed=0)
        with pytest.raises(ValueError, match="unknown scheme"):
            solve(p, "heun", path, h=0.1)
        with pytest.raises(ValueError, match="MeshConfig"):
            solve(p, "adaptive_semi_implicit", path)
        with pytest.raises(ValueError, match="step size"):
            solve(p, "balanced", path)
        with pytest.raises(ValueError, match="step size"):
            solve(p, "balanced", path, h=2.0)
        with pytest.raises(ValueError, match="mu_inv"):
            solve(p, "truncated", path, h=0.1)
        with pytest.raises(ValueError, match="components"):
            solve(stoch_vol_32(), "balanced", WienerPath(1, seed=0), h=0.1)


class TestSmallStepAgreement:
    """All fixed-step schemes approach each other as h shrinks."""

    def test_one_step_spread_shrinks_linearly(self):
        p = ginzburg_landau()
        y = np.array([2.0])

        def spread(h):
            dw = np.array([0.6 * math.sqrt(h)])
            mu_inv, gauge = gl_truncation_functions()
            outs = [
                step_explicit_euler(p, y, h, dw)[0],
                step_semi_implicit(p, y, h, dw)[0],
                step_balanced(p, y, h, dw)[0],
                step_increment_tamed(p, y, h, dw)[0],
                step_fully_tamed(p, y, h, dw)[0],
                step_truncated(p, y, h, dw, mu_inv, gauge)[0],
                step_drift_implicit(p, y, h, dw)[0][0],
            ]
            return max(outs) - min(outs)

        s3, s5 = spread(1e-3), spread(1e-5)
        assert s5 < s3 / 10.0


# -- step-map properties over the catalog ------------------------------------

CATALOG = {name: problem_by_name(name) for name in PROBLEM_NAMES}
MU_INV, GAUGE = gl_truncation_functions()


def _drift_implicit(p, y, h, dW):
    """The drift-implicit map in the form the caller uses: one state, or a batch."""
    if y.ndim == 1:
        return step_drift_implicit(p, y, h, dW)[0]
    return step_drift_implicit_batch(p, y, h, dW)[0]


STEP_MAPS = {
    "semi_implicit": step_semi_implicit,
    "balanced": step_balanced,
    "increment_tamed": step_increment_tamed,
    "fully_tamed": step_fully_tamed,
    "truncated": lambda p, y, h, dW: step_truncated(p, y, h, dW, MU_INV, GAUGE),
    "explicit_euler": step_explicit_euler,
    "drift_implicit": _drift_implicit,
}


# Dense references: each step map as written against the full (..., d, m)
# diffusion matrix G = g(y)[..., :, None] * S, with einsum for G dW.


def _dense_G(p, y):
    return p.g(y)[..., :, None] * p.S


def _dense_g_dw(p, y, dW):
    return np.einsum("...dm,...m->...d", _dense_G(p, y), dW)


def _hc(h):
    return h if np.ndim(h) == 0 else np.asarray(h)[..., None]


def _norm(x, axis=-1):
    return np.sqrt(np.square(x).sum(axis=axis))


def _dense_semi_implicit(p, y, h, dW):
    rhs = y + _hc(h) * p.f(y) + _dense_g_dw(p, y, dW)
    solver = LinearSolver(p)
    return solver.solve(h, rhs) if np.ndim(h) == 0 else solver.solve_batch(h, rhs)


def _dense_balanced(p, y, h, dW):
    D = p.drift(y)
    cols = _dense_G(p, y) * dW[..., None, :]
    num = _hc(h) * D + cols.sum(axis=-1)
    denom = 1.0 + np.asarray(h) * _norm(D) + _norm(cols, axis=-2).sum(axis=-1)
    return y + num / denom[..., None]


def _dense_increment_tamed(p, y, h, dW):
    v = _hc(h) * p.drift(y) + _dense_g_dw(p, y, dW)
    return y + v / np.maximum(1.0, np.asarray(h) * _norm(v))[..., None]


def _dense_fully_tamed(p, y, h, dW):
    D = p.drift(y)
    num = _hc(h) * D + _dense_g_dw(p, y, dW)
    hb = np.asarray(h) ** 0.5
    denom = 1.0 + hb * _norm(D) + hb * _norm(_dense_G(p, y), axis=-2).sum(axis=-1)
    return y + num / denom[..., None]


def _dense_truncated(p, y, h, dW):
    r = _norm(y)
    bound = np.where(np.asarray(h) > 0, MU_INV(GAUGE(np.where(np.asarray(h) > 0, h, 1.0))), np.inf)
    z = np.where(r > 0, np.minimum(r, bound) / np.where(r > 0, r, 1.0), 0.0)[..., None] * y
    return y + _hc(h) * p.drift(z) + _dense_g_dw(p, z, dW)


def _dense_explicit_euler(p, y, h, dW):
    return y + _hc(h) * p.drift(y) + _dense_g_dw(p, y, dW)


def _dense_newton_single(p, y, h, dW, tol=1e-10, max_iter=50):
    c = y + _dense_g_dw(p, y, dW)
    x = y.copy()
    for i in range(max_iter + 1):
        F = x - h * p.drift(x) - c
        if np.linalg.norm(F) <= tol:
            return x
        if i == max_iter:
            break
        try:
            x = x - np.linalg.solve(np.eye(p.d) - h * (p.A + p.df(x)), F)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(x)):
            break
    return _dense_balanced(p, y, h, dW)


def _dense_newton_batch(p, y, h, dW, tol=1e-10, max_iter=50):
    k = y.shape[0]
    hv = np.broadcast_to(np.asarray(h, dtype=float), (k,))
    c = y + _dense_g_dw(p, y, dW)
    x = y.copy()
    converged = np.zeros(k, dtype=bool)
    failed = np.zeros(k, dtype=bool)
    for _ in range(max_iter + 1):
        idx = np.flatnonzero(~(converged | failed))
        if idx.size == 0:
            break
        F = x[idx] - hv[idx, None] * p.drift(x[idx]) - c[idx]
        ok = np.linalg.norm(F, axis=-1) <= tol
        converged[idx[ok]] = True
        live = idx[~ok]
        if live.size == 0:
            continue
        J = np.eye(p.d)[None] - hv[live, None, None] * (p.A[None] + p.df(x[live]))
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
        x[failed] = _dense_balanced(p, y[failed], hv[failed], dW[failed])
    return x


DENSE_STEP_MAPS = {
    "semi_implicit": _dense_semi_implicit,
    "balanced": _dense_balanced,
    "increment_tamed": _dense_increment_tamed,
    "fully_tamed": _dense_fully_tamed,
    "truncated": _dense_truncated,
    "explicit_euler": _dense_explicit_euler,
    "drift_implicit": lambda p, y, h, dW: (
        _dense_newton_single if y.ndim == 1 else _dense_newton_batch
    )(p, y, h, dW),
}

#: Problems whose diffusion factors exactly (S = [[1]], or g = 1), so the
#: factored step maps reproduce the dense formulas bit for bit.
EXACT_FACTOR = {"gbm", "gl", "fhn05", "fhn01"}

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


@st.composite
def step_inputs(draw, p, rows=st.sampled_from([None, 1, 5])):
    """``(y, h, dW)``: one state with a scalar ``h`` (rows None), or a batch
    of ``k`` states with a per-row ``h`` as the harness marches them."""
    k = draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 1.0))
    lead = () if k is None else (k,)
    y = p.x0 + spread * rng.standard_normal(lead + (p.d,))
    h = draw(st.floats(1e-4, 0.05)) if k is None else rng.uniform(1e-4, 0.05, size=k)
    dW = np.sqrt(_hc(h)) * rng.standard_normal(lead + (p.m,))
    return y, h, dW


def _assert_close(actual, desired, rtol):
    """Elementwise rtol, with the same tolerance relative to the largest entry
    so components that cancel to near zero are judged on the state's scale."""
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=rtol * np.abs(desired).max())


@pytest.mark.parametrize("step", sorted(STEP_MAPS))
@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_zero_step_is_identity(name, step, data):
    # The schemes module promises this: a zero-padded step leaves y as it is.
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p))
    out = STEP_MAPS[step](p, y, 0.0 * h, np.zeros_like(dW))
    assert out.shape == y.shape
    np.testing.assert_array_equal(out, y)


@pytest.mark.parametrize("step", sorted(STEP_MAPS))
@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_factored_noise_matches_dense_formula(name, step, data):
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p))
    with np.errstate(over="ignore", invalid="ignore"):
        out = STEP_MAPS[step](p, y, h, dW)
        ref = DENSE_STEP_MAPS[step](p, y, h, dW)
    assert out.shape == y.shape
    if name in EXACT_FACTOR:
        np.testing.assert_array_equal(out, ref)
    else:
        _assert_close(out, ref, rtol=1e-12)


@pytest.mark.parametrize("step", sorted(STEP_MAPS))
@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_matches_rows(name, step, data):
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p, rows=st.sampled_from([1, 5])))
    batch = STEP_MAPS[step](p, y, h, dW)
    assert batch.shape == y.shape
    for i in range(len(y)):
        _assert_close(batch[i], STEP_MAPS[step](p, y[i], float(h[i]), dW[i]), rtol=1e-13)
