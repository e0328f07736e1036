"""Integrator tests: one-step worked examples, linear solver checks, the
bookkeeping of solve(), and step-map properties over the catalog."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptsde import schemes
from adaptsde.control import propose_step
from adaptsde.core import END_SNAP, MeshConfig, SdeProblem, last_step
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
    SCHEME_IDS,
    LinearSolver,
    solve,
    step_balanced,
    step_drift_implicit_batch,
    step_explicit_euler,
    step_fully_tamed,
    step_increment_tamed,
    step_map,
    step_semi_implicit,
    step_truncated,
)
from adaptsde.schemes import _col_norms, _diverged, _mix
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
        out = step_fully_tamed(p, Y1, 0.25, DW)
        assert out[0] == pytest.approx(37.0 / 45.0, abs=1e-14)

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
        out, fell_back = step_drift_implicit_batch(p, Y1, H, DW)
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
            step_drift_implicit_batch(p, Y1, H, DW)


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
        out = step_fully_tamed(p, np.zeros(1), 0.25, np.zeros(1))
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
            row, fb = step_drift_implicit_batch(p, y[i], 0.02, dw[i])
            assert not fb
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-15)


def with_jacobian(p, value, above=-np.inf):
    """``p`` with ``df`` replaced by the constant ``value`` where ``x > above``.

    A wrong Jacobian is how a problem makes the drift-implicit Newton
    iteration fail: ``1 + h = value * h`` makes ``I - h (A + Df)`` singular
    for ``A = -1``, and a large negative value shrinks every Newton update
    so far that the iteration runs out of updates before it converges.
    """
    return dataclasses.replace(p, df=lambda x: np.where(x > above, value, p.df(x)[..., 0])[..., None])


class TestNewtonFallback:
    def test_starved_iteration_falls_back_to_balanced(self):
        p = with_jacobian(cubic_problem(), -1000.0)
        out, fell_back = step_drift_implicit_batch(p, Y1, H, DW)
        assert fell_back
        np.testing.assert_array_equal(out, step_balanced(p, Y1, H, DW))

    def test_singular_jacobian_falls_back_to_balanced(self):
        p = with_jacobian(cubic_problem(), 1.0 / H + 1.0)
        out, fell_back = step_drift_implicit_batch(p, Y1, H, DW)
        assert fell_back
        np.testing.assert_array_equal(out, step_balanced(p, Y1, H, DW))

    @pytest.mark.parametrize("value", [1.0 / H + 1.0, -1000.0], ids=["singular", "starved"])
    def test_only_the_failing_row_falls_back(self, value):
        # Row 1 starts above 1.5, where the Jacobian is wrong; row 0 below,
        # where it is right.  Each row must step as it does alone.
        p = with_jacobian(cubic_problem(), value, above=1.5)
        y = np.array([[1.0], [2.0]])
        dw = np.array([[0.2], [0.1]])
        out, fell_back = step_drift_implicit_batch(p, y, H, dw)
        np.testing.assert_array_equal(fell_back, [False, True])
        alone, fell_alone = step_drift_implicit_batch(p, y[0], H, dw[0])
        assert not fell_alone
        np.testing.assert_array_equal(out[0], alone)
        np.testing.assert_array_equal(out[1], step_balanced(p, y[1], H, dw[1]))


def linear_problem(A):
    """The noiseless linear problem ``dX = A X dt``; only its ``A`` matters here."""
    d = len(A)
    return SdeProblem(
        d=d, m=1, A=A,
        f=lambda x: np.zeros_like(x),
        g=lambda x: np.zeros_like(x), S=np.zeros((d, 1)),
        x0=np.zeros(d), t_end=1.0,
    )


def random_structured_problem(structure, d, seed):
    rng = np.random.default_rng(seed)
    if structure == "diagonal":
        A = np.diag(rng.normal(size=d))
    elif structure == "tridiagonal":
        A = np.diag(rng.normal(size=d))
        A += np.diag(rng.normal(size=d - 1), 1)
        A += np.diag(rng.normal(size=d - 1), -1)
    else:
        A = rng.normal(size=(d, d))
    return linear_problem(A)


#: Entries of a 2x2 ``A``: small integers, which make exact zero pivots
#: likely at h = 0.25, 0.5 or 1, and reals across six orders of magnitude.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 4.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-3, 3)),
)
_RHS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf]))


class TestLinearSolver:
    @pytest.mark.parametrize("structure,d", [
        ("diagonal", 1), ("diagonal", 4), ("tridiagonal", 5), ("dense", 5),
    ])
    def test_residual_small(self, structure, d):
        p = random_structured_problem(structure, d, seed=ord(structure[0]))
        solver = LinearSolver(p)
        assert solver.structure == structure
        rng = np.random.default_rng(99)
        for h in (0.3, 0.01, 0.0004):
            b = rng.normal(size=p.d)
            x = solver.solve(h, b)
            assert np.linalg.norm(x - h * (p.A @ x) - b) <= 1e-10

    @pytest.mark.parametrize("structure,d", [
        ("diagonal", 1), ("diagonal", 4), ("tridiagonal", 5), ("dense", 5),
    ])
    def test_batch_matches_rowwise(self, structure, d):
        p = random_structured_problem(structure, d, seed=17 + d)
        solver = LinearSolver(p)
        rng = np.random.default_rng(100)
        h = np.array([0.2, 0.05, 0.008, 0.05])
        b = rng.normal(size=(4, p.d))
        xb = solver.solve(h, b)
        # One h shared by the k rows solves each row as its own system too.
        xs = solver.solve(0.05, b)
        for i in range(4):
            assert xb[i].tobytes() == solver.solve(float(h[i]), b[i]).tobytes()
            assert xs[i].tobytes() == solver.solve(0.05, b[i]).tobytes()

    @pytest.mark.parametrize("name", ["gbm", "gl"])
    def test_one_by_one_solve_gives_the_bytes_of_the_array_formula(self, name):
        # A 1x1 A is kept as a float: dividing by 1 - h * A[0, 0] must give
        # what dividing by 1 - h * diag(A), an array, gives.
        p = problem_by_name(name)
        solver = LinearSolver(p)
        rng = np.random.default_rng(5)
        diag = np.diagonal(p.A)
        for h in rng.uniform(0.0, 0.3, 20).tolist():
            b = rng.normal(size=1)
            assert solver.solve(h, b).tobytes() == (b / (1.0 - h * diag)).tobytes()
        hs, bs = rng.uniform(0.0, 0.3, 32), rng.normal(size=(32, 1))
        assert solver.solve(hs, bs).tobytes() == (bs / (1.0 - hs[:, None] * diag)).tobytes()

    @pytest.mark.parametrize("name", ["fhn01", "spde"])
    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_stacked_tridiagonal_solve_equals_row_solves(self, name, k):
        # One gtsv call on the k*d system, blocks uncoupled, gives every row
        # the bits of its own solve.
        p = problem_by_name(name)
        solver = LinearSolver(p)
        assert solver.structure == "tridiagonal"
        rng = np.random.default_rng(k)
        h = rng.uniform(1e-4, 0.05, size=k)
        b = rng.normal(size=(k, p.d))
        xb = solver.solve(h, b)
        for i in range(k):
            assert xb[i].tobytes() == solver.solve(float(h[i]), b[i]).tobytes()

    @pytest.mark.parametrize("name", ["fhn01", "spde"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_stacked_solve_keeps_non_finite_rows_apart(self, name, bad):
        # gtsv computes 0 * b across a zero coupling, so one non-finite row
        # in the stacked system would turn its neighbours into NaN.
        p = problem_by_name(name)
        solver = LinearSolver(p)
        rng = np.random.default_rng(3)
        h = rng.uniform(1e-4, 0.05, size=5)
        b = rng.normal(size=(5, p.d))
        b[2, 0] = bad
        xb = solver.solve(h, b)
        for i in range(5):
            assert xb[i].tobytes() == solver.solve(float(h[i]), b[i]).tobytes()
        assert np.isfinite(np.delete(xb, 2, axis=0)).all()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        a=st.lists(_ENTRIES, min_size=4, max_size=4).filter(lambda a: a[1] != 0 or a[2] != 0),
        h=st.one_of(st.floats(1e-8, 4.0), st.sampled_from([0.25, 0.5, 1.0])),
        b=st.lists(_RHS, min_size=2, max_size=2),
    )
    @example(a=[2.0, 1.0, 0.0, 1.0], h=0.5, b=[1.0, 1.0])  # zero d1 kept: info 1
    @example(a=[0.0, 2.0, 2.0, 0.0], h=0.5, b=[1.0, 2.0])  # zero d2: info 2
    @example(a=[0.5, 3.0, -5.0, 1.0], h=2.0, b=[1.0, -2.0])  # row interchange
    def test_two_by_two_solve_equals_gtsv_bit_for_bit(self, a, h, b):
        # One 2x2 system with one h is solved in closed form; it must give
        # LAPACK gtsv's bits, and fail where gtsv reports info != 0.
        A = np.array(a).reshape(2, 2)
        solver = LinearSolver(linear_problem(A))
        assert solver.structure == "tridiagonal"
        gtsv = scipy.linalg.get_lapack_funcs("gtsv", (A,))
        dl, dia, du = np.diagonal(A, -1), np.diagonal(A), np.diagonal(A, 1)
        _, _, _, x, info = gtsv(-h * dl, 1.0 - h * dia, -h * du, np.array(b)[:, None])
        if info != 0:
            with pytest.raises(np.linalg.LinAlgError, match=f"info={info}"):
                solver.solve(h, np.array(b))
        else:
            assert solver.solve(h, np.array(b)).tobytes() == x[:, 0].tobytes()

    def test_lapack_calls_only_where_no_closed_form(self, monkeypatch):
        # fhn01's solve() takes the 2x2 closed form at every step; spde's
        # 100x100 system still goes to gtsv.
        calls = []
        lapack = LinearSolver._tridiagonal

        def counted(self, *args):
            calls.append(self.d)
            return lapack(self, *args)

        monkeypatch.setattr(LinearSolver, "_tridiagonal", counted)
        cfg = MeshConfig(0.025, 100.0)
        res = solve(problem_by_name("fhn01"), "adaptive_semi_implicit", WienerPath(2, seed=0), config=cfg)
        assert res.n_steps > 0 and calls == []
        p = problem_by_name("spde")
        solve(p, "adaptive_semi_implicit", WienerPath(p.m, seed=0), config=MeshConfig(0.25, 100.0))
        assert len(calls) >= 1 and set(calls) == {100}

    def test_tridiagonal_agrees_with_dense(self):
        rng = np.random.default_rng(8)
        d = 6
        A = np.diag(rng.normal(size=d)) + np.diag(rng.normal(size=d - 1), 1) + np.diag(
            rng.normal(size=d - 1), -1
        )
        tri = LinearSolver(linear_problem(A))
        assert tri.structure == "tridiagonal"
        b = rng.normal(size=d)
        dense = np.linalg.solve(np.eye(d) - 0.07 * A, b)
        np.testing.assert_allclose(tri.solve(0.07, b), dense, rtol=1e-10)


class TestSolveDriver:
    def test_scheme_inventory(self):
        assert set(ADAPTIVE_SCHEMES) < set(SCHEME_IDS)
        assert "adaptive_semi_implicit" in ADAPTIVE_SCHEMES
        assert "explicit_euler" in SCHEME_IDS and "explicit_euler" not in ADAPTIVE_SCHEMES

    def test_adaptive_mesh_invariants(self):
        p = ginzburg_landau()
        cfg = MeshConfig(h_max=0.05, rho=100.0)
        res = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=31), config=cfg)
        assert not res.diverged
        hs = res.mesh
        assert hs.shape == (res.n_steps,)
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
        np.testing.assert_array_equal(a.mesh, b.mesh)

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
        assert res.mesh.tolist() == [0.25, 0.25, 0.25, pytest.approx(0.25)]
        assert res.n_backstop == 0

    def test_backstop_engages_far_from_equilibrium(self):
        p = SdeProblem(
            d=1, m=1, A=np.array([[0.1]]),
            f=lambda x: -0.1 * x**3,
            g=lambda x: 0.2 * x, S=np.ones((1, 1)),
            df=lambda x: (-0.3 * x**2)[..., None],
            x0=np.array([40.0]), t_end=1.0,
        )
        cfg = MeshConfig(h_max=0.1, rho=100.0)
        res = solve(p, "adaptive_semi_implicit", WienerPath(1, seed=11), config=cfg)
        assert res.n_backstop >= 1
        # every other non-final step is a raw proposal above h_min
        assert np.count_nonzero(res.mesh[:-1] == cfg.h_min) == res.n_backstop
        assert np.all(res.mesh[:-1] >= cfg.h_min)
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
            x0=np.array([20.0]), t_end=1.0,
        )
        res = solve(p, "explicit_euler", WienerPath(1, seed=1), h=0.25)
        assert res.diverged
        bad = res.y_terminal[0]
        assert not np.isfinite(bad) or abs(bad) > DIVERGENCE_THRESHOLD

    def test_trajectory_recording(self):
        p = ginzburg_landau()
        path = WienerPath(1, seed=3)
        res = solve(p, "balanced", path, h=0.25, record_trajectory=True)
        assert res.trajectory.shape == (res.n_steps + 1, p.d)
        np.testing.assert_array_equal(res.trajectory[0], p.x0)
        # row i is the state at knot i of mesh_times()
        dW = path.increment(0.0, res.mesh_times()[1])
        np.testing.assert_array_equal(res.trajectory[1], step_balanced(p, p.x0, res.mesh[0], dW))
        np.testing.assert_array_equal(res.trajectory[-1], res.y_terminal)
        assert solve(p, "balanced", WienerPath(1, seed=3), h=0.25).trajectory is None

    def test_truncated_scheme_runs_on_gl(self):
        # gl carries its envelope, so solve() needs nothing more; its first
        # step is the pure step with gl_truncation_functions() passed in.
        p = ginzburg_landau()
        path = WienerPath(1, seed=4)
        res = solve(p, "truncated", path, h=0.05, record_trajectory=True)
        assert not res.diverged
        assert res.n_steps == 20
        first = step_truncated(p, p.x0, 0.05, path.increment(0.0, 0.05), *gl_truncation_functions())
        assert res.trajectory[1].tobytes() == first.tobytes()

    def test_truncated_scheme_reads_the_envelope_off_the_problem(self):
        # svol has no envelope of its own; given gl's, the scheme runs on it,
        # so the envelope decides, not the problem's name.
        p = dataclasses.replace(stoch_vol_32(), truncation=gl_truncation_functions())
        path = WienerPath(2, seed=4)
        res = solve(p, "truncated", path, h=0.05, record_trajectory=True)
        assert res.n_steps == 20 and not res.diverged
        first = step_truncated(p, p.x0, 0.05, path.increment(0.0, 0.05), *gl_truncation_functions())
        assert res.trajectory[1].tobytes() == first.tobytes()

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
        with pytest.raises(ValueError, match="truncation"):
            solve(dataclasses.replace(p, truncation=None), "truncated", path, h=0.1)
        with pytest.raises(ValueError, match="components"):
            solve(stoch_vol_32(), "balanced", WienerPath(1, seed=0), h=0.1)

    def test_a_stray_step_argument_is_rejected(self):
        # Each scheme takes one of config and h, and rejects the other.
        p = gbm()
        with pytest.raises(ValueError, match="'adaptive_semi_implicit'.*not a step size h"):
            solve(p, "adaptive_semi_implicit", WienerPath(1, seed=0), config=MeshConfig(0.25), h=0.5)
        with pytest.raises(ValueError, match="'balanced'.*not config"):
            solve(p, "balanced", WienerPath(1, seed=0), config=MeshConfig(0.25), h=0.5)


class StandInPath:
    """A path whose n-th increment is ``dws[n]``, and zero past the list."""

    def __init__(self, dws):
        self.dim, self.dws, self.calls = 2, dws, 0

    def increment(self, t_a, t_b):
        self.calls += 1
        return self.dws[self.calls - 1].copy() if self.calls <= len(self.dws) else np.zeros(2)


def public_loop(problem, scheme, path, config):
    """``solve()``'s adaptive march from public pieces: ``propose_step``,
    ``step_map``, ``step_balanced`` and ``_diverged``, each state's norm
    taken anew.  Returns ``(y, mesh, n_backstop, diverged)``."""
    step = step_map(problem, scheme)
    T = problem.t_end
    y, t, mesh, n_backstop = problem.x0.copy(), 0.0, [], 0
    while t < T - END_SNAP * T:
        f_y = problem.drift(y) if scheme == "adaptive_explicit" else problem.f(y)
        decision = propose_step(y, f_y, config)
        h = decision.h
        final = t + h >= T - END_SNAP * T
        if final:
            h = last_step(t, T)
        t_next = T if final else t + h
        dW = path.increment(t, t_next)
        if decision.use_backstop and not final:
            y, n_backstop = step_balanced(problem, y, h, dW), n_backstop + 1
        else:
            y, _ = step(y, h, dW, f_y)
        mesh.append(h)
        t = t_next
        if _diverged(y):
            return y, mesh, n_backstop, True
    return y, mesh, n_backstop, False


THR = DIVERGENCE_THRESHOLD
#: Planted state components: the threshold and one ulp either side, the same
#: for a norm spread over both components, NaN, +-inf, an entry whose square
#: overflows, and 5e11, under the threshold but past the stand-in's
#: ``POISON``, where its drift is NaN.
EDGES = [0.0, THR, -THR, np.nextafter(THR, 0.0), np.nextafter(THR, np.inf), THR / math.sqrt(2.0),
         np.nextafter(THR / math.sqrt(2.0), 0.0), np.nextafter(THR / math.sqrt(2.0), np.inf),
         np.nan, np.inf, -np.inf, 1e200, 5e11]
POISON = 1e11


def planted_outcomes(scheme, c, h_max, rho, targets):
    """Run ``solve()`` and ``public_loop`` on a stand-in problem and path.

    The problem has ``A = 0``, ``g = 1``, ``S = I`` and drift ``c``, NaN
    where a component passes ``POISON``.  With ``c = 0`` a step adds its
    increment to the state exactly, so the path plants ``targets`` one per
    step: each edge state after a zero one, which the increment
    ``0 - y`` gives exactly.  Returns each side's outcome: the result, or
    FloatingPointError, with the increments drawn.
    """
    drift = np.array([c, -0.5 * c])
    p = SdeProblem(d=2, m=2, A=np.zeros((2, 2)), f=lambda y: drift + np.where(np.abs(y) <= POISON, 0.0, np.nan),
                   g=np.ones_like, S=np.eye(2), x0=np.zeros(2), t_end=1.0)
    config = MeshConfig(h_max, rho)
    dws = [np.subtract(b, a) for a, b in zip([np.zeros(2)] + targets, targets)]

    def by_solve(path):
        res = solve(p, scheme, path, config=config)
        return res.y_terminal, res.mesh, res.n_backstop, res.diverged

    outcomes = []
    for run in (by_solve, lambda path: public_loop(p, scheme, path, config)):
        path = StandInPath(dws)
        try:
            y, mesh, n_backstop, diverged = run(path)
        except FloatingPointError:
            outcomes.append(("FloatingPointError", path.calls))
            continue
        outcomes.append((y.tobytes(), np.asarray(mesh, dtype=float).tobytes(), n_backstop, bool(diverged), path.calls))
    return outcomes


moderate = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)).map(lambda y: [np.array(y)])
edge = st.one_of(st.tuples(st.sampled_from(EDGES), st.just(0.0)), st.tuples(st.sampled_from(EDGES), st.sampled_from(EDGES)))
edge = edge.map(lambda e: [np.zeros(2), np.array(e)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    scheme=st.sampled_from(ADAPTIVE_SCHEMES),
    c=st.sampled_from([0.0, 0.0, 20.0, 3e3]),
    h_max=st.sampled_from([0.25, 0.1]),
    rho=st.sampled_from([4.0, 100.0]),
    blocks=st.lists(st.one_of(moderate, edge), max_size=5),
)
@example(scheme="adaptive_semi_implicit", c=0.0, h_max=0.25, rho=100.0,
         blocks=[[np.array([3.0, 4.0])], [np.zeros(2), np.array([np.nextafter(THR, np.inf), 0.0])]])
@example(scheme="adaptive_explicit", c=0.0, h_max=0.25, rho=100.0, blocks=[[np.zeros(2), np.array([1e200, 0.0])]])
@example(scheme="adaptive_explicit", c=0.0, h_max=0.25, rho=100.0, blocks=[[np.zeros(2), np.array([5e11, 0.0])]])
def test_solve_and_a_loop_of_public_pieces_agree_at_the_norms_edges(scheme, c, h_max, rho, blocks):
    # solve() takes each state's squared norm once, for the divergence test
    # and the next step's controller; the loop takes it anew in each.  The
    # verdict, the mesh, the backstops and the step count must agree, and a
    # NaN drift must raise at the same step.
    targets = [y for block in blocks for y in block]
    with np.errstate(all="ignore"):
        got, want = planted_outcomes(scheme, c, h_max, rho, targets)
    assert got == want


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
                step_drift_implicit_batch(p, y, h, dw)[0][0],
            ]
            return max(outs) - min(outs)

        s3, s5 = spread(1e-3), spread(1e-5)
        assert s5 < s3 / 10.0


# -- step-map properties over the catalog ------------------------------------

CATALOG = {name: problem_by_name(name) for name in PROBLEM_NAMES}
MU_INV, GAUGE = gl_truncation_functions()


STEP_MAPS = {
    "semi_implicit": step_semi_implicit,
    "balanced": step_balanced,
    "increment_tamed": step_increment_tamed,
    "fully_tamed": step_fully_tamed,
    "truncated": lambda p, y, h, dW, **kw: step_truncated(p, y, h, dW, MU_INV, GAUGE, **kw),
    "explicit_euler": step_explicit_euler,
    "drift_implicit": lambda p, y, h, dW, **kw: step_drift_implicit_batch(p, y, h, dW, **kw)[0],
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
    return solver.solve(h, rhs)


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
        assert batch[i].tobytes() == STEP_MAPS[step](p, y[i], float(h[i]), dW[i]).tobytes()


#: gl with its own envelope, and svol (d = 2) lent gl's.
TRUNCATED = {
    "gl": CATALOG["gl"],
    "svol": dataclasses.replace(CATALOG["svol"], truncation=gl_truncation_functions()),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e2, 1e6]),
    h=st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
)
def test_truncated_float_h_equals_a_one_row_stack(name, seed, scale, h):
    # One radius expression serves a float h and a per-row h, whether the
    # state lies inside the ball or far outside it.
    p = TRUNCATED[name]
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal(p.d)
    dW = math.sqrt(h) * rng.standard_normal(p.m)
    alone = step_truncated(p, y, h, dW, MU_INV, GAUGE)
    stacked = step_truncated(p, y[None], np.array([h]), dW[None], MU_INV, GAUGE)
    assert alone.tobytes() == stacked[0].tobytes()


def test_truncated_clamp_acts_alike_for_a_float_and_a_per_row_h():
    # At h = 0.05 gl's radius is about 1.48, so y = 100 is clamped: the step
    # is not explicit Euler, and a float h and a one-row stack agree on it.
    p = CATALOG["gl"]
    y, dW = np.array([100.0]), np.array([0.1])
    alone = step_truncated(p, y, 0.05, dW, MU_INV, GAUGE)
    assert alone.tobytes() != step_explicit_euler(p, y, 0.05, dW).tobytes()
    stacked = step_truncated(p, y[None], np.array([0.05]), dW[None], MU_INV, GAUGE)
    assert alone.tobytes() == stacked[0].tobytes()


@pytest.mark.parametrize("step", sorted(STEP_MAPS))
@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_noise_formed_over_a_chunk_of_steps_gives_the_same_bytes(name, step, data):
    # The harness forms S dW for a chunk of steps in one stacked product and
    # hands each step its slice as `noise`; the step must come out as if it
    # had formed the noise itself.
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p))
    n_steps = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chunk = np.sqrt(np.mean(h)) * rng.standard_normal((n_steps,) + dW.shape)
    noise = _mix(p, chunk)
    assert noise.shape == chunk.shape[:-1] + (p.d,)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            alone = STEP_MAPS[step](p, y, h, chunk[j])
            given_noise = STEP_MAPS[step](p, y, h, chunk[j], noise=noise[j])
            assert given_noise.tobytes() == alone.tobytes()


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_semi_implicit_rows_are_bit_identical(name, data):
    # The harness's adaptive march steps a stack of rows and must reproduce
    # solve(), which steps one state: the noise and the per-row linear solve
    # may not depend on the other rows.
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p, rows=st.sampled_from([1, 5])))
    batch = step_semi_implicit(p, y, h, dW)
    for i in range(len(y)):
        assert batch[i].tobytes() == step_semi_implicit(p, y[i], float(h[i]), dW[i]).tobytes()


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@PROPERTY_SETTINGS
@given(k=st.integers(1, 64), spread=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_row_products_give_each_row_its_bytes_alone(name, k, spread, seed):
    # The drift, the column norms and S dW: a row of a stack of k gets the
    # bytes it gets alone, and a state alone those of `x @ M`.
    p = CATALOG[name]
    rng = np.random.default_rng(seed)
    y = p.x0 + spread * rng.standard_normal((k, p.d))
    products = [
        (p.drift, y, lambda x: x @ p.A.T + p.f(x)),
        (lambda a: _col_norms(p, a), p.g(y), lambda a: np.sqrt(np.square(a) @ p.S2)),
        (lambda w: _mix(p, w), rng.standard_normal((k, p.m)), lambda w: w @ p.S.T),
    ]
    for product, stack, matmul in products:
        out = product(stack)
        assert out.shape == stack.shape[:-1] + matmul(stack[0]).shape
        for i in range(k):
            assert out[i].tobytes() == product(stack[i]).tobytes() == matmul(stack[i]).tobytes()


#: ``g`` as ``fhn`` and ``stoch_vol_32`` gave it as broadcast views, before
#: they returned arrays of their own.
BROADCAST_G = {
    "fhn05": lambda x: np.broadcast_to(1.0, np.shape(x)),
    "fhn01": lambda x: np.broadcast_to(1.0, np.shape(x)),
    "svol": lambda x: np.broadcast_to(np.sqrt(np.square(x).sum(axis=-1, keepdims=True)) ** 1.5, x.shape),
}


@pytest.mark.parametrize("step", sorted(STEP_MAPS))
@pytest.mark.parametrize("name", sorted(BROADCAST_G))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_constant_amplitudes_as_own_arrays_give_the_same_bytes(name, step, data):
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p))
    viewed = dataclasses.replace(p, g=BROADCAST_G[name])
    amp, old = p.g(y), viewed.g(y)
    assert amp.shape == old.shape and amp.dtype == old.dtype
    assert amp.tobytes() == old.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert STEP_MAPS[step](p, y, h, dW).tobytes() == STEP_MAPS[step](viewed, y, h, dW).tobytes()


def read_only_jacobian(p):
    """``p`` whose ``df`` returns its Jacobians as a read-only array."""

    def df(x):
        out = p.df(x)
        out.flags.writeable = False
        return out

    return dataclasses.replace(p, df=df)


@pytest.mark.parametrize("name", ["gl", "spde"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_newton_step_only_reads_the_jacobian(name, data):
    p = CATALOG[name]
    y, h, dW = data.draw(step_inputs(p))
    out, fell = step_drift_implicit_batch(p, y, h, dW)
    ro_out, ro_fell = step_drift_implicit_batch(read_only_jacobian(p), y, h, dW)
    assert ro_out.tobytes() == out.tobytes() and ro_fell.tobytes() == fell.tobytes()


def faulty_jacobian(p):
    """``p`` whose ``df`` is wrong on rows marked by their first component.

    Past 30 every entry is NaN, so the Newton iterate leaves the finite
    numbers.  Past 10 every entry is 1e30, which swamps ``I`` and ``A``, so
    ``I - h (A + Df)`` is one constant in every entry: exactly singular for
    d >= 2, and for d = 1 an iteration that stalls until it runs out of
    updates.  Either way the marked row falls back.
    """

    def df(x):
        mark = x[..., :1, None]
        return np.where(mark > 30.0, np.nan, np.where(mark > 10.0, 1e30, p.df(x)))

    return dataclasses.replace(p, df=df)


@pytest.mark.parametrize("name", ["gl", "svol", "spde"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_a_reused_newton_workspace_gives_each_call_a_fresh_calls_bytes(name, data):
    # step_map's drift-implicit closure keeps one workspace over a march
    # whose live rows grow and shrink; every call must come out as a call
    # with a workspace of its own, fallbacks and their mask included.
    p = faulty_jacobian(CATALOG[name])
    step = step_map(p, "drift_implicit")
    # Any order of these sizes both grows and shrinks the stack.
    sizes = data.draw(st.permutations([None, 1, 2, 4, 7])) + [3]
    for k in sizes:
        y, h, dW = data.draw(step_inputs(p, rows=st.just(k)))
        n = k or 1
        marks = np.array(data.draw(st.lists(st.sampled_from([0.0, 20.0, 40.0]), min_size=n, max_size=n)))
        y[..., 0] += marks if k else marks[0]
        out, fell = step(y, h, dW)
        fresh, fresh_fell = step_drift_implicit_batch(p, y, h, dW)
        assert out.tobytes() == fresh.tobytes() and fell.tobytes() == fresh_fell.tobytes()
        assert fell.reshape(-1)[marks > 0].all()


def test_a_drift_implicit_march_writes_every_jacobian_into_one_buffer(monkeypatch):
    # A fresh (k, d, d) Jacobian per Newton iteration is 400 KB on spde at
    # k = 5, which glibc can trim off the heap and fault back in every step.
    p = CATALOG["spde"]
    newton, buffers = schemes._newton_updates, []

    def recording(J, F):
        buffers.append(J if J.base is None else J.base)
        return newton(J, F)

    monkeypatch.setattr(schemes, "_newton_updates", recording)
    step = step_map(p, "drift_implicit")
    rng = np.random.default_rng(0)
    y = np.broadcast_to(p.x0, (5, p.d)).copy()
    for _ in range(30):
        y, _ = step(y, 0.005, np.sqrt(0.005) * rng.standard_normal((5, p.m)))
        assert not np.shares_memory(y, buffers[-1])
    assert len(buffers) > 30
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].shape == (5, p.d, p.d)


#: The module-global step function each scheme's step_map closure calls.
STEP_FUNCTIONS = {
    "adaptive_semi_implicit": "step_semi_implicit",
    "adaptive_explicit": "step_explicit_euler",
    "drift_implicit": "step_drift_implicit_batch",
    "balanced": "step_balanced",
    "increment_tamed": "step_increment_tamed",
    "fully_tamed": "step_fully_tamed",
    "truncated": "step_truncated",
    "explicit_euler": "step_explicit_euler",
}


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_step_map_closures_reach_a_rebound_step_function(scheme, monkeypatch):
    # The benchmark's tracer times each scheme by rebinding schemes.step_*;
    # a closure that held on to the function it was built with would make
    # those spans read 0.
    p = CATALOG["gl"]
    step = step_map(p, scheme)
    name = STEP_FUNCTIONS[scheme]
    fn, calls = getattr(schemes, name), []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return fn(*args, **kwargs)

    monkeypatch.setattr(schemes, name, counting)
    rng = np.random.default_rng(1)
    y = np.broadcast_to(p.x0, (3, p.d)).copy()
    for n in range(4):
        dW = 0.1 * rng.standard_normal((3, p.m))
        if scheme in ADAPTIVE_SCHEMES:
            f_y = p.f(y) if scheme == "adaptive_semi_implicit" else p.drift(y)
            out, _ = step(y, 0.01, dW, f_y)
        else:
            out, _ = step(y, 0.01, dW)
        assert len(calls) == n + 1 and calls[-1] is y
        y = out
