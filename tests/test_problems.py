"""Catalog checks: coefficients, splittings, Jacobians, growth rates."""

import math

import numpy as np
import pytest

from adaptsde.problems import (
    PROBLEM_NAMES,
    fhn,
    gbm,
    gbm_exact_terminal,
    ginzburg_landau,
    gl_truncation_functions,
    problem_by_name,
    spde_fd,
    stoch_vol_32,
)


def diffusion(p, x):
    """The dense diffusion matrix ``g(x)[..., :, None] * S``, (..., d, m)."""
    return p.g(x)[..., :, None] * p.S


def numeric_jacobian(func, x, eps=1e-6):
    d = x.size
    out = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = eps
        out[:, j] = (func(x + e) - func(x - e)) / (2 * eps)
    return out


class TestGbm:
    def test_coefficients(self):
        p = gbm()
        assert (p.d, p.m) == (1, 1)
        assert p.A[0, 0] == -8.0
        x = np.array([1.7])
        assert p.f(x)[0] == 0.0
        assert p.g(x).shape == (1,)
        assert diffusion(p, x)[0, 0] == pytest.approx(3.0 * 1.7)
        assert p.x0[0] == 1.0
        assert p.structure_hint == "scalar"
        assert p.name == "gbm"

    def test_drift_is_purely_linear(self):
        p = gbm()
        xs = np.linspace(-4, 4, 9)[:, None]
        np.testing.assert_allclose(p.drift(xs), -8.0 * xs)

    def test_exact_terminal_formula(self):
        # u0 exp((r - sigma^2/2) t + sigma w): r - 4.5 = -12.5
        assert gbm_exact_terminal(0.0) == pytest.approx(math.exp(-12.5))
        assert gbm_exact_terminal(1.0) == pytest.approx(math.exp(-12.5 + 3.0))
        w = np.array([0.2, -0.3])
        np.testing.assert_allclose(
            gbm_exact_terminal(w, t=0.5, u0=2.0),
            2.0 * np.exp(-12.5 * 0.5 + 3.0 * w),
        )

    def test_mean_square_contraction_condition(self):
        # 2r + sigma^2 = -7 < 0, so E[u(t)^2] decays for the exact solution
        assert 2 * (-8.0) + 3.0**2 < 0


class TestFhn:
    def test_matrix_and_noise(self):
        p = fhn(0.5)
        np.testing.assert_allclose(p.A, [[2.0, 2.0], [-1.0, -0.01]])
        G = diffusion(p, np.array([0.3, -0.2]))
        np.testing.assert_allclose(G, [[0.05 / math.sqrt(0.5), 0.0], [0.0, 0.1]])
        assert p.name == "fhn05"
        assert fhn(0.1).name == "fhn01"

    def test_noise_is_additive(self):
        p = fhn(0.1)
        xs = np.random.default_rng(0).normal(size=(5, 2))
        G = diffusion(p, xs)
        assert G.shape == (5, 2, 2)
        for i in range(1, 5):
            np.testing.assert_array_equal(G[i], G[0])

    def test_eigenvalue_regimes(self):
        # eps = 0.5 spirals, eps = 0.1 does not
        assert np.iscomplexobj(np.linalg.eigvals(fhn(0.5).A)) and (
            np.abs(np.linalg.eigvals(fhn(0.5).A).imag) > 1e-12
        ).all()
        assert (np.abs(np.linalg.eigvals(fhn(0.1).A).imag) < 1e-12).all()

    def test_nonlinear_part(self):
        p = fhn(0.5)
        out = p.f(np.array([2.0, 5.0]))
        np.testing.assert_allclose(out, [-(2.0**3) / 0.5, 0.1])

    def test_full_drift_matches_state_equations(self):
        eps, alpha, beta = 0.5, 0.1, 0.01
        p = fhn(eps)
        x = np.array([0.7, -0.4])
        V, w = x
        expected = np.array([
            (V - V**3 + w) / eps,
            -V - beta * w + alpha,
        ])
        np.testing.assert_allclose(p.drift(x), expected)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            fhn(0.0)


class TestGinzburgLandau:
    def test_split_recovers_textbook_drift(self):
        p = ginzburg_landau()
        xs = np.linspace(-3, 3, 13)[:, None]
        np.testing.assert_allclose(p.drift(xs), 0.1 * xs * (1.0 - xs**2), atol=1e-14)
        assert p.A[0, 0] == pytest.approx(0.1)
        assert p.f(np.array([2.0]))[0] == pytest.approx(-0.8)
        assert p.x0[0] == 2.0

    def test_truncation_functions(self):
        mu_inv, gauge = gl_truncation_functions()
        # mu(r) = 0.2 (1 + r^3): mu(3) = 5.6, and the inverse recovers r
        assert mu_inv(5.6) == pytest.approx(3.0)
        assert mu_inv(0.2) == 0.0
        assert mu_inv(0.05) == 0.0  # below the envelope floor
        assert gauge(0.0625) == pytest.approx(0.8)  # 0.4 * 0.0625^(-1/4)
        # radius grows without bound as the step shrinks
        radii = [mu_inv(gauge(h)) for h in (0.1, 1e-3, 1e-6, 1e-9)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_truncation_envelope_dominates_coefficients(self):
        p = ginzburg_landau()
        for r in np.linspace(0.0, 50.0, 26):
            xs = np.linspace(-r, r, 41)[:, None] if r > 0 else np.zeros((1, 1))
            sup_drift = np.abs(p.drift(xs)).max()
            sup_g = np.abs(diffusion(p, xs)).max()
            mu_r = 0.2 * (1.0 + r**3)
            assert max(sup_drift, sup_g) <= mu_r + 1e-12


class TestStochVol:
    def test_coefficients(self):
        p = stoch_vol_32()
        np.testing.assert_allclose(p.A, 2.5 * np.eye(2))
        np.testing.assert_allclose(p.f(np.array([3.0, 4.0])), [-37.5, -50.0])
        B = np.array([[2.0, 1.0], [1.0, 2.0]]) / math.sqrt(10.0)
        np.testing.assert_allclose(p.S, B)
        np.testing.assert_allclose(diffusion(p, np.array([1.0, 1.0])), 2.0**0.75 * B)
        np.testing.assert_allclose(p.x0, [1.0, 1.0])
        assert p.structure_hint == "diagonal"

    def test_origin_is_absorbing(self):
        p = stoch_vol_32()
        z = np.zeros(2)
        np.testing.assert_array_equal(p.f(z), z)
        np.testing.assert_array_equal(diffusion(p, z), np.zeros((2, 2)))
        np.testing.assert_array_equal(p.df(z), np.zeros((2, 2)))

    def test_drift_mean_reverts_through_unit_sphere(self):
        p = stoch_vol_32()
        inside = np.array([0.3, 0.4])  # norm 0.5
        outside = np.array([1.2, 1.6])  # norm 2
        assert np.dot(p.drift(inside), inside) > 0
        assert np.dot(p.drift(outside), outside) < 0


class TestSpde:
    def test_shapes_and_grid(self):
        p = spde_fd()
        assert (p.d, p.m) == (100, 101)
        assert p.structure_hint == "tridiagonal"
        xs = np.arange(1, 101) / 101.0
        np.testing.assert_allclose(p.x0, 2.0 * np.sin(np.pi * xs))
        assert p.name == "spde"

    def test_linear_operator_eigenvalues(self):
        J, eps, eta = 8, 0.3, 11.0
        p = spde_fd(epsilon=eps, J=J)
        ks = np.arange(1, J)
        expected = np.sort(eta - 4.0 * eps * J**2 * np.sin(ks * np.pi / (2 * J)) ** 2)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(p.A)), expected, rtol=1e-12)

    def test_reaction_term(self):
        p = spde_fd(J=5)
        u = np.array([0.5, -1.0, 2.0, 0.0])
        np.testing.assert_allclose(p.f(u), u**3 - 2.0 * u**5)

    def test_noise_profile(self):
        J = 9
        p = spde_fd(J=J)
        u = np.full(J - 1, 1.0)
        G = diffusion(p, u)
        xs = np.arange(1, J) / J
        for j in (1, 3, 7):
            np.testing.assert_allclose(
                G[:, j - 1], 0.2 * j**-1.5 * np.sin(j * np.pi * xs), atol=1e-14
            )
        # the highest mode vanishes identically on the grid
        np.testing.assert_allclose(G[:, J - 1], 0.0, atol=1e-13)
        # diffusion scales with u^2
        np.testing.assert_allclose(diffusion(p, 2.0 * u), 4.0 * G, atol=1e-13)

    def test_mode_count_override(self):
        p = spde_fd(J=7, modes=3)
        assert p.m == 3
        assert p.S.shape == (6, 3)
        assert diffusion(p, p.x0).shape == (6, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            spde_fd(J=2)
        with pytest.raises(ValueError):
            spde_fd(J=5, modes=0)


class TestJacobians:
    @pytest.mark.parametrize("name", ["gbm", "fhn05", "fhn01", "gl", "svol"])
    def test_df_matches_finite_differences(self, name):
        p = problem_by_name(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(4):
            x = rng.normal(size=p.d) * 1.5
            np.testing.assert_allclose(
                p.df(x), numeric_jacobian(p.f, x), rtol=1e-5, atol=1e-6
            )

    def test_spde_df_matches_finite_differences(self):
        p = spde_fd(J=6)
        x = np.random.default_rng(12).normal(size=p.d)
        np.testing.assert_allclose(p.df(x), numeric_jacobian(p.f, x), rtol=1e-5, atol=1e-6)


class TestGrowthRates:
    """Power-law growth read off from log-log slopes of the coefficients."""

    @pytest.mark.parametrize("name,drift_pow,noise_pow", [
        ("fhn05", 3.0, 0.0),
        ("gl", 3.0, 1.0),
        ("svol", 2.0, 1.5),
        ("spde", 5.0, 2.0),
    ])
    def test_large_state_exponents(self, name, drift_pow, noise_pow):
        p = problem_by_name(name)
        x = np.full(p.d, 1.0) / math.sqrt(p.d)
        s1, s2 = 1e3, 1e5
        fn = lambda s: np.linalg.norm(p.f(s * x))
        gn = lambda s: np.linalg.norm(diffusion(p, s * x))
        slope_f = math.log(fn(s2) / fn(s1)) / math.log(s2 / s1)
        assert slope_f == pytest.approx(drift_pow, abs=1e-3)
        if noise_pow == 0.0:
            assert gn(s2) == gn(s1)
        else:
            slope_g = math.log(gn(s2) / gn(s1)) / math.log(s2 / s1)
            assert slope_g == pytest.approx(noise_pow, abs=1e-3)

    def test_gbm_noise_is_linear(self):
        p = gbm()
        assert np.linalg.norm(diffusion(p, np.array([100.0]))) == pytest.approx(
            100.0 * np.linalg.norm(diffusion(p, np.array([1.0])))
        )


class TestCatalogLookup:
    def test_all_names_resolve(self):
        assert set(PROBLEM_NAMES) == {"gbm", "fhn05", "fhn01", "gl", "svol", "spde"}
        for name in PROBLEM_NAMES:
            p = problem_by_name(name)
            assert p.name == name
            assert p.t_end == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            problem_by_name("heat")

    def test_problems_are_immutable(self):
        p = problem_by_name("gl")
        with pytest.raises(Exception):
            p.t_end = 2.0
