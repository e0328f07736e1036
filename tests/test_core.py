"""Unit tests for the shared domain types and the step-size bound check."""

import math

import numpy as np
import pytest
import scipy.linalg

from adaptsde.core import (
    HmaxBoundReport,
    MeshConfig,
    SdeProblem,
    StepRecord,
    infer_structure,
    mesh_times,
    terminal_error,
    validate_hmax_bound,
)
from adaptsde.problems import fhn, gbm


def make_problem(A, d=None):
    d = d or np.asarray(A).shape[0]
    return SdeProblem(
        d=d,
        m=1,
        A=np.asarray(A, dtype=float),
        f=lambda x: np.zeros_like(x),
        g=lambda x: np.zeros_like(x),
        S=np.zeros((d, 1)),
        x0=np.zeros(d),
        t_end=1.0,
    )


class TestSdeProblem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_problem(np.zeros((2, 3)), d=2)
        with pytest.raises(ValueError):
            SdeProblem(
                d=0, m=1, A=np.zeros((0, 0)), f=None, g=None, S=np.zeros((0, 1)),
                x0=np.zeros(0), t_end=1.0,
            )
        with pytest.raises(ValueError):
            SdeProblem(
                d=1, m=1, A=np.zeros((1, 1)), f=lambda x: x, g=lambda x: x, S=np.ones((1, 1)),
                x0=np.zeros(1), t_end=0.0,
            )
        with pytest.raises(ValueError):
            SdeProblem(
                d=2, m=1, A=np.zeros((2, 2)), f=lambda x: x, g=lambda x: x, S=np.ones((2, 1)),
                x0=np.zeros(3), t_end=1.0,
            )
        for S in (np.ones((1, 2)), np.ones((2, 2)), np.ones(2), np.ones((2, 1, 1))):
            with pytest.raises(ValueError, match="S must be 2x1"):
                SdeProblem(
                    d=2, m=1, A=np.zeros((2, 2)), f=lambda x: x, g=lambda x: x, S=S,
                    x0=np.zeros(2), t_end=1.0,
                )

    def test_coefficients_coerced_to_float_arrays(self):
        p = SdeProblem(
            d=2, m=1, A=[[1, 0], [0, 2]], f=lambda x: x, g=lambda x: x, S=[[1], [2]],
            x0=[1, 2], t_end=1.0,
        )
        assert p.A.dtype == float and p.x0.dtype == float and p.S.dtype == float
        assert p.A.shape == (2, 2)
        np.testing.assert_array_equal(p.S2, [[1.0], [4.0]])

    def test_drift_combines_linear_and_nonlinear_parts(self):
        p = SdeProblem(
            d=2, m=1,
            A=np.array([[1.0, 2.0], [0.0, -1.0]]),
            f=lambda x: x**2,
            g=lambda x: np.zeros_like(x),
            S=np.zeros((2, 1)),
            x0=np.zeros(2), t_end=1.0,
        )
        y = np.array([1.0, 3.0])
        # A y = (7, -3), f(y) = (1, 9)
        np.testing.assert_allclose(p.drift(y), [8.0, 6.0])
        # batched states broadcast over the leading axis
        ys = np.stack([y, 2 * y])
        np.testing.assert_allclose(p.drift(ys)[0], p.drift(y))


class TestInferStructure:
    def test_all_four_classes(self):
        assert infer_structure(np.array([[5.0]])) == "scalar"
        assert infer_structure(np.diag([1.0, 2.0, 3.0])) == "diagonal"
        tri = np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1)
        assert infer_structure(tri) == "tridiagonal"
        dense = np.ones((3, 3))
        assert infer_structure(dense) == "dense"

    def test_zero_matrix_is_diagonal(self):
        assert infer_structure(np.zeros((4, 4))) == "diagonal"


class TestMeshConfig:
    def test_h_min_is_derived(self):
        cfg = MeshConfig(h_max=0.25, rho=100.0)
        assert cfg.h_min == 0.25 / 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshConfig(h_max=0.0)
        with pytest.raises(ValueError):
            MeshConfig(h_max=1.5)
        with pytest.raises(ValueError):
            MeshConfig(h_max=0.5, rho=0.5)
        MeshConfig(h_max=1.0, rho=1.0)  # boundary values are fine


def test_mesh_times_accumulates_steps():
    mesh = [StepRecord(t_start=0.25 * i, h=0.25, origin="main_scheme", attempted_h=0.25) for i in range(4)]
    np.testing.assert_allclose(mesh_times(mesh), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh_times([]).tolist() == [0.0]


class TestTerminalError:
    def test_values(self):
        assert terminal_error(np.array([3.0, 4.0]), np.zeros(2)) == 25.0
        assert terminal_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert terminal_error(np.array([2.0]), np.array([0.5])) == pytest.approx(2.25)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            terminal_error(np.zeros(2), np.zeros(3))


class TestHmaxBound:
    """The check h_max (||A^(1/2)||^2 + (1 + h_max/2) ||A||^2) <= 1 - delta."""

    def test_zero_operator(self):
        rep = validate_hmax_bound(make_problem([[0.0]]), MeshConfig(h_max=1.0))
        assert rep.holds is True
        assert rep.lhs == 0.0

    def test_scalar_worked_example_holds(self):
        # A = 0.5, h = 0.25: lhs = 0.25*(0.5 + 1.125*0.25) = 0.1953125
        rep = validate_hmax_bound(make_problem([[0.5]]), MeshConfig(h_max=0.25))
        assert rep.lhs == pytest.approx(0.1953125, rel=1e-12)
        assert rep.holds is True
        assert rep.message == ""

    def test_gbm_operator_violates_and_warns(self):
        # A = -8, h = 0.25: lhs = 0.25*(8 + 1.125*64) = 20, way past 1.
        # Benchmark parameters violate the sufficient condition on purpose.
        with pytest.warns(UserWarning, match="bound violated"):
            rep = validate_hmax_bound(gbm(), MeshConfig(h_max=0.25))
        assert rep.holds is False
        assert rep.lhs == pytest.approx(20.0, rel=1e-12)

    def test_delta_tightens_the_bound(self):
        p = make_problem([[0.5]])
        assert validate_hmax_bound(p, MeshConfig(h_max=0.25), delta=0.5).holds is True
        with pytest.warns(UserWarning):
            rep = validate_hmax_bound(p, MeshConfig(h_max=0.25), delta=0.9)
        assert rep.holds is False
        with pytest.raises(ValueError):
            validate_hmax_bound(p, MeshConfig(h_max=0.25), delta=1.5)

    def test_nonsymmetric_matches_scipy_sqrtm(self):
        """The iterative square root agrees with scipy on the FHN operator,
        whose eigenvalues form a complex-conjugate pair."""
        prob = fhn(0.5)
        h = 0.01
        with np.errstate(all="ignore"):
            rep = validate_hmax_bound(prob, MeshConfig(h_max=h))
        root = scipy.linalg.sqrtm(prob.A)
        expected = h * (
            np.linalg.norm(root, 2) ** 2
            + (1 + h / 2) * np.linalg.norm(prob.A, 2) ** 2
        )
        assert rep.lhs == pytest.approx(expected, rel=1e-8)

    def test_symmetric_spd_matches_eigendecomposition(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        h = 0.05
        rep = validate_hmax_bound(make_problem(A), MeshConfig(h_max=h))
        # for symmetric A the square-root norm squared is the spectral radius
        expected = h * (3.0 + (1 + h / 2) * 9.0)
        assert rep.lhs == pytest.approx(expected, rel=1e-10)

    def test_report_is_frozen_dataclass(self):
        rep = HmaxBoundReport(holds=True, lhs=0.1, delta=0.0)
        with pytest.raises(Exception):
            rep.lhs = 0.2
