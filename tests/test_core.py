"""Unit tests for the shared domain types and the package's exports."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptsde
from adaptsde.core import (
    MeshConfig,
    SdeProblem,
    infer_structure,
    mesh_times,
)


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
        # Dimensions must be integers: 2.0 would pass the shape checks, since
        # (2.0, 2.0) == (2, 2), and then fail inside the batched march.
        kw = dict(d=2, m=1, A=np.zeros((2, 2)), f=np.zeros_like, g=np.ones_like, S=np.ones((2, 1)),
                  x0=np.zeros(2), t_end=1.0)
        for dims in (dict(d=2.0), dict(m=1.0), dict(d=True), dict(m=True), dict(d="2")):
            with pytest.raises(ValueError, match="must be an integer"):
                SdeProblem(**{**kw, **dims})
        assert SdeProblem(**{**kw, "d": np.int64(2)}).d == 2

    @pytest.mark.parametrize("pair", [abs, (abs,), (abs, abs, abs), (abs, 1.0), [abs, abs]])
    def test_truncation_must_be_a_pair_of_callables(self, pair):
        with pytest.raises(ValueError, match="truncation"):
            SdeProblem(d=1, m=1, A=np.zeros((1, 1)), f=np.zeros_like, g=np.ones_like, S=np.ones((1, 1)),
                       x0=np.zeros(1), t_end=1.0, truncation=pair)
        assert make_problem(np.zeros((1, 1))).truncation is None

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
    def test_each_class(self):
        assert infer_structure(np.array([[5.0]])) == "diagonal"
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
        for rho in (float("inf"), float("nan")):
            # rho = inf gives h_min = 0: the floor and the backstop never act.
            with pytest.raises(ValueError, match="rho"):
                MeshConfig(h_max=0.5, rho=rho)
        MeshConfig(h_max=1.0, rho=1.0)  # boundary values are fine


def test_mesh_times_accumulates_steps():
    np.testing.assert_allclose(mesh_times(np.full(4, 0.25)), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh_times(np.empty(0)).tolist() == [0.0]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=200))
def test_mesh_times_match_left_to_right_accumulation(steps):
    # the knot times must equal the times a solve reaches step by step, bit for bit
    expected = [0.0]
    acc = 0.0
    for h in steps:
        acc += h
        expected.append(acc)
    assert mesh_times(np.array(steps)).tolist() == expected




def test_every_export_resolves():
    # A name left in an __all__ after its definition is deleted breaks
    # star imports; every module of the package is checked.
    modules = [adaptsde] + [
        importlib.import_module(f"adaptsde.{info.name}") for info in pkgutil.iter_modules(adaptsde.__path__)
    ]
    assert {"adaptsde.core", "adaptsde.harness", "adaptsde.cli"} <= {mod.__name__ for mod in modules}
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"
    namespace = {}
    exec("from adaptsde import *", namespace)
    assert set(adaptsde.__all__) <= namespace.keys()
