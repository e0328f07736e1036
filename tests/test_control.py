"""Step-controller unit tests with hand-computed proposals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsde.control import StepDecision, propose_step, propose_steps
from adaptsde.core import MeshConfig

CFG = MeshConfig(h_max=0.1, rho=100.0)  # h_min = 0.001


def test_worked_example_large_state():
    # ||y|| = 3 > 1, ||f|| = 4: raw = 0.1 * (3/4) = 0.075
    d = propose_step(np.array([3.0]), np.array([4.0]), CFG)
    assert d.h == pytest.approx(0.075)
    assert d.use_backstop is False


def test_worked_example_small_state_floors_at_one():
    # ||y|| = 0.5 <= 1 so the numerator is 1: raw = 0.1 / 5 = 0.02
    d = propose_step(np.array([0.3, 0.4]), np.array([3.0, 4.0]), CFG)
    assert d.h == pytest.approx(0.02)
    assert not d.use_backstop


def test_ratio_capped_at_one():
    # tame drift response: min(..., 1) keeps h at h_max
    d = propose_step(np.array([10.0]), np.array([0.5]), CFG)
    assert d.h == CFG.h_max
    assert not d.use_backstop


def test_zero_drift_response_proposes_h_max_without_backstop():
    d = propose_step(np.array([2.0]), np.array([0.0]), CFG)
    assert d == StepDecision(h=CFG.h_max, use_backstop=False)


def test_floor_hit_engages_backstop():
    # raw = 0.1 / 1e6 = 1e-7, far below h_min: clamped up to h_min
    d = propose_step(np.array([1.0]), np.array([1e6]), CFG)
    assert d == StepDecision(h=CFG.h_min, use_backstop=True)


def test_boundary_raw_equal_h_min_counts_as_backstop():
    # exact powers of two keep the arithmetic exact: h_max=0.5, rho=2,
    # ||y||=1, ||f||=2 gives raw = 0.5*0.5 = 0.25 = h_min exactly
    cfg = MeshConfig(h_max=0.5, rho=2.0)
    d = propose_step(np.array([1.0]), np.array([2.0]), cfg)
    assert d.use_backstop is True
    assert d.h == cfg.h_min
    # one ulp less drift puts raw one ulp above h_min: a main-scheme step
    d = propose_step(np.array([1.0]), np.array([np.nextafter(2.0, 0.0)]), cfg)
    assert d.use_backstop is False
    assert d.h > cfg.h_min


def test_monotone_in_drift_magnitude():
    y = np.array([1.0])
    hs = [propose_step(y, np.array([c]), CFG).h for c in (0.5, 2.0, 8.0, 32.0, 1e4)]
    assert all(a >= b for a, b in zip(hs, hs[1:]))
    assert hs[0] == CFG.h_max


def test_proposal_always_within_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        y = rng.normal(size=3) * 10.0 ** float(rng.integers(-3, 4))
        f = rng.normal(size=3) * 10.0 ** float(rng.integers(-3, 4))
        d = propose_step(y, f, CFG)
        assert CFG.h_min <= d.h <= CFG.h_max
        if not d.use_backstop:
            # accepted main-scheme steps keep h*||f|| within the linear
            # growth budget h_max * max(1, ||y||)
            budget = CFG.h_max * max(1.0, float(np.linalg.norm(y)))
            assert d.h * float(np.linalg.norm(f)) <= budget * (1 + 1e-12)


def test_non_finite_input_raises():
    with pytest.raises(FloatingPointError):
        propose_step(np.array([np.nan]), np.array([1.0]), CFG)
    with pytest.raises(FloatingPointError):
        propose_step(np.array([1.0]), np.array([np.inf]), CFG)


@st.composite
def stacked_inputs(draw):
    """Rows of (y, f) over many scales, with zero-drift rows and rows whose
    drift is large enough to put the proposal on the floor."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
    f = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 9, size=(k, 1))
    kind = rng.integers(0, 3, size=k)
    f[kind == 0] = 0.0
    f[kind == 1] *= 1e6
    config = MeshConfig(h_max=draw(st.floats(1e-4, 1.0)), rho=draw(st.sampled_from([1.0, 2.0, 100.0, 1e4])))
    return y, f, config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacked_inputs())
def test_stacked_controller_equals_scalar_rows(inputs):
    y, f, config = inputs
    h, backstop = propose_steps(y, f, config)
    assert h.shape == backstop.shape == (len(y),)
    for i in range(len(y)):
        row = propose_step(y[i], f[i], config)
        assert h[i].tobytes() == np.float64(row.h).tobytes()
        assert backstop[i] == row.use_backstop


def test_stacked_controller_covers_zero_drift_and_floor():
    cfg = MeshConfig(h_max=0.1, rho=100.0)
    y = np.array([[2.0], [1.0], [3.0]])
    f = np.array([[0.0], [1e6], [4.0]])
    h, backstop = propose_steps(y, f, cfg)
    assert h.tolist() == [cfg.h_max, cfg.h_min, 0.1 * (3.0 / 4.0)]
    assert backstop.tolist() == [False, True, False]


def test_stacked_controller_rejects_non_finite_rows():
    with pytest.raises(FloatingPointError):
        propose_steps(np.array([[1.0], [np.nan]]), np.ones((2, 1)), CFG)
    with pytest.raises(FloatingPointError):
        propose_steps(np.ones((2, 1)), np.array([[1.0], [np.inf]]), CFG)


def entrywise_decision(y, f_y, config):
    """The controller with the entrywise finiteness test first, then its
    norms: the rule ``propose_step`` must keep while it reads finiteness
    from the squared norms instead."""
    if not (np.isfinite(y).all() and np.isfinite(f_y).all()):
        raise FloatingPointError("non-finite state or drift passed to step controller")
    norm_f = math.sqrt(float(f_y @ f_y))
    if norm_f == 0.0:
        return StepDecision(h=config.h_max, use_backstop=False)
    raw = config.h_max * min(max(1.0, math.sqrt(float(y @ y))) / norm_f, 1.0)
    if raw <= config.h_min:
        return StepDecision(h=config.h_min, use_backstop=True)
    return StepDecision(h=raw, use_backstop=False)


def same_float(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    inputs=stacked_inputs(),
    plant=st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e160, None]),
    in_f=st.booleans(),
    where=st.integers(0, 2**16),
)
def test_finiteness_read_from_norms_raises_exactly_where_the_entrywise_test_does(inputs, plant, in_f, where):
    # NaN and +-inf must raise from one state and from a stack holding it;
    # 1e200 and 1e160 are finite, but their squares overflow.
    y, f, config = inputs
    target = f if in_f else y
    row = where % len(y)
    if plant is not None:
        target[row, (where // len(y)) % y.shape[1]] = plant
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = [entrywise_decision(y[i], f[i], config) for i in range(len(y))]
        except FloatingPointError:
            want = None
        if want is None:
            assert not math.isfinite(plant)
            with pytest.raises(FloatingPointError):
                propose_step(y[row], f[row], config)
            with pytest.raises(FloatingPointError):
                propose_steps(y, f, config)
            return
        h, backstop = propose_steps(y, f, config)
        for i, d in enumerate(want):
            got = propose_step(y[i], f[i], config)
            assert same_float(got.h, d.h) and got.use_backstop == d.use_backstop
            assert same_float(h[i], d.h) and backstop[i] == d.use_backstop

