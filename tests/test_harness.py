"""Experiment-harness tests: aggregation math, determinism, CSV schema."""

import io
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptsde import harness
from adaptsde.core import MeshConfig, SdeProblem, SolveResult, mesh_times
from adaptsde.harness import (
    CSV_HEADER,
    ConvergenceTable,
    ExperimentConfig,
    OrderFit,
    TableRow,
    _march_batch,
    _GridWindows,
    _RefinedChunks,
    _run_block,
    _solve_adaptive_batch,
    _worker_count,
    default_h_grid,
    default_levels,
    default_schemes,
    fit_order,
    read_table_csv,
    rmse,
    run_experiment,
    write_table_csv,
)
from adaptsde.problems import PROBLEM_NAMES, gbm_exact_terminal, problem_by_name
from adaptsde.schemes import ADAPTIVE_SCHEMES, DIVERGENCE_THRESHOLD, SCHEME_IDS, _diverged, solve, step_map
from adaptsde.wiener import WienerPath


class TestRmse:
    def test_two_point_oracle(self):
        res = rmse([1.0, 9.0])
        assert res.value == math.sqrt(5.0)
        assert res.n_excluded == 0

    def test_single_sample(self):
        assert rmse([4.0]).value == 2.0

    def test_nan_exclusion(self):
        res = rmse([1.0, float("nan"), 9.0])
        assert res.value == math.sqrt(5.0)
        assert res.n_excluded == 1

    def test_all_excluded(self):
        res = rmse([float("nan"), float("inf")])
        assert math.isnan(res.value)
        assert res.n_excluded == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rmse([])


class TestFitOrder:
    def test_exact_first_order(self):
        hs = [0.25, 0.025, 0.0025, 0.00025]
        fit = fit_order(hs, hs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4 and fit.ok

    def test_exact_half_order(self):
        hs = np.array([0.5, 0.05, 0.005])
        fit = fit_order(hs, 3.0 * np.sqrt(hs))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_drops_unusable_points(self):
        fit = fit_order([0.1, 0.01, 0.001], [0.1, float("nan"), 0.001])
        assert fit.n_points == 2
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_points(self):
        fit = fit_order([0.1], [0.3])
        assert not fit.ok and math.isnan(fit.slope)
        assert not fit_order([0.1, 0.01], [float("nan")] * 2).ok
        # Two points need two distinct h: a repeated h alone fits no slope.
        fit = fit_order([0.1, 0.1], [1.0, 2.0])
        assert fit.ok is False and math.isnan(fit.slope)
        assert fit_order([0.1, 0.1, 0.01], [1.0, 2.0, 0.1]).ok


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig(problem="gl")
        assert cfg.schemes == default_schemes("gl")
        assert cfg.schemes[-1] == "truncated"
        assert cfg.h_max_list == default_h_grid("gl") == (0.25, 0.025, 0.0025, 0.00025)
        assert cfg.levels == default_levels("gl") == 6

    def test_spde_defaults_differ(self):
        cfg = ExperimentConfig(problem="spde")
        assert cfg.h_max_list == (0.25, 0.05, 0.005, 0.0005)
        assert cfg.levels == 4
        assert "truncated" not in cfg.schemes

    @pytest.mark.parametrize("kwargs", [
        dict(samples=0),
        dict(levels=-1),
        dict(h_max_list=(0.25, 1.5)),
        dict(h_max_list=(0.0,)),
        dict(rho=0.5),
        dict(schemes=("adaptive_semi_implicit", "midpoint")),
        dict(schemes=("adaptive_explicit",)),
        dict(samples=2.5),
        dict(levels=2.5),
        dict(master_seed=1.5),
        dict(levels=27),
        dict(h_max_list=(0.25, 0.025, 0.25)),
        dict(samples=True),
        dict(levels=True),
        dict(master_seed=False),
        dict(rho=float("inf")),
        dict(schemes=("balanced", "balanced")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="gbm", **kwargs)

    def test_rejects_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem 'nope'"):
            ExperimentConfig(problem="nope", samples=1, h_max_list=(0.25,))

    def test_truncated_needs_gl(self):
        with pytest.raises(ValueError, match="truncated"):
            ExperimentConfig(problem="svol", schemes=("truncated",))

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_the_growth_envelope_decides_where_truncated_runs(self, name):
        # Accepted by a sweep, listed by default and runnable through solve()
        # exactly when the problem carries an envelope.
        p = problem_by_name(name)
        has_envelope = p.truncation is not None
        assert ("truncated" in default_schemes(name)) == has_envelope
        path = WienerPath(p.m, seed=0)
        if has_envelope:
            assert ExperimentConfig(problem=name, schemes=("truncated",)).schemes == ("truncated",)
            assert solve(p, "truncated", path, h=0.25).n_steps == 4
        else:
            with pytest.raises(ValueError, match="growth envelope"):
                ExperimentConfig(problem=name, schemes=("truncated",))
            with pytest.raises(ValueError, match="truncation"):
                solve(p, "truncated", path, h=0.25)

    def test_worker_count_sources(self, monkeypatch):
        monkeypatch.delenv("ADAPTSDE_WORKERS", raising=False)
        assert _worker_count(None) == 1
        assert _worker_count(3) == 3
        monkeypatch.setenv("ADAPTSDE_WORKERS", "2")
        assert _worker_count(None) == 2
        assert _worker_count(5) == 5  # explicit argument wins
        # A count below 1 is an error that names its source, not one worker.
        for count in (0, -2):
            monkeypatch.delenv("ADAPTSDE_WORKERS")
            with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {count}$"):
                _worker_count(count)
            with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {count}$"):
                run_experiment(small_gbm_config(), workers=count)
            monkeypatch.setenv("ADAPTSDE_WORKERS", str(count))
            with pytest.raises(ValueError, match=rf"^ADAPTSDE_WORKERS must be >= 1, got {count}$"):
                _worker_count(None)
            with pytest.raises(ValueError, match="^ADAPTSDE_WORKERS must be >= 1"):
                run_experiment(small_gbm_config())
            assert _worker_count(1) == 1  # explicit argument wins
        # A float or bool is no worker count: 2.5 would reach np.array_split
        # as a TypeError, and True would run one worker.
        monkeypatch.delenv("ADAPTSDE_WORKERS")
        for count in (2.5, True):
            with pytest.raises(ValueError, match=rf"^workers must be an integer, got {count!r}$"):
                _worker_count(count)
            with pytest.raises(ValueError, match=rf"^workers must be an integer, got {count!r}$"):
                run_experiment(small_gbm_config(), workers=count)


def small_gbm_config(**overrides):
    base = dict(
        problem="gbm",
        schemes=("adaptive_semi_implicit", "balanced", "explicit_euler"),
        h_max_list=(0.25, 0.025),
        samples=5,
        levels=3,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_tables_match(a: ConvergenceTable, b: ConvergenceTable):
    """Equality as bytes in everything except measured CPU time."""
    same = lambda x, y: np.float64(x).tobytes() == np.float64(y).tobytes()
    assert (a.problem, a.rho, a.samples) == (b.problem, b.rho, b.samples)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.scheme == rb.scheme
        assert ra.h_max == rb.h_max
        assert same(ra.rmse, rb.rmse)
        assert ra.n_excluded == rb.n_excluded
        assert same(ra.mean_adaptive_h, rb.mean_adaptive_h)
        assert ra.n_backstop == rb.n_backstop
        assert ra.n_diverged == rb.n_diverged
    assert a.slopes.keys() == b.slopes.keys()
    for k in a.slopes:
        assert same(a.slopes[k].slope, b.slopes[k].slope)
    assert same(a.moments.dw_sum, b.moments.dw_sum)
    assert same(a.moments.normsq_sum, b.moments.normsq_sum)
    assert a.moments.n_steps == b.moments.n_steps


def sample_seeds(config, indices):
    return [config.master_seed ^ i for i in indices]


def adaptive_solves(config, h_max, indices):
    """Protocol step 1 for the samples ``indices`` of one ``h_max``."""
    seeds = sample_seeds(config, indices)
    return _solve_adaptive_batch(problem_by_name(config.problem), MeshConfig(h_max=h_max, rho=config.rho), seeds)


def run_block(config, indices, solved):
    """Protocol steps 3-5 for the samples ``indices``, marched as one block."""
    return _run_block(config, problem_by_name(config.problem), sample_seeds(config, indices), solved)


def block_columns(config, h_max, indices):
    """Protocol steps 1-5 for the samples ``indices``, marched as one block."""
    return run_block(config, indices, adaptive_solves(config, h_max, indices))


@pytest.fixture(scope="module")
def baseline():
    return run_experiment(small_gbm_config(), workers=1)


class TestExperimentDeterminism:
    def test_rerun_is_identical(self, baseline):
        assert_tables_match(baseline, run_experiment(small_gbm_config(), workers=1))

    def test_worker_count_does_not_change_results(self, baseline):
        assert_tables_match(baseline, run_experiment(small_gbm_config(), workers=2))

    def test_sample_block_matches_single_sample_experiment(self):
        cfg = small_gbm_config(samples=1, h_max_list=(0.025,))
        table = run_experiment(cfg)
        _, cols = block_columns(cfg, 0.025, [0])
        for scheme in cfg.schemes:
            sq_err, diverged, n_fallback, wall = cols[scheme]
            assert len(sq_err) == len(diverged) == len(n_fallback) == len(wall) == 1
            row = [r for r in table.rows if r.scheme == scheme][0]
            assert row.rmse == math.sqrt(sq_err[0])
            assert row.n_diverged == int(diverged[0])
            assert row.n_backstop == int(n_fallback[0])

    def test_sample_record_contents(self, baseline):
        rec, other = adaptive_solves(small_gbm_config(), 0.025, [2, 3])
        # no state dependence in the gbm controller: uniform forty-step mesh
        assert rec.n_steps == other.n_steps == 40
        assert rec.mean_h == pytest.approx(0.025)
        assert rec.mesh.tobytes() == other.mesh.tobytes()
        # same mesh, different samples: distinct paths give distinct states
        assert other.y_terminal[0] != rec.y_terminal[0]

    def test_moment_accumulators_are_plausible(self, baseline):
        mom = baseline.moments
        assert mom.n_steps == 5 * (4 + 40)
        assert abs(mom.mean_dw()) < 0.5
        assert abs(mom.mean_normsq() - 1.0) < 0.5


def blocks_match_at_any_layout(config):
    """The table is byte-equal at 1, 2 and 3 workers, whose chunks are the
    blocks, and each sample's block of one gives its row of the whole block."""
    tables = [run_experiment(config, workers=w) for w in (1, 2, 3)]
    for other in tables[1:]:
        assert_tables_match(tables[0], other)
    indices = range(config.samples)
    for h_max in config.h_max_list:
        solved = adaptive_solves(config, h_max, indices)
        moments, cols = run_block(config, indices, solved)
        for i in indices:
            moments_i, cols_i = run_block(config, [i], solved[i : i + 1])
            assert moments_i.tobytes() == moments[i : i + 1].tobytes()
            for scheme in config.schemes:
                for alone, whole in zip(cols_i[scheme][:3], cols[scheme][:3]):
                    assert alone.tobytes() == whole[i : i + 1].tobytes()


class TestLayoutIndependence:
    """A table must not depend on how the samples are split into blocks."""

    def test_gbm(self):
        blocks_match_at_any_layout(small_gbm_config())

    def test_gl(self):
        blocks_match_at_any_layout(
            ExperimentConfig(problem="gl", h_max_list=(0.25, 0.025), samples=4, levels=3, master_seed=11)
        )

    def test_svol(self):
        blocks_match_at_any_layout(
            ExperimentConfig(problem="svol", h_max_list=(0.25, 0.025), samples=4, levels=3, master_seed=5)
        )

    def test_fhn05(self):
        blocks_match_at_any_layout(
            ExperimentConfig(problem="fhn05", h_max_list=(0.25, 0.025), samples=4, levels=3, master_seed=3)
        )

    def test_fhn01(self):
        blocks_match_at_any_layout(
            ExperimentConfig(problem="fhn01", h_max_list=(0.25, 0.025), samples=6, levels=3, master_seed=13)
        )

    def test_spde(self):
        blocks_match_at_any_layout(
            ExperimentConfig(problem="spde", h_max_list=(0.25, 0.05), samples=3, levels=2, master_seed=2)
        )


@pytest.mark.parametrize("name,h_max", [("fhn01", 0.025), ("spde", 0.05)])
def test_blocks_across_chunk_boundaries_give_the_same_table(name, h_max):
    # Each worker's chunk is one block: one, two and three workers march the
    # seven samples in blocks of 7, 4 + 3 and 3 + 2 + 2.  Each block forms
    # its reference in windows of the default size and of the smallest, a
    # chunk of steps; the budget is patched before the pool forks, so every
    # worker uses it.
    cfg = ExperimentConfig(problem=name, h_max_list=(0.25, h_max), samples=7, levels=2, master_seed=21)
    tables = [run_experiment(cfg, workers=w) for w in (1, 2, 3)]
    with mock.patch.object(harness, "_FORM_BYTES", 0):
        tables += [run_experiment(cfg, workers=w) for w in (1, 2, 3)]
    for other in tables[1:]:
        assert_tables_match(tables[0], other)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), h_max=st.sampled_from([0.25, 0.05]))
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_rebuilt_path_replays_the_adaptive_solve(name, seed, h_max):
    # The harness rebuilds each sample's path from its seed and the solve's
    # knot times; the knots and the generator state must come out the same.
    p = problem_by_name(name)
    path = WienerPath(p.m, seed=seed)
    res = solve(p, "adaptive_semi_implicit", path, config=MeshConfig(h_max=h_max))
    rebuilt = WienerPath(p.m, seed=seed)
    knots = res.mesh_times()
    rebuilt.value_at_many(knots)
    # Both hold the solve's knots with the same values.  The rebuilt path
    # holds no others, and equal generator states mean equally many draws,
    # so the solve's path holds no others either.
    assert rebuilt.values_on_grid(knots).tobytes() == path.values_on_grid(knots).tobytes()
    assert rebuilt.rng.bit_generator.state == path.rng.bit_generator.state
    mids = 0.5 * (knots[:-1] + knots[1:])
    assert rebuilt.value_at_many(mids).tobytes() == path.value_at_many(mids).tobytes()


def assert_solves_equal(a: SolveResult, b: SolveResult):
    assert a.mesh.tobytes() == b.mesh.tobytes()
    assert a.y_terminal.tobytes() == b.y_terminal.tobytes()
    assert (a.n_backstop, a.diverged) == (b.n_backstop, b.diverged)


def solve_each(problem, config, seeds):
    return [
        solve(problem, "adaptive_semi_implicit", WienerPath(problem.m, seed=s), config=config)
        for s in seeds
    ]


class TestAdaptiveBatch:
    """The harness's adaptive march against solve() on one path at a time."""

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_equals_solve(self, name):
        p = problem_by_name(name)
        seeds = [3, 17, 40] if name == "spde" else [0, 5, 9, 1234, 77]
        for h_max in (0.25, 0.005) if name == "spde" else (0.25, 0.0025):
            config = MeshConfig(h_max=h_max)
            for a, b in zip(_solve_adaptive_batch(p, config, seeds), solve_each(p, config, seeds)):
                assert_solves_equal(a, b)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(cuts=st.sets(st.integers(1, 5), max_size=5))
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_any_split_of_the_seeds_equals_one_batch(self, name, cuts):
        p = problem_by_name(name)
        config = MeshConfig(h_max=0.05)
        seeds = [11, 2, 305, 48, 9, 6]
        whole = _solve_adaptive_batch(p, config, seeds)
        edges = [0, *sorted(cuts), len(seeds)]
        parts = [r for lo, hi in zip(edges, edges[1:]) for r in _solve_adaptive_batch(p, config, seeds[lo:hi])]
        for a, b in zip(parts, whole):
            assert_solves_equal(a, b)

    def test_backstop_rows_equal_solve(self):
        # Far from equilibrium the controller hits its floor, so some rows
        # take balanced steps while the others take the main step.
        p = SdeProblem(
            d=1, m=1, A=np.array([[0.1]]),
            f=lambda x: -0.1 * x**3,
            g=lambda x: 0.2 * x, S=np.ones((1, 1)),
            x0=np.array([40.0]), t_end=1.0,
        )
        config = MeshConfig(h_max=0.1)
        batch = _solve_adaptive_batch(p, config, range(6))
        assert all(r.n_backstop > 0 for r in batch)
        for a, b in zip(batch, solve_each(p, config, range(6))):
            assert_solves_equal(a, b)

    def test_diverging_row_stops_while_the_others_finish(self):
        # Zero drift keeps every step at h_max; the strong geometric noise
        # blows up the path of seed 6 before T.
        p = SdeProblem(
            d=1, m=1, A=np.zeros((1, 1)),
            f=lambda x: np.zeros_like(x),
            g=lambda x: 30.0 * x, S=np.ones((1, 1)),
            x0=np.ones(1), t_end=1.0,
        )
        config = MeshConfig(h_max=0.05)
        batch = _solve_adaptive_batch(p, config, range(8))
        assert batch[6].diverged and batch[6].n_steps < 20
        assert abs(batch[6].y_terminal[0]) > DIVERGENCE_THRESHOLD
        assert sum(not r.diverged for r in batch) >= 4
        for r in batch:
            if not r.diverged:
                assert r.n_steps == 20 and r.mesh_times()[-1] == 1.0
        for a, b in zip(batch, solve_each(p, config, range(8))):
            assert_solves_equal(a, b)

    def test_non_finite_drift_raises(self):
        p = SdeProblem(
            d=1, m=1, A=np.zeros((1, 1)),
            f=lambda x: np.where(x > 0, np.inf, 0.0),
            g=lambda x: np.ones_like(x), S=np.ones((1, 1)),
            x0=np.ones(1), t_end=1.0,
        )
        with pytest.raises(FloatingPointError):
            _solve_adaptive_batch(p, MeshConfig(h_max=0.25), [0, 1])

    def test_wall_time_is_the_batch_share(self):
        batch = _solve_adaptive_batch(problem_by_name("gl"), MeshConfig(h_max=0.025), range(4))
        assert len({r.wall_time for r in batch}) == 1
        assert batch[0].wall_time > 0


class stored:
    """A depth-0 source over each row's stored times and values, as
    ``_march_batch`` reads a grid: row i has ``len(times[i]) - 1`` steps,
    ``np.diff`` of its times and values, handed over step-major."""

    def __init__(self, times, values):
        dt, dw, self.lengths = padded(times, values)
        self.hs, self.dws = dt.T.copy(), dw.transpose(1, 0, 2).copy()

    def chunk(self, lo, hi):
        return self.hs[lo:hi], self.dws[lo:hi]


FIXED_PAIRS = [
    (n, s) for n in PROBLEM_NAMES for s in SCHEME_IDS
    if s not in ADAPTIVE_SCHEMES and (s != "truncated" or problem_by_name(n).truncation is not None)
]


@pytest.mark.parametrize("name,scheme", FIXED_PAIRS)
def test_solve_and_batched_march_step_alike(name, scheme):
    # solve() on one path and one row of the harness's march over the same
    # knots must take the same steps, fallbacks included.  The march reads
    # its step sizes off the knots, so h is a power of two, whose knots
    # difference back to h exactly.
    p = problem_by_name(name)
    path = WienerPath(p.m, seed=0)
    res = solve(p, scheme, path, h=2.0**-5)
    times = res.mesh_times()
    assert np.diff(times).tobytes() == res.mesh.tobytes()
    y, diverged, n_fallback, _ = _march_batch(p, scheme, stored([times], [path.values_on_grid(times)]))
    assert y[0].tobytes() == res.y_terminal.tobytes()
    assert diverged[0] == res.diverged
    assert n_fallback[0] == res.n_backstop


def uniform_rows(p, lengths, h, rng):
    """Per-row knot times ``0, h, 2h, ...`` and Brownian values on them."""
    times = [h * np.arange(n + 1) for n in lengths]
    values = [np.cumsum(np.vstack([np.zeros(p.m), np.sqrt(h) * rng.standard_normal((n, p.m))]), axis=0)
              for n in lengths]
    return times, values


def plant_nan(values, row, step):
    """Make ``row``'s increment at ``step`` NaN, and so every later value."""
    values[row][step + 1 :] = np.nan


def padded(times, values):
    """``np.diff`` of each row's times and values, zero-padded to (k, L)
    step sizes and (k, L, m) increments, with the lengths."""
    lengths = np.array([len(t) - 1 for t in times])
    dt = np.zeros((len(times), lengths.max()))
    dw = np.zeros((len(times), lengths.max(), values[0].shape[1]))
    for i, (t, w) in enumerate(zip(times, values)):
        dt[i, : len(t) - 1] = np.diff(t)
        dw[i, : len(t) - 1] = np.diff(w, axis=0)
    return dt, dw, lengths


def march_by_index(p, scheme, times, values):
    """The march with its active rows gathered by index at every step, each
    step forming its own noise, over ``np.diff`` of the rows' times and
    values: (states, diverged mask, fallback counts)."""
    dt, dw, lengths = padded(times, values)
    step = step_map(p, scheme)
    y = np.tile(p.x0, (len(lengths), 1))
    live = np.ones(len(lengths), dtype=bool)
    n_fallback = np.zeros(len(lengths), dtype=int)
    for n in range(dt.shape[1]):
        act = np.flatnonzero(live & (n < lengths))
        with np.errstate(all="ignore"):
            y[act], fell = step(y[act], dt[act, n], dw[act, n])
            if fell is not None:
                n_fallback[act] += fell
            live[act] = ~_diverged(y[act])
    return y, ~live, n_fallback


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("name,scheme", [(n, s) for n, s in FIXED_PAIRS if n in ("gl", "fhn01")])
def test_each_row_of_a_ragged_block_marches_as_alone(name, scheme, data):
    # Ragged lengths, and one row whose NaN increment makes it diverge
    # partway through: the march switches from all rows to an index array
    # at the first row that drops.
    p = problem_by_name(name)
    lengths = data.draw(st.lists(st.integers(1, 12), min_size=2, max_size=6))
    k, h = len(lengths), data.draw(st.sampled_from([0.05, 0.01]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    times, values = uniform_rows(p, lengths, h, rng)
    bad = data.draw(st.integers(0, k - 1))
    plant_nan(values, bad, data.draw(st.integers(0, lengths[bad] - 1)))
    y, diverged, n_fallback, _ = _march_batch(p, scheme, stored(times, values))
    assert diverged[bad]
    y_ref, div_ref, _ = march_by_index(p, scheme, times, values)
    assert y.tobytes() == y_ref.tobytes()
    assert diverged.tolist() == div_ref.tolist()
    for i in range(k):
        yi, di, fi, _ = _march_batch(p, scheme, stored(times[i : i + 1], values[i : i + 1]))
        assert (diverged[i], n_fallback[i]) == (di[0], fi[0])
        assert y[i].tobytes() == yi[0].tobytes()


CHUNK = harness._STEP_CHUNK


@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("name,scheme", FIXED_PAIRS)
def test_chunked_march_equals_a_per_step_march(name, scheme, data):
    # The march forms each chunk's steps, increments and S dW at once and
    # reads step-major views; a march that takes np.diff of the same times
    # and values and forms the noise inside every step must give the same
    # bytes.  Lengths straddle the chunk boundaries, rows finish mid-chunk,
    # and a NaN increment may make one row diverge there.
    p = problem_by_name(name)
    boundary = st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    lengths = data.draw(st.lists(boundary | st.integers(1, 2 * CHUNK + 3), min_size=2, max_size=4))
    k, h = len(lengths), data.draw(st.sampled_from([1e-3, 2e-3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    times, values = uniform_rows(p, lengths, h, rng)
    if data.draw(st.booleans()):
        bad = data.draw(st.integers(0, k - 1))
        plant_nan(values, bad, data.draw(st.integers(0, lengths[bad] - 1)))
    y, diverged, n_fallback, _ = _march_batch(p, scheme, stored(times, values))
    y_ref, div_ref, fall_ref = march_by_index(p, scheme, times, values)
    assert y.tobytes() == y_ref.tobytes()
    assert diverged.tolist() == div_ref.tolist()
    assert n_fallback.tolist() == fall_ref.tolist()


def twin_refinement(m, seed, times, levels, grid):
    """What the streamed source must reproduce, from a path that stores its
    refinement: the fine grid, its values, the grid's values drawn after the
    refinement, and the generator's state at the end."""
    twin = WienerPath(m, seed=seed)
    twin.value_at_many(times)
    fine = twin.refine_uniform(times, levels) if levels else times
    vals = twin.values_on_grid(fine)
    return fine, vals, twin._draw_many(grid)[0], twin.rng.bit_generator.state


def streamed(m, seed, times):
    """The generator the harness hands the source for a path, past the draws
    of its knot values at ``times``, and that generator's state there."""
    path = WienerPath(m, seed=seed)
    path.value_at_many(times)
    return path.rng, path.rng.bit_generator.state


def assert_windows_match(source, fine, vals, stop=None):
    """Ask ``source`` for its steps a chunk at a time, as the march does,
    up to chunk ``stop``: each must be ``np.diff`` of the stored grid."""
    last = int(source.lengths.max())
    for n in list(range(0, last, harness._STEP_CHUNK))[:stop]:
        hi = min(n + harness._STEP_CHUNK, last)
        # A chunk holds until the next call: compare it before that.
        hs, dws = source.chunk(n, hi)
        assert hs.shape == (hi - n, len(fine)) and dws.shape == (hi - n, len(fine), vals[0].shape[1])
        for i, (t, w) in enumerate(zip(fine, vals)):
            end = min(hi, len(t) - 1)
            if n < end:
                assert hs[: end - n, i].tobytes() == np.diff(t)[n:end].tobytes()
                assert dws[: end - n, i].tobytes() == np.diff(w, axis=0)[n:end].tobytes()


class Recorder:
    """A march that keeps each row's steps as a grid hands them over."""

    def __init__(self, k):
        self.hs, self.dws = [[] for _ in range(k)], [[] for _ in range(k)]

    def take(self, grid):
        hs, dws = grid.chunk(0, int(grid.lengths.max()))
        for i, c in enumerate(grid.lengths.tolist()):
            self.hs[i].append(hs[:c, i].copy())
            self.dws[i].append(dws[:c, i].copy())


def assert_grids_match(source, recorder, grids, expected, knot_states, rngs, states):
    """Finish ``source``: each row's uniform-grid steps must be ``np.diff`` of
    its grid and its twin's values there; each knot generator drew exactly
    its knots' normals, and each refinement generator stands where its
    twin's does after the grid query."""
    source.finish()
    for i, (g, w) in enumerate(zip(grids, expected)):
        assert np.concatenate(recorder.hs[i]).tobytes() == np.diff(g).tobytes()
        assert np.concatenate(recorder.dws[i]).tobytes() == np.diff(w, axis=0).tobytes()
        assert source.knot_rngs[i].bit_generator.state == knot_states[i]
        assert rngs[i].bit_generator.state == states[i]


DYADIC = st.lists(st.sampled_from([0.125, 0.25, 0.375, 0.5]), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([1, 2]),
    levels=st.integers(0, 10),
    meshes=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5) | DYADIC, min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    smallest=st.booleans(),
    data=st.data(),
)
def test_refined_chunks_equal_the_stored_grid(m, levels, meshes, seed, smallest, data):
    # Random adaptive meshes with ragged step counts, refined up to 2**10
    # times, streamed in windows of one coarse step or of the default size.
    # The source gets what the harness hands it: each row's seed, from which
    # it draws the knot values a window at a time, and a generator past
    # those draws.  Every chunk must hold np.diff of a twin path's
    # refine_uniform grid and values, as bytes; depth 0 is the mesh itself.
    # Each row's uniform grid runs to one T for all rows, past the last
    # knot of every row that ends sooner, as a diverged solve's does; it
    # has times inside fine intervals, often two to one, and on dyadic
    # meshes times on fine knots.  It must get the twin's values, drawn
    # after the refinement, wherever the march stops asking for steps.
    times = [mesh_times(np.array(h)) for h in meshes]
    T = max(t[-1] for t in times) * data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    ns = data.draw(st.lists(st.integers(1, 40) | st.sampled_from([4, 8, 16, 32]),
                            min_size=len(times), max_size=len(times)))
    seeds, rngs, grids, fine, vals, expected, knot_states, states = [], [], [], [], [], [], [], []
    for i, (t, n) in enumerate(zip(times, ns)):
        grid = np.linspace(0.0, T, n + 1)
        f, v, g, state = twin_refinement(m, seed + i, t, levels, grid)
        rng, knot_state = streamed(m, seed + i, t)
        seeds.append(seed + i), rngs.append(rng), grids.append(grid)
        fine.append(f), vals.append(v), expected.append(g), knot_states.append(knot_state), states.append(state)
    budget = {"_FORM_BYTES": 0, "_STEP_CHUNK": 1} if smallest else {"_FORM_BYTES": harness._FORM_BYTES}
    with mock.patch.multiple(harness, **budget):
        recorder = Recorder(len(times))
        source = _RefinedChunks(times, m, levels, seeds, rngs, _GridWindows(T, ns, rngs, m, [recorder]))
        stop = data.draw(st.none() | st.integers(0, 3))
        assert_windows_match(source, fine, vals, stop)
        assert_grids_match(source, recorder, grids, expected, knot_states, rngs, states)


def test_deep_refinement_keeps_a_midpoint_that_rounds_onto_an_end():
    # gl at h_max 0.0025 ends in a 1e-14 step, so ten bisections round
    # midpoints onto their ends: refine_uniform keeps those knots without a
    # draw, and the source must too, in every window and in the generator.
    p = problem_by_name("gl")
    seeds = [0, 1]
    solved = _solve_adaptive_batch(p, MeshConfig(h_max=0.0025), seeds)
    times, rngs, grids, fine, vals, expected, knot_states, states = [], [], [], [], [], [], [], []
    for seed, res in zip(seeds, solved):
        t = res.mesh_times()
        grid = np.linspace(0.0, p.t_end, 401)
        f, v, g, state = twin_refinement(p.m, seed, t, 10, grid)
        assert not (np.diff(f) > 0).all()
        rng, knot_state = streamed(p.m, seed, t)
        times.append(t), rngs.append(rng), grids.append(grid)
        fine.append(f), vals.append(v), expected.append(g), knot_states.append(knot_state), states.append(state)
    recorder = Recorder(len(seeds))
    source = _RefinedChunks(times, p.m, 10, seeds, rngs, _GridWindows(p.t_end, [400] * 2, rngs, p.m, [recorder]))
    assert_windows_match(source, fine, vals)
    assert_grids_match(source, recorder, grids, expected, knot_states, rngs, states)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=st.floats(1e-3, 1e3), n=st.integers(1, 5000), data=st.data())
def test_grid_times_are_linspaces_bits(T, n, data):
    lo = data.draw(st.integers(0, n + 1))
    hi = data.draw(st.integers(lo, n + 1))
    assert harness._grid_times(T, n, lo, hi).tobytes() == np.linspace(0.0, T, n + 1)[lo:hi].tobytes()


def keeping(kept):
    """A stand-in for ``_GridMarch`` that files each march under its scheme in ``kept``."""
    march = harness._GridMarch

    def make(problem, scheme, k):
        kept[scheme] = march(problem, scheme, k)
        return kept[scheme]

    return make


BLOWUP = SdeProblem(d=1, m=1, A=np.zeros((1, 1)), f=np.zeros_like, g=lambda x: 30.0 * x, S=np.ones((1, 1)),
                    x0=np.ones(1), t_end=1.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), smallest=st.booleans(), stop=st.sampled_from([None, 1]), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("name", ["gl", "svol", "blowup"])
def test_window_driven_marches_give_each_row_its_march_alone(name, data, smallest, stop, seed):
    # The fixed-step marches take each window's grid steps as the reference
    # forms it, and carry their states on.  Every row must get the bytes,
    # divergence verdict and fallback count it gets when marched alone over
    # its stored grid values.  Uniform grids are ragged, the longest 3.7
    # times the shortest, as svol's 4,700 to 17,100 steps at h_max 0.00025;
    # a row may end early, as a diverged solve's mesh does, so its grid runs
    # past its last knot; the reference may stop after its first chunk, as
    # when every row diverges; windows are one coarse step or the default
    # size.  On blowup (dW = 30 x dW) explicit Euler diverges mid-path.
    p = BLOWUP if name == "blowup" else problem_by_name(name)
    schemes = [s for n, s in FIXED_PAIRS if n == name] if name != "blowup" else [
        "explicit_euler", "balanced", "increment_tamed", "fully_tamed"]
    k = data.draw(st.integers(2, 4))
    levels = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(k):
        inner = np.unique(rng.uniform(0.0, p.t_end, data.draw(st.integers(1, 30))))
        times.append(np.concatenate(([0.0], inner[inner > 0.0], [p.t_end])))
    early = data.draw(st.integers(0, k - 1))
    times[early] = times[early][: data.draw(st.integers(2, len(times[early])))]
    shortest = data.draw(st.integers(4, 24))
    ns = [shortest, round(3.7 * shortest)] + data.draw(
        st.lists(st.integers(shortest, round(3.7 * shortest)), min_size=k - 2, max_size=k - 2))
    seeds = [seed + i for i in range(k)]
    rngs, grids, values = [], [], []
    for s, t, n in zip(seeds, times, ns):
        grids.append(np.linspace(0.0, p.t_end, n + 1))
        values.append(twin_refinement(p.m, s, t, levels, grids[-1])[2])
        rngs.append(streamed(p.m, s, t)[0])
    budget = {"_FORM_BYTES": 0, "_STEP_CHUNK": 1} if smallest else {"_FORM_BYTES": harness._FORM_BYTES}
    with mock.patch.multiple(harness, **budget):
        marches = [harness._GridMarch(p, s, k) for s in schemes]
        source = _RefinedChunks(times, p.m, levels, seeds, rngs, _GridWindows(p.t_end, ns, rngs, p.m, marches))
        if stop is None:
            _march_batch(p, "balanced", source)
        else:
            source.chunk(0, min(harness._STEP_CHUNK, int(source.lengths.max())))
        source.finish()
    for march in marches:
        for i in range(k):
            y, diverged, n_fallback, _ = _march_batch(p, march.scheme, stored(grids[i : i + 1], values[i : i + 1]))
            assert march.y[i].tobytes() == y[0].tobytes()
            assert (march.diverged[i], march.n_fallback[i]) == (diverged[0], n_fallback[0])


def test_grids_come_out_whole_when_every_reference_row_diverges_early():
    # A reference march that stops after its first chunk, every row
    # diverged, leaves the uniform grids' windows to finish(): the
    # fixed-step marches must step over the same increments as when the
    # reference runs to the end.
    cfg = ExperimentConfig(problem="svol", h_max_list=(0.025,), samples=4, levels=6, master_seed=2)
    indices = range(cfg.samples)
    solved = adaptive_solves(cfg, 0.025, indices)
    real = harness._march_batch

    def run(stop_early):
        def march(problem, scheme, grid, *args):
            if stop_early and isinstance(grid, _RefinedChunks):
                grid.chunk(0, harness._STEP_CHUNK)
                k = len(grid.lengths)
                return np.zeros((k, problem.d)), np.ones(k, dtype=bool), np.zeros(k, dtype=int), 0.0
            return real(problem, scheme, grid, *args)

        kept = {}
        with mock.patch.multiple(harness, _march_batch=march, _FORM_BYTES=0, _GridMarch=keeping(kept)):
            _, cols = run_block(cfg, indices, solved)
        return cols, {s: (m.y, m.diverged, m.n_fallback) for s, m in kept.items()}

    (whole_cols, whole), (early_cols, early) = run(False), run(True)
    assert np.isnan(early_cols["balanced"][0]).all() and np.isfinite(whole_cols["balanced"][0]).all()
    assert int(max(r.n_steps for r in solved)) << cfg.levels > 4 * harness._STEP_CHUNK
    assert whole.keys() == early.keys() == set(cfg.schemes) - {"adaptive_semi_implicit"}
    for scheme in whole:
        assert all(x.tobytes() == y.tobytes() for x, y in zip(whole[scheme], early[scheme]))


def block_peak(cfg, solved, currents=None):
    """tracemalloc's peak over ``_run_block`` on the block of ``cfg``'s
    samples whose adaptive solves are ``solved``, which it leaves out.  The
    traced memory in use as each window is served goes to ``currents``."""
    serve = _GridWindows.serve

    def serving(self, t, w):
        if currents is not None:
            currents.append(tracemalloc.get_traced_memory()[0])
        return serve(self, t, w)

    tracemalloc.start()
    try:
        with mock.patch.object(_GridWindows, "serve", serving):
            run_block(cfg, range(cfg.samples), solved)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_blocks_memory_does_not_grow_with_the_path():
    # 32 gl samples at h_max 0.0025, 401 steps each refined 2**8 times, are
    # 26 MB of refined values, which a block used to keep.  The block now
    # holds a window of them at a time.
    cfg = ExperimentConfig(problem="gl", h_max_list=(0.0025,), samples=32, levels=8)
    solved = adaptive_solves(cfg, 0.0025, range(cfg.samples))
    refined = sum(((r.n_steps << cfg.levels) + 1) * 8 for r in solved)
    assert refined > 26e6
    assert block_peak(cfg, solved) < refined / 10


def window_unit(cfg, p):
    """Bytes of one chunk of step sizes and increments over the block's rows."""
    return harness._STEP_CHUNK * cfg.samples * (p.m + 1) * 8


def test_an_spde_block_keeps_no_path_length_store_of_brownian_values():
    # spde-desk's finest block: 5 samples of about 2,000 adaptive steps with
    # m = 101, whose uniform grids' values would take 8 MB.  The block keeps
    # none of them: it replays one sample at a time for the moment sums, and
    # then holds one window.  A window is its step sizes and increments
    # (256 fine steps at least, the unit below), its last two levels' fine
    # values and its normals, about three units, and the reference march's
    # S dW and |dW| for a chunk, two more; a fixed-step step's scratch comes
    # on top.  One sample's replayed values and six units are less than the
    # grid values alone.  Between windows the traced memory must not grow
    # with the path: from the second window on, once the reference march
    # holds its chunk buffers, the block holds its knot times and arrays
    # that a window sizes.
    cfg = ExperimentConfig(problem="spde", h_max_list=(0.005,), samples=5, levels=4)
    p = problem_by_name(cfg.problem)
    solved = adaptive_solves(cfg, 0.005, range(cfg.samples))
    grid = sum((round(p.t_end / r.mean_h) + 1) * p.m * 8 for r in solved)
    replay = max(r.n_steps + 1 for r in solved) * p.m * 8
    unit = window_unit(cfg, p)
    assert replay + 6 * unit < grid
    currents = []
    assert block_peak(cfg, solved, currents) < replay + 6 * unit
    assert len(currents) > 100
    assert max(currents[1:]) - currents[1] < unit / 4


def test_a_samples_replay_holds_at_most_two_path_length_arrays():
    # One spde sample at h_max 0.005: about 2,000 adaptive steps, 1.6 MB of
    # values at its knots, and windows a fifth of spde-desk's.  Replaying
    # the sample for its moment sums used to hold about four path-length
    # arrays of it (6.4 MB); two at most, and the windows, must fit.
    cfg = ExperimentConfig(problem="spde", h_max_list=(0.005,), samples=1, levels=4)
    p = problem_by_name(cfg.problem)
    solved = adaptive_solves(cfg, 0.005, range(cfg.samples))
    replay = (solved[0].n_steps + 1) * p.m * 8
    assert block_peak(cfg, solved) < 2 * replay + 6 * window_unit(cfg, p)


def test_a_paper_scale_spde_block_peaks_well_under_its_grid_values():
    # The catalog's finest spde h_max, 0.0005: about 20,000 adaptive steps,
    # 16 MB of values per sample.  Two samples' uniform grids would hold
    # 32 MB of values; the block peaks at one sample's replay and a few
    # windows, about half of that.
    cfg = ExperimentConfig(problem="spde", schemes=("adaptive_semi_implicit", "balanced"), h_max_list=(0.0005,),
                           samples=2, levels=1)
    p = problem_by_name(cfg.problem)
    solved = adaptive_solves(cfg, 0.0005, range(cfg.samples))
    grid = sum((round(p.t_end / r.mean_h) + 1) * p.m * 8 for r in solved)
    replay = max(r.n_steps + 1 for r in solved) * p.m * 8
    bound = replay + 4 * window_unit(cfg, p)
    assert bound < 0.6 * grid
    assert block_peak(cfg, solved) < bound


THR = DIVERGENCE_THRESHOLD
BOUNDARY = [0.0, np.nan, np.inf, -np.inf, THR, -THR, np.nextafter(THR, 0.0), np.nextafter(THR, np.inf),
            THR / math.sqrt(2.0), np.nextafter(THR / math.sqrt(2.0), np.inf), 1e-300]


class PlantedPath:
    """A stand-in path whose every increment is one planted value."""

    def __init__(self, dw):
        self.dim, self.dw = len(dw), dw

    def increment(self, t_a, t_b):
        return self.dw.copy()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    stack=hnp.arrays(
        float,
        st.tuples(st.integers(1, 8), st.sampled_from([1, 2, 3, 9, 100])),
        elements=st.one_of(st.sampled_from(BOUNDARY), st.floats(0.5 * THR, 1.5 * THR), st.floats()),
    )
)
def test_divergence_verdicts_agree_alone_in_a_stack_and_in_solve(stack):
    # States at the threshold, one ulp either side of it, NaN and +-inf.
    with np.errstate(over="ignore"):
        verdicts = _diverged(stack).tolist()
        assert [bool(_diverged(row)) for row in stack] == verdicts
    if stack.shape[1] > 3:
        return
    # Zero drift and unit noise: one Euler step from 0 lands on dW exactly
    # when dW is finite, so the march and solve() see the planted states.
    k, d = stack.shape
    p = SdeProblem(d=d, m=d, A=np.zeros((d, d)), f=np.zeros_like, g=np.ones_like, S=np.eye(d),
                   x0=np.zeros(d), t_end=1.0)
    # One step of size 1 from the value 0 to the planted state.
    values = [np.vstack([np.zeros(d), row]) for row in stack]
    _, diverged, _, _ = _march_batch(p, "explicit_euler", stored([np.array([0.0, 1.0])] * k, values))
    assert diverged.tolist() == verdicts
    with np.errstate(all="ignore"):
        assert [solve(p, "explicit_euler", PlantedPath(row), h=1.0).diverged for row in stack] == verdicts


PLANTED = [np.nan, np.inf, -np.inf, np.nextafter(THR, np.inf), -np.nextafter(THR, np.inf), THR,
           np.nextafter(THR, 0.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 40),
    d=st.sampled_from([1, 2, 3, 100]),
    scale=st.sampled_from([1.0, 1e6, 0.3 * THR, 0.6 * THR]),
    planted=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 99), st.sampled_from(PLANTED)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_reduction_divergence_test_flags_exactly_the_diverged_rows(k, d, scale, planted, seed):
    # Stacks whose one whole-stack reduction sees a NaN, an inf or a norm
    # one ulp over the threshold in one row, among rows far below, near or
    # (summed) over it: the verdicts must be the per-row ones.
    stack = scale / math.sqrt(d) * np.random.default_rng(seed).uniform(-1.0, 1.0, (k, d))
    for row, col, value in planted:
        stack[row % k] = 0.0
        stack[row % k, col % d] = value
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = _diverged(stack)
        alone = [bool(_diverged(row)) for row in stack]
    assert verdicts.shape == (k,) and verdicts.dtype == bool
    assert verdicts.tolist() == alone
    sq = [sum(float(v) ** 2 for v in row) for row in stack]
    expected = [not q <= THR**2 for q in sq]
    assert verdicts.tolist() == expected


def test_the_drift_is_evaluated_once_per_adaptive_step():
    gl = problem_by_name("gl")
    calls = []

    def f(y):
        calls.append(y.shape)
        return gl.f(y)

    p = replace(gl, f=f)
    config = MeshConfig(h_max=0.0025)
    batch = _solve_adaptive_batch(p, config, range(32))
    assert max(r.n_steps for r in batch) == 401
    assert len(calls) == 401
    for scheme in ("adaptive_semi_implicit", "adaptive_explicit"):
        calls.clear()
        res = solve(p, scheme, WienerPath(1, seed=0), config=config)
        assert res.n_backstop == 0
        assert len(calls) == res.n_steps


class TestReferenceQuality:
    def test_reference_beats_coarse_scheme_on_gbm(self):
        cfg = ExperimentConfig(
            problem="gbm",
            schemes=("adaptive_semi_implicit",),
            h_max_list=(0.025,),
            samples=8,
            levels=6,
            master_seed=3,
        )
        p = problem_by_name("gbm")
        _, cols = block_columns(cfg, 0.025, range(cfg.samples))
        ref_sq, sch_sq, err_sq = [], [], []
        for i in range(cfg.samples):
            # The harness's reference for sample i, rebuilt one path at a time.
            path = WienerPath(p.m, seed=cfg.master_seed ^ i)
            res = solve(p, "adaptive_semi_implicit", path, config=MeshConfig(h_max=0.025, rho=cfg.rho))
            # Marched over the stored refinement, as a grid of depth 0.
            fine = path.refine_uniform(res.mesh_times(), cfg.levels)
            ref, _, _, _ = _march_batch(p, "balanced", stored([fine], [path.values_on_grid(fine)]))
            exact = gbm_exact_terminal(path.value_at(p.t_end)[0])
            ref_sq.append((ref[0, 0] - exact) ** 2)
            sch_sq.append((res.y_terminal[0] - exact) ** 2)
            err_sq.append((res.y_terminal[0] - ref[0, 0]) ** 2)
        # gbm marches alike alone and in a stack, so the block's column is
        # these squared errors exactly.
        assert cols["adaptive_semi_implicit"][0].tobytes() == np.array(err_sq).tobytes()
        rmse_ref = math.sqrt(np.mean(ref_sq))
        rmse_sch = math.sqrt(np.mean(sch_sq))
        # the bridged reference runs 2^6 times finer, so it should sit well
        # below the scheme it judges
        assert rmse_ref < 0.5 * rmse_sch


@pytest.mark.parametrize("name,h_max,schemes", [
    # explicit Euler diverges on every spde sample at this h_max
    ("spde", 0.25, ("adaptive_semi_implicit", "balanced", "explicit_euler")),
    ("fhn01", 0.025, default_schemes("fhn01")),
])
def test_squared_errors_round_as_per_row_dot_products(name, h_max, schemes):
    cfg = ExperimentConfig(problem=name, schemes=schemes, h_max_list=(h_max,), samples=3, levels=3, master_seed=1)
    indices = range(cfg.samples)
    solved = adaptive_solves(cfg, h_max, indices)
    marched = {"adaptive_semi_implicit": (np.array([r.y_terminal for r in solved]), [r.diverged for r in solved])}
    real = harness._march_batch

    def recording(problem, scheme, grid, *args):
        out = real(problem, scheme, grid, *args)
        if isinstance(grid, _RefinedChunks):  # the reference march, a balanced one
            marched["reference"] = out[:2]
        return out

    kept = {}
    with mock.patch.multiple(harness, _march_batch=recording, _GridMarch=keeping(kept)):
        _, cols = run_block(cfg, indices, solved)
    marched.update({s: (m.y, m.diverged) for s, m in kept.items()})
    ref, ref_div = marched["reference"]
    for scheme in schemes:
        y, diverged = marched[scheme]
        expected = []
        for j in indices:
            diff = y[j] - ref[j]
            expected.append(float("nan") if diverged[j] or ref_div[j] else float(np.dot(diff, diff)))
        assert cols[scheme][0].tobytes() == np.array(expected).tobytes()
        assert cols[scheme][1].tolist() == list(diverged)
    if name == "spde":
        assert np.isnan(cols["explicit_euler"][0]).all()
        assert np.isfinite(cols["balanced"][0]).all()


class TestCsv:
    def make_table(self):
        rows = [
            TableRow("balanced", 0.25, 0.1 + 0.2, 2, 0.0123, 0.0184511, 3, 1),
            TableRow("balanced", 0.025, 1.4142135623730951e-05, 0, 0.5, 0.003, 0, 0),
            TableRow("increment_tamed", 0.25, float("nan"), 5, 0.01, 0.0184511, 0, 5),
        ]
        slopes = {
            "balanced": OrderFit(0.5000000000000001, 0.0, 0.999, 2),
            "increment_tamed": OrderFit(float("nan"), float("nan"), float("nan"), 0),
        }
        return ConvergenceTable(problem="fhn05", rho=100.0, samples=5, rows=rows, slopes=slopes)

    def test_round_trip_is_exact(self):
        table = self.make_table()
        buf = io.StringIO()
        write_table_csv(table, buf)
        buf.seek(0)
        back = read_table_csv(buf)
        assert back.problem == "fhn05"
        assert back.rho == 100.0 and back.samples == 5
        assert len(back.rows) == 3
        for orig, rt in zip(table.rows, back.rows):
            assert rt.scheme == orig.scheme
            assert rt.h_max == orig.h_max
            assert rt.rmse == orig.rmse or (math.isnan(rt.rmse) and math.isnan(orig.rmse))
            assert rt.mean_cputime_s == orig.mean_cputime_s
            assert rt.mean_adaptive_h == orig.mean_adaptive_h
            assert (rt.n_backstop, rt.n_diverged) == (orig.n_backstop, orig.n_diverged)
            assert rt.n_excluded == orig.n_excluded
        assert back.slopes["balanced"].slope == 0.5000000000000001
        assert not back.slopes["increment_tamed"].ok

    def test_written_text(self):
        # Floats as their repr (nan included), integers as str, and blank
        # cells where a row has no value or a fit failed.
        buf = io.StringIO()
        write_table_csv(self.make_table(), buf)
        assert buf.getvalue() == (
            CSV_HEADER + "\n"
            "fhn05,balanced,0.25,100.0,5,0.30000000000000004,0.0123,0.0184511,3,1,2,\n"
            "fhn05,balanced,0.025,100.0,5,1.4142135623730951e-05,0.5,0.003,0,0,0,\n"
            "fhn05,increment_tamed,0.25,100.0,5,nan,0.01,0.0184511,0,5,5,\n"
            "fhn05,balanced,,100.0,5,,,,,,,0.5000000000000001\n"
            "fhn05,increment_tamed,,100.0,5,,,,,,,\n"
        )

    def test_header_line(self):
        buf = io.StringIO()
        write_table_csv(self.make_table(), buf)
        assert buf.getvalue().splitlines()[0] == CSV_HEADER

    def test_empty_input(self):
        with pytest.raises(ValueError, match="missing header"):
            read_table_csv(io.StringIO(""))

    def test_wrong_header(self):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_table_csv(io.StringIO("a,b,c\n"))

    def test_short_row(self):
        text = CSV_HEADER + "\ngl,balanced,0.25\n"
        with pytest.raises(ValueError, match="row 2: expected"):
            read_table_csv(io.StringIO(text))

    def test_unparseable_field(self):
        text = CSV_HEADER + "\ngl,balanced,0.25,100.0,5,oops,0.1,0.2,0,0,0,\n"
        with pytest.raises(ValueError, match="row 2: malformed record"):
            read_table_csv(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        buf = io.StringIO()
        write_table_csv(self.make_table(), buf)
        padded = buf.getvalue() + "\n\n"
        back = read_table_csv(io.StringIO(padded))
        assert len(back.rows) == 3
