"""Session fixtures for the acceptance suite and the criterion report hook.

The heavyweight Monte-Carlo fixtures are session-scoped and lazy: they only
run when an acceptance test asks for them, so the unit-test modules stay
fast.  Every acceptance test records its verdict through ``record_criterion``
before asserting; the terminal summary prints one line per criterion at the
end of the run.

BLAS is pinned to one thread before numpy loads, so the timed criteria
measure the schemes rather than thread contention on a shared host.
"""

import math
import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from adaptsde.core import MeshConfig
from adaptsde.harness import ExperimentConfig, MomentStats, run_experiment
from adaptsde.problems import gbm_exact_terminal, problem_by_name
from adaptsde.schemes import solve
from adaptsde.wiener import WienerPath

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def record_criterion():
    def _record(num: int, label: str, passed: bool, detail: str = ""):
        ACCEPTANCE_RESULTS[num] = (label, bool(passed), detail)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE CRITERION {num}: {status} - {label}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def _accumulate_moments(mom: MomentStats, path: WienerPath, result) -> None:
    """Add one adaptive run's increment statistics to the pooled counters."""
    dws = np.diff(path.values_on_grid(result.mesh_times()), axis=0)
    hs = result.mesh
    mom.dw_sum += float((dws / np.sqrt(hs)[:, None]).sum())
    mom.normsq_sum += float(((dws**2).sum(axis=1) / hs).sum())
    mom.n_steps += result.n_steps


@pytest.fixture(scope="session")
def gl_acceptance():
    """Adaptive-only Ginzburg-Landau sweep at the full benchmark scale."""
    cfg = ExperimentConfig(
        problem="gl",
        schemes=("adaptive_semi_implicit",),
        samples=100,
        master_seed=0,
    )
    t0 = time.perf_counter()
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return table, elapsed


@pytest.fixture(scope="session")
def svol_acceptance():
    """Full five-scheme stochastic-volatility sweep, 100 samples."""
    cfg = ExperimentConfig(problem="svol", samples=100, master_seed=0)
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def gbm_adaptive():
    """Adaptive runs on the stiff linear problem across the whole step grid.

    Every step size runs on one shared path per sample, coarsest first, so
    the finer meshes bridge into the coarse knots and each sample's exact
    terminal value is the same at every level.  Without that, each level
    would draw its own path and the level-to-level RMSE ordering would be
    decided by a few lognormal outliers rather than by the step size.

    Returns per-grid RMSE against the closed-form terminal value, stability
    statistics at the coarsest step, pooled backstop counters, and the
    increment-moment counters of the finest level only: the levels share
    their paths, so their increments are not independent of one another.
    """
    problem = problem_by_name("gbm")
    grid = (0.25, 0.025, 0.0025, 0.00025)
    mom = MomentStats(m=1)
    out = {
        "grid": grid,
        "n_finite_coarse": 0,
        "sq_terminal_coarse": [],
        "backstops": 0,
        "moments": mom,
    }
    sq: dict[float, list[float]] = {h_max: [] for h_max in grid}
    for i in range(100):
        path = WienerPath(1, seed=i)
        for h_max in grid:
            res = solve(
                problem,
                "adaptive_semi_implicit",
                path,
                config=MeshConfig(h_max=h_max, rho=100.0),
            )
            out["backstops"] += res.n_backstop
            if h_max == grid[-1]:
                _accumulate_moments(mom, path, res)
            # W(1) is a knot from the coarse run on, so this draws nothing.
            exact = gbm_exact_terminal(float(path.value_at(1.0)[0]))
            sq[h_max].append((float(res.y_terminal[0]) - exact) ** 2)
            if h_max == grid[0]:
                if not res.diverged and np.isfinite(res.y_terminal).all():
                    out["n_finite_coarse"] += 1
                out["sq_terminal_coarse"].append(float(res.y_terminal[0]) ** 2)
    out["rmse"] = {h_max: math.sqrt(float(np.mean(v))) for h_max, v in sq.items()}
    return out


@pytest.fixture(scope="session")
def gbm_euler_coarse():
    """Fixed-step explicit Euler at h=0.25 on 100 paths of the stiff problem.

    The paths are the ones ``gbm_adaptive`` runs at its coarsest step: both
    draw the same four forward increments from seed ``i``.  Returns the
    divergence flags and the squared terminal values.
    """
    problem = problem_by_name("gbm")
    flags = []
    sq_terminal = []
    for i in range(100):
        res = solve(problem, "explicit_euler", WienerPath(1, seed=i), h=0.25)
        flags.append(res.diverged)
        sq_terminal.append(float(res.y_terminal[0]) ** 2)
    return {"diverged": flags, "sq_terminal": sq_terminal}


@pytest.fixture(scope="session")
def gbm_coincidence():
    """Adaptive semi-implicit vs drift-implicit on shared paths and meshes."""
    problem = problem_by_name("gbm")
    worst = 0.0
    backstops = 0
    n = 100
    for i in range(n):
        path = WienerPath(1, seed=i)
        a = solve(
            problem, "adaptive_semi_implicit", path,
            config=MeshConfig(h_max=0.25, rho=100.0),
        )
        d = solve(problem, "drift_implicit", path, h=0.25)
        backstops += a.n_backstop + d.n_backstop
        assert a.n_steps == d.n_steps == 4  # zero nonlinearity: uniform mesh
        worst = max(worst, abs(float(a.y_terminal[0]) - float(d.y_terminal[0])))
    return {"max_diff": worst, "backstops": backstops, "n": n}


@pytest.fixture(scope="session")
def fhn_meanstep():
    """Per-path mean adaptive steps for both neuron variants, h_max=0.025.

    Twenty seeds feed the mean-step statistic; extra seeds keep solving until
    the pooled increment-moment counters cover at least 10^4 steps.
    """
    out = {}
    for name in ("fhn05", "fhn01"):
        problem = problem_by_name(name)
        mom = MomentStats(m=2)
        mean_hs = []
        seed = 0
        while seed < 20 or mom.n_steps < 10_000:
            path = WienerPath(2, seed=seed)
            res = solve(
                problem, "adaptive_semi_implicit", path,
                config=MeshConfig(h_max=0.025, rho=100.0),
            )
            if seed < 20:
                mean_hs.append(res.mean_h)
            _accumulate_moments(mom, path, res)
            seed += 1
        out[name] = {"mean_hs": mean_hs, "moments": mom, "n_paths": seed}
    return out


@pytest.fixture(scope="session")
def spde_efficiency():
    """Desk-scale lattice-system sweep for the efficiency comparison."""
    cfg = ExperimentConfig(
        problem="spde",
        samples=10,
        h_max_list=(0.05, 0.005),
        levels=4,
        master_seed=0,
    )
    return run_experiment(cfg)
