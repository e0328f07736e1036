"""The benchmark's calls into the package, each run once and checked.

``perfbench/`` drives the package through a few call forms and checks the
outputs against its recorded references.  These tests make the same calls,
read-only and at master seed 0 (a seed the references hold), so a changed
signature or a drifted result fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from adaptsde import harness, problems, schemes, wiener
from adaptsde.core import MeshConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``micro`` modules, imported without
    writing bytecode next to them."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import micro
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return workloads, micro


@pytest.mark.parametrize("name", ["gl-sweep", "spde-desk"])
def test_one_sweep_unit_matches_the_reference(bench, name):
    workloads, _ = bench
    wl = workloads.WORKLOADS[name]
    config = wl.config(wl.master_seed(0, 0))
    table, t0, t1 = wl.run_unit(harness, config)
    assert t1 >= t0
    n_ops, failed, sweep_problems = wl.check(config, table, workloads.load_reference(name))
    assert str(config.master_seed) in workloads.load_reference(name)
    assert n_ops == len(config.schemes) * len(config.h_max_list)
    assert failed == [] and sweep_problems == []


def test_single_path_solves_match_the_reference(bench):
    # The whole seed-0 pool, so a per-step change that moves one path's
    # mesh fails here, not only in a benchmark run.
    workloads, _ = bench
    wl = workloads.WORKLOADS["fhn01-paths"]
    problem = problems.problem_by_name(wl.problem)
    mesh = MeshConfig(h_max=wl.h_max)
    results = {}
    for j in range(workloads.POOL):
        res, t0, t1 = wl.solve_one(schemes, wiener, problem, mesh, 0, j)
        results[j] = wl.outcome(problem, res)
    reference = workloads.load_reference(wl.name)
    assert len(reference["0"]) == len(results)
    assert wl.check(0, results, reference) == {}


@pytest.mark.parametrize("name", ["gl", "fhn01", "spde"])
def test_every_traced_step_map_is_callable_as_the_microbenchmark_calls_it(bench, name):
    _, micro = bench
    problem = problems.problem_by_name(name)
    h = 0.01
    dw = np.sqrt(h) * np.random.default_rng(0).standard_normal(problem.m)
    for step in micro.STEP_MAPS:
        call = micro._step_call(schemes, problems, step, problem)
        assert call is not None, step
        out = call(problem.x0.copy(), h, dw)
        # step_drift_implicit_batch returns (states, fallback mask).
        y = out[0] if isinstance(out, tuple) else out
        assert np.shape(y)[-1] == problem.d and np.isfinite(y).all(), step
