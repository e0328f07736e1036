"""The package loads scipy.linalg and the process pool only when a run calls them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter, so nothing imported by other tests counts.
SCRIPT = """
import json, sys
import numpy as np
import adaptsde
from adaptsde.core import MeshConfig
from adaptsde.harness import ExperimentConfig, run_experiment
from adaptsde.problems import PROBLEM_NAMES, problem_by_name
from adaptsde.schemes import LinearSolver, solve
from adaptsde.wiener import WienerPath

LAZY = ("scipy.linalg", "concurrent.futures.process")
catalog = {name: problem_by_name(name) for name in PROBLEM_NAMES}
for name in ("gbm", "gl", "svol", "fhn01"):
    p = catalog[name]
    solve(p, "adaptive_semi_implicit", WienerPath(p.m, seed=0), config=MeshConfig(0.025, 100.0))
run_experiment(ExperimentConfig(problem="gl", samples=2, h_max_list=(0.25, 0.025)), workers=1)
before = [name for name in LAZY if name in sys.modules]

p = catalog["spde"]
rng = np.random.default_rng(0)
h = rng.uniform(1e-4, 0.05, size=3)
b = rng.normal(size=(3, p.d))
x = LinearSolver(p).solve(h, b)
after = [name for name in LAZY if name in sys.modules]

import scipy.linalg

gtsv = scipy.linalg.get_lapack_funcs("gtsv", (p.A,))
dl, dia, du = np.diagonal(p.A, -1), np.diagonal(p.A), np.diagonal(p.A, 1)
direct = np.stack([gtsv(-hi * dl, 1.0 - hi * dia, -hi * du, bi[:, None])[3][:, 0] for hi, bi in zip(h, b)])
print(json.dumps({"before": before, "after": after, "equal": x.tobytes() == direct.tobytes()}))
"""


def test_scipy_and_the_pool_load_on_first_use():
    # os.environ carries conftest's BLAS thread pins into the child.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["before"] == []
    assert seen["after"] == ["scipy.linalg"]
    assert seen["equal"]
