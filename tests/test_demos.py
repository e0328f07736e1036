"""Smoke tests: the demo scripts run as documented."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bridge_refinement_demo_keeps_coarse_knots():
    done = run_demo("bridge_refinement.py")
    assert done.returncode == 0, done.stderr
    assert "coarse knots unchanged" in done.stdout


def test_stiff_stability_demo_runs():
    done = run_demo("stiff_stability.py")
    assert done.returncode == 0, done.stderr
    assert "rmse(adaptive vs exact) = " in done.stdout


def test_neuron_adaptivity_demo_runs():
    done = run_demo("neuron_adaptivity.py")
    assert done.returncode == 0, done.stderr
    assert "firing events (upward crossings of V = 1): " in done.stdout


def test_gl_convergence_demo_runs():
    done = run_demo("gl_convergence.py")
    assert done.returncode == 0, done.stderr
    assert "adaptive_semi_implicit.... slope " in done.stdout


def test_lattice_efficiency_demo_runs():
    done = run_demo("lattice_efficiency.py")
    assert done.returncode == 0, done.stderr
    assert "cheapest to dearest: " in done.stdout
