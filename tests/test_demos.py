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
