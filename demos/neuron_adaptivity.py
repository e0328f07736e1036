"""Watch the controller react to a firing neuron.

Runs the FitzHugh-Nagumo system over a long horizon so the voltage variable
fires several times, then writes the trajectory and the step-size sequence
side by side.  The steps sit at h_max while the system idles near rest and
dive once the cubic term wakes up during an excursion.
"""

import os
from dataclasses import replace

import numpy as np

from adaptsde.core import MeshConfig
from adaptsde.problems import fhn
from adaptsde.schemes import solve
from adaptsde.wiener import WienerPath

OUT = os.path.join(os.path.dirname(__file__), "output")
T_LONG = 20.0
H_MAX = 0.025


def run_variant(epsilon, seed=4):
    problem = replace(fhn(epsilon), t_end=T_LONG)
    path = WienerPath(2, seed=seed)
    result = solve(
        problem,
        "adaptive_semi_implicit",
        path,
        config=MeshConfig(h_max=H_MAX, rho=100.0),
        record_trajectory=True,
    )
    tag = f"eps{epsilon}".replace(".", "")
    fname = os.path.join(OUT, f"neuron_{tag}.csv")
    with open(fname, "w") as fh:
        fh.write("t,V,w,h\n")
        times = result.mesh_times().tolist()
        hs = result.mesh.tolist() + [float("nan")]
        for t, (v, w), h in zip(times, result.trajectory.tolist(), hs):
            fh.write(f"{t!r},{v!r},{w!r},{h!r}\n")

    V = result.trajectory[:, 0]
    crossings = int(np.sum((V[:-1] < 1.0) & (V[1:] >= 1.0)))
    print(f"epsilon = {epsilon}:")
    print(f"  steps = {result.n_steps}, mean h = {result.mean_h:.5f}, "
          f"min h = {result.mesh.min():.5f}, backstops = {result.n_backstop}")
    print(f"  firing events (upward crossings of V = 1): {crossings}")
    print(f"  wrote {fname}")


def main():
    os.makedirs(OUT, exist_ok=True)
    print(f"FitzHugh-Nagumo over [0, {T_LONG}], h_max = {H_MAX}, rho = 100")
    for eps in (0.5, 0.1):
        run_variant(eps)


if __name__ == "__main__":
    main()
