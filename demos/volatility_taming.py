"""Where increment taming goes quiet and other stabilizations keep working.

The 2-D 3/2-volatility model has superlinear drift and diffusion.  At demo
scale this script compares the strong-convergence slopes of the adaptive
semi-implicit scheme against the fixed-step stabilized family.  The
increment-tamed scheme's denominator max(1, h ||h f + g dW||) needs enormous
states before it differs from plain explicit Euler, so on this problem it
behaves like explicit Euler with whatever that implies for the measured
order; the balanced and fully tamed schemes damp every step instead.
"""

import os

from adaptsde.cli import main as cli_main
from adaptsde.harness import ExperimentConfig, run_experiment, write_table_csv

OUT = os.path.join(os.path.dirname(__file__), "output")
SAMPLES = 20


def main():
    os.makedirs(OUT, exist_ok=True)
    config = ExperimentConfig(problem="svol", samples=SAMPLES, master_seed=0)
    print(f"running {SAMPLES}-sample sweep, schemes: {', '.join(config.schemes)}")
    table = run_experiment(config)

    csv_path = os.path.join(OUT, "svol_convergence.csv")
    with open(csv_path, "w") as fh:
        write_table_csv(table, fh)

    print(f"{'scheme':<24} {'slope':>7}   rmse at coarsest/finest h")
    for scheme in config.schemes:
        rows = [r for r in table.rows if r.scheme == scheme]
        fit = table.slopes[scheme]
        print(
            f"{scheme:<24} {fit.slope:>7.3f}   {rows[0].rmse:.3e} -> {rows[-1].rmse:.3e}"
        )

    svg_path = os.path.join(OUT, "svol_convergence.svg")
    cli_main(["plot", "--in", csv_path, "--out", svg_path])
    print("wrote", csv_path, "and", svg_path)


if __name__ == "__main__":
    main()
