"""Record the outputs that the benchmark's correctness check compares against.

    python3 perfbench/record_reference.py [--workload NAME ...] [--seeds 10]

Run from the root of a source checkout.  For each workload and each seed
0..seeds-1 this runs the first unit of ``run.py --seed <seed>`` (the first
sweep, or one pass over the fhn01 pool) and writes its outputs to
``reference/<workload>.json``.  Re-record only as a benchmark change of its
own, e.g. after a change that alters the random streams on purpose; see
``workloads.py``.
"""

from __future__ import annotations

import argparse
import json

import run  # pins BLAS threads before numpy is imported
from workloads import ABS_TOL, POOL, REFERENCE_DIR, REL_TOL, WORKLOADS


def record(wl, seeds: int) -> dict:
    from adaptsde import harness

    runs = {}
    for seed in range(seeds):
        if wl.kind == "sweep":
            config = wl.config(wl.master_seed(seed, 0))
            table = wl.run_unit(harness, config)[0]
            runs[str(config.master_seed)] = wl.outputs(table)
        else:
            result = wl.run(seed, 0.0, POOL)
            if result.errors or len(result.results) != POOL:
                raise SystemExit(f"{wl.name} seed {seed}: {result.errors[:3]}")
            runs[str(seed)] = [result.results[j]["y_terminal"] + [result.results[j]["n_steps"]] for j in range(POOL)]
        print(f"{wl.name}: seed {seed} recorded", flush=True)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    run.import_package()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        head = {
            "workload": name,
            "rel_tol": REL_TOL,
            "abs_tol": ABS_TOL,
            "key": "master seed of the sweep" if wl.kind == "sweep" else "benchmark seed; [y..., n_steps] per pool path",
        }
        runs = record(wl, args.seeds)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "runs": {\n')
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in runs.items()))
            fh.write("\n}}\n")


if __name__ == "__main__":
    main()
