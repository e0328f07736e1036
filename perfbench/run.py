"""adaptsde benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload gl-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Workloads:

* ``gl-sweep``: ``run_experiment`` on ``gl``, default schemes and grid,
  32 samples.  Small and dispatch-bound (d = m = 1).
* ``spde-desk``: ``run_experiment`` on ``spde``, h_max in (0.05, 0.005),
  levels 4, 5 samples.  Large and bandwidth-bound (d = 100, m = 101).
* ``fhn01-paths``: independent single-path adaptive ``solve`` calls on
  ``fhn01`` at h_max 0.025; a batch of one with a dense 2x2 linear solve.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
fresh-interpreter imports of the package plus building the problem),
``paths_per_s``, ``path_p50_ms``, ``path_p95_ms`` and ``peak_rss_mb``.
``--trace 1`` runs one unit of the workload untraced and then the same unit
traced, and prints the per-layer metrics of ``spans.layer_metrics``, the
trace's overhead and the step-map microbenchmark.

BLAS is pinned to one thread, the harness to one worker and numpy's huge-page
madvise off before numpy is imported, and glibc's mmap threshold is fixed.
Every end-to-end time is scaled to a reference host speed measured alongside
it (``calibrate.py``).
The last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
resolved configuration, failures, span table) also goes to
``.perfbench/<workload>-seed<seed>-trace<trace>.json`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Set before numpy is imported.  Whether the kernel backs a large array with
# huge pages depends on the host's memory fragmentation: with numpy's madvise
# on, identical spde-desk runs peaked at 350-424 MB, with it off at 366 +- 1 MB.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)
WORKERS = 1

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402

#: glibc moves its mmap threshold at run time with the sizes freed so far,
#: so whether an array lands on the heap, and how much heap stays resident,
#: varied with the data: spde-desk peaked at 363-423 MB across seeds.  A fixed
#: threshold maps every array of this size or more on its own and returns it
#: on free, which held the peak within 322-330 MB at unchanged run time.
MMAP_THRESHOLD = 4 << 20
M_MMAP_THRESHOLD = -3


def fix_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold; the threshold set, or None off glibc."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return MMAP_THRESHOLD if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None
    except (OSError, AttributeError):
        return None


import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
#: fhn01-paths solves at least this many paths per run, so ten lie beyond p95.
MIN_SOLVES = 256

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from adaptsde import harness, problems, schemes, wiener
problems.problem_by_name(sys.argv[2])
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import calibrate
print(t1 - t0, calibrate.speed_now())
"""


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import adaptsde from this checkout's src/, or exit without a result."""
    if not (SRC / "adaptsde" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'adaptsde'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import adaptsde

    if Path(adaptsde.__file__).resolve().parent != SRC / "adaptsde":
        sys.exit(f"perfbench: imported adaptsde from {adaptsde.__file__}, not from {SRC}")
    return adaptsde


def environment(args, config, mmap_threshold) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {v: os.environ.get(v) for v in PINNED_ENV},
        "malloc_mmap_threshold": mmap_threshold,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
    }


def setup_seconds(problem: str) -> tuple[float, float]:
    """Median over fresh interpreters of importing the package and building
    the problem, ``(at the reference host speed, raw)``.  Each child times
    itself, so interpreter start is excluded, then measures the host's speed
    right after (``calibrate.py``)."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), problem, str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        seconds, speed = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed)
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, q):
    """The q-th percentile (0-100) by linear interpolation, as numpy computes it."""
    import numpy as np

    return float(np.percentile(values, q))


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, and failed whole-unit properties."""

    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)

    def add_sweep(self, wl, config, table, reference):
        ops, bad, props = wl.check(config, table, reference)
        self.attempted += ops
        self.failed += len(bad)
        self.failures += bad
        self.problems += props

    def add_paths(self, wl, seed, run, reference):
        bad = wl.check(seed, run.results, reference)
        self.attempted += run.attempted
        self.failed += len(run.errors) + sum(run.counts[j] for j in bad)
        self.failures += run.errors + [f"path {j}: {why}" for j, why in sorted(bad.items())]


def measure_sweeps(wl, args, cal, tally, report):
    """Sweeps until the next one would overrun ``--seconds``."""
    from adaptsde import harness
    from workloads import load_reference

    reference = load_reference(wl.name)
    per_path_ms, paths, scaled, wall = [], 0, 0.0, 0.0
    n = 0
    while True:
        config = wl.config(wl.master_seed(args.seed, n))
        table, t0, t1 = wl.run_unit(harness, config)
        tally.add_sweep(wl, config, table, reference)
        dt = cal.scaled(t0, t1, wl.host_sensitivity)
        report["units"].append({"master_seed": config.master_seed, "wall_s": t1 - t0, "scaled_s": dt,
                                "speed": cal.speed(t0, t1), "rows": wl.outputs(table)})
        paths += wl.paths_per_unit(config)
        per_path_ms.append(1e3 * dt / wl.paths_per_unit(config))
        scaled += dt
        wall += t1 - t0
        n += 1
        if wall + (t1 - t0) > args.seconds:
            break
    # A sweep is one request: its per-path latency is the sweep's time over
    # its paths, and the percentiles run over the sweeps of this run.
    return {
        "paths_per_s": (paths / scaled, "1/s"),
        "path_p50_ms": (percentile(per_path_ms, 50), "ms"),
        "path_p95_ms": (percentile(per_path_ms, 95), "ms"),
    }


def measure_paths(wl, args, cal, tally, report):
    """Solves for ``--seconds``; each latency at the reference host speed."""
    from workloads import load_reference

    run = wl.run(args.seed, args.seconds, MIN_SOLVES)
    tally.add_paths(wl, args.seed, run, load_reference(wl.name))
    ms = [1e3 * cal.scaled(t0, t1, wl.host_sensitivity) for t0, t1 in run.intervals]
    report["units"].append({"solves": len(ms), "wall_s": sum(t1 - t0 for t0, t1 in run.intervals),
                            "scaled_s": sum(ms) / 1e3})
    return {
        "paths_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
        "path_p50_ms": (percentile(ms, 50), "ms"),
        "path_p95_ms": (percentile(ms, 95), "ms"),
    }


def trace_workload(wl, args, tally, report):
    """One unit untraced, then the same unit traced; per-layer metrics.

    The unit is one sweep, or one pass over the fhn01 pool of paths.  The
    step-map microbenchmark runs afterwards, with the trace removed.
    """
    import micro
    import spans
    from adaptsde import harness, problems
    from workloads import POOL, load_reference

    reference = load_reference(wl.name)
    if wl.kind == "sweep":
        config = wl.config(wl.master_seed(args.seed, 0))
        unit = lambda: wl.run_unit(harness, config)[0]
    else:
        unit = lambda: wl.run(args.seed, 0.0, POOL)
    t0 = time.perf_counter()
    plain = unit()
    plain_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = unit()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    report["units"].append({"untraced_s": plain_s, "traced_s": traced_s})

    reported, schemes, samples = {}, (), 0
    if wl.kind == "sweep":
        for table in (plain, traced):
            tally.add_sweep(wl, config, table, reference)
        if wl.outputs(plain) != wl.outputs(traced):
            tally.problems.append("the traced sweep's results differ from the untraced sweep's")
        for row in plain.rows:
            reported[row.scheme] = reported.get(row.scheme, 0.0) + row.mean_cputime_s
        schemes, samples, h = config.schemes, config.samples, min(config.h_max_list)
    else:
        for run in (plain, traced):
            tally.add_paths(wl, args.seed, run, reference)
        if plain.results != traced.results:
            tally.problems.append("the traced solves' results differ from the untraced solves'")
        h = wl.h_max
    costs = micro.step_map_costs(problems.problem_by_name(wl.problem), h, args.seed)
    report["spans"] = tracer.span_table()
    report["missing"] = sorted(tracer.missing)
    return spans.layer_metrics(tracer, schemes, samples, reported, costs, traced_s / plain_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    mmap_threshold = fix_mmap_threshold()
    import_package()
    from workloads import WORKLOADS, describe

    wl = WORKLOADS[args.workload]
    if wl.kind == "sweep":
        config = dataclasses.asdict(wl.config(wl.master_seed(args.seed, 0)))
    else:
        config = describe(wl)
    env = environment(args, config, mmap_threshold)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env))
    tally = Tally()
    report = {"environment": env, "units": []}
    if args.trace:
        metrics = trace_workload(wl, args, tally, report)
    else:
        from calibrate import Calibrator

        setup, setup_raw = setup_seconds(wl.problem)
        metrics = {"setup_s": (setup, "s")}
        measure = measure_sweeps if wl.kind == "sweep" else measure_paths
        with Calibrator() as cal:
            metrics.update(measure(wl, args, cal, tally, report))
        speed = cal.speed(cal.starts[0], cal.starts[-1])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        report["calibration"] = {"host_speed": speed, "setup_raw_s": setup_raw}
        print(f"host speed {speed:.3f} of reference over {len(cal.durations)} kernel samples; "
              "times below are scaled to the reference speed (calibrate.py)")

    correct = tally.failed == 0 and not tally.problems
    for line in tally.problems + tally.failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {'missing' if value is None else f'{value:.6g}':>14} {unit}")
    print(f"{'failed_share':<52} {tally.failed / max(tally.attempted, 1):>14.6g} share")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} if value is not None
            else {"value": None, "unit": unit, "missing": True}
            for name, (value, unit) in metrics.items()
        },
    }
    report.update(result, failures=tally.failures, problems=tally.problems)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
