"""The benchmark's workloads, the inputs they derive from a seed, and the
checks that their outputs are correct.

Every input comes from the ``--seed`` argument:

* a sweep's n-th ``run_experiment`` call in a run uses master seed
  ``(seed * 1024 + n) * 1024``.  The harness seeds sample i with
  ``master_seed ^ i``, so with fewer than 1024 samples no two benchmark seeds
  share a path;
* an ``fhn01-paths`` run solves a pool of ``POOL`` paths, path j seeded with
  ``[seed, j]``, cycling through the pool until the run's time is up.

Correctness, for every seed: each operation must give finite results, no
divergence, and no excluded samples; sweep meshes must have
``0 < mean h <= h_max`` and the adaptive RMSE must fall strictly down the
``h_max`` grid; a single solve's mesh must end exactly at T, and a repeated
solve of a pool path must reproduce its first result bit for bit.  For seeds
recorded in ``reference/`` (seeds 0-9), outputs must also match the recorded
ones: counts exactly, floats to ``REL_TOL``.

The references were recorded at the commit that added this benchmark.  A
change that alters the random streams on purpose (ROADMAP item 4, keying
sample streams by ``SeedSequence``) moves every Monte-Carlo number: it must
re-record the references with ``record_reference.py`` as a separate
benchmark change, never inside the change that alters the streams.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12
POOL = 256


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)["runs"]


@dataclass(frozen=True)
class Sweep:
    """``run_experiment`` over a grid; an operation is one (scheme, h_max) row."""

    name: str
    problem: str
    samples: int
    h_max_list: tuple[float, ...] = ()
    levels: int = 0

    kind = "sweep"
    #: How a sweep's wall time follows the calibration kernel's (calibrate.py).
    host_sensitivity = 0.5

    def master_seed(self, seed: int, n: int) -> int:
        return (seed * 1024 + n) * 1024

    def config(self, master_seed: int):
        from adaptsde.harness import ExperimentConfig

        return ExperimentConfig(
            problem=self.problem,
            samples=self.samples,
            h_max_list=self.h_max_list,
            levels=self.levels,
            master_seed=master_seed,
        )

    def paths_per_unit(self, config) -> int:
        return config.samples * len(config.h_max_list)

    def run_unit(self, harness, config):
        """One sweep: ``(table, start, end)`` in ``perf_counter`` seconds."""
        t0 = time.perf_counter()
        table = harness.run_experiment(config, workers=1)
        return table, t0, time.perf_counter()

    def outputs(self, table) -> list[dict]:
        return [
            {
                "scheme": r.scheme,
                "h_max": r.h_max,
                "rmse": r.rmse,
                "mean_adaptive_h": r.mean_adaptive_h,
                "n_backstop": r.n_backstop,
                "n_diverged": r.n_diverged,
                "n_excluded": r.n_excluded,
            }
            for r in table.rows
        ]

    def check(self, config, table, reference: dict) -> tuple[int, list[str], list[str]]:
        """``(operations, failed operations, failed sweep properties)``."""
        rows = self.outputs(table)
        failed = []
        for r in rows:
            op = f"{r['scheme']}@{r['h_max']}"
            if not math.isfinite(r["rmse"]) or r["n_diverged"] or r["n_excluded"]:
                failed.append(f"{op}: rmse={r['rmse']} diverged={r['n_diverged']} excluded={r['n_excluded']}")
            elif not 0 < r["mean_adaptive_h"] <= r["h_max"]:
                failed.append(f"{op}: mean adaptive h {r['mean_adaptive_h']} outside (0, h_max]")
        expected = {(s, h) for s in config.schemes for h in config.h_max_list}
        problems = []
        if {(r["scheme"], r["h_max"]) for r in rows} != expected or len(rows) != len(expected):
            problems.append("table rows differ from the configured (scheme, h_max) grid")
        adaptive = sorted(
            (r for r in rows if r["scheme"] == "adaptive_semi_implicit"), key=lambda r: -r["h_max"]
        )
        errs = [r["rmse"] for r in adaptive]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            problems.append(f"adaptive RMSE not decreasing down the grid: {errs}")
        ref = reference.get(str(config.master_seed))
        if ref is not None:
            by_op = {(r["scheme"], r["h_max"]): r for r in ref}
            for r in rows:
                want = by_op.get((r["scheme"], r["h_max"]))
                op = f"{r['scheme']}@{r['h_max']}"
                if want is None:
                    failed.append(f"{op}: not in the reference")
                    continue
                same = (
                    _close(r["rmse"], want["rmse"])
                    and _close(r["mean_adaptive_h"], want["mean_adaptive_h"])
                    and r["n_backstop"] == want["n_backstop"]
                    and r["n_diverged"] == want["n_diverged"]
                )
                if not same:
                    failed.append(f"{op}: {r} differs from reference {want}")
        return len(rows), sorted(set(failed)), problems


@dataclass
class PathRun:
    """What one ``Paths.run`` saw.  ``intervals`` holds each successful
    solve's (start, end); ``results[j]`` is the first outcome of pool path j
    and ``counts[j]`` how often it was solved; ``errors`` has one line per
    solve that raised or did not reproduce its path's first outcome."""

    attempted: int = 0
    intervals: list[tuple[float, float]] = field(default_factory=list)
    results: dict[int, dict] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Paths:
    """Independent single-path ``solve`` calls; an operation is one solve."""

    name: str
    problem: str
    scheme: str
    h_max: float

    kind = "paths"
    host_sensitivity = 1.0

    def solve_one(self, schemes, wiener, problem, mesh, seed: int, j: int):
        """Solve pool path j: ``(result, start, end)``.  The path is built
        outside the timed region, as a caller builds it before solving."""
        path = wiener.WienerPath(problem.m, seed=[seed, j])
        t0 = time.perf_counter()
        res = schemes.solve(problem, self.scheme, path, config=mesh)
        return res, t0, time.perf_counter()

    def run(self, seed: int, seconds: float, min_solves: int) -> "PathRun":
        """Cycle the pool until ``seconds`` have passed and at least
        ``min_solves`` solves are done."""
        from adaptsde import problems, schemes, wiener
        from adaptsde.control import MeshConfig

        problem = problems.problem_by_name(self.problem)
        mesh = MeshConfig(h_max=self.h_max)
        run = PathRun()
        start = time.perf_counter()
        while run.attempted < min_solves or time.perf_counter() - start < seconds:
            j = run.attempted % POOL
            run.attempted += 1
            try:
                res, t0, t1 = self.solve_one(schemes, wiener, problem, mesh, seed, j)
            except (FloatingPointError, ValueError, RuntimeError) as exc:
                run.errors.append(f"path {j}: {type(exc).__name__}: {exc}")
                continue
            run.intervals.append((t0, t1))
            out = self.outcome(problem, res)
            if j not in run.results:
                run.results[j] = out
                run.counts[j] = 1
            elif out == run.results[j]:
                run.counts[j] += 1
            else:
                run.errors.append(f"path {j}: repeated solve gave {out}, first gave {run.results[j]}")
        return run

    @staticmethod
    def outcome(problem, res) -> dict:
        return {
            "y_terminal": [float(v) for v in res.y_terminal],
            "n_steps": int(res.n_steps),
            "diverged": bool(res.diverged),
            "mesh_end_is_T": bool(res.mesh_times()[-1] == problem.t_end),
            "n_mesh": len(res.mesh),
        }

    def check(self, seed: int, results: dict, reference: dict) -> dict[int, str]:
        """``{pool index: reason}`` for every pool path whose outcome fails."""
        ref = reference.get(str(seed))
        failed = {}
        for j, out in sorted(results.items()):
            if out["diverged"] or not all(math.isfinite(v) for v in out["y_terminal"]):
                failed[j] = f"diverged or non-finite terminal {out['y_terminal']}"
            elif not out["mesh_end_is_T"] or out["n_mesh"] != out["n_steps"]:
                failed[j] = "mesh does not end at T or its length is not n_steps"
            elif ref is not None:
                y, n_steps = ref[j][:-1], ref[j][-1]
                if out["n_steps"] != n_steps or not all(map(_close, out["y_terminal"], y)):
                    failed[j] = f"{out['y_terminal']} in {out['n_steps']} steps, reference {y} in {n_steps}"
        return failed


WORKLOADS = {
    # Dispatch-bound (d = m = 1).  32 samples make the finest h_max need two
    # harness blocks (30 + 2), so batching changes show.
    "gl-sweep": Sweep("gl-sweep", "gl", samples=32),
    # Bandwidth-bound (d = 100, m = 101) at desk scale; h_max = 0.005 is one
    # block of 5, where a bigger batch costs more per sample-step.
    "spde-desk": Sweep("spde-desk", "spde", samples=5, h_max_list=(0.05, 0.005), levels=4),
    # Batch of one: no harness, no bridge, no reference solve; a dense 2x2
    # LinearSolver whose h changes on most steps.
    "fhn01-paths": Paths("fhn01-paths", "fhn01", "adaptive_semi_implicit", h_max=0.025),
}


def describe(workload: Paths) -> dict:
    """The resolved configuration of a paths workload, for the run record."""
    from adaptsde.control import MeshConfig

    return {"kind": workload.kind, **asdict(workload), "mesh": asdict(MeshConfig(h_max=workload.h_max)),
            "pool": POOL}
