"""Per-layer tracing of adaptsde from outside the package.

A traced run replaces public functions and methods of the package with thin
wrappers.  Each call becomes a span with a name, a start, an end and the name
of the span that was open when it began (its parent).  Spans are aggregated
in memory per (name, parent), so millions of step calls cost a few dict
updates each and no memory per call; the table is written once, at the end
of the run.  A layer's self time is its total time minus the time its child
spans cover.

Nothing here is imported by an untraced run.  If a wrapped name no longer
exists in the package (a later refactor may delete it), the tracer records it
as missing and every metric derived from it is reported as missing instead of
failing the run.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "adaptsde"
ROOT = "<root>"

#: Step maps whose cost is reported, and the harness scheme each one marches.
STEP_MAPS = {
    "step_semi_implicit": "adaptive_semi_implicit",
    "step_balanced": "balanced",
    "step_drift_implicit_batch": "drift_implicit",
    "step_increment_tamed": "increment_tamed",
    "step_fully_tamed": "fully_tamed",
    "step_truncated": "truncated",
}
SCHEMES = tuple(STEP_MAPS.values())


def _rows(args) -> int:
    """Sample rows a step map advances in one call: leading axes of ``y``."""
    shape = getattr(args[1], "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """Span recorder plus the patches that feed it; ``restore`` undoes them."""

    def __init__(self):
        self.origin = time.perf_counter()
        # (name, parent) -> [calls, total_s, child_s, rows, first_start, last_end]
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.march_s: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[list] = [[ROOT, 0.0]]
        self._undo: list[tuple[object, str, object]] = []
        self._phase = "prepare"

    # -- span recording -----------------------------------------------------

    def wrap(self, fn, name, rows=None, on_result=None):
        """Return ``fn`` wrapped so every call is recorded as span ``name``.

        ``rows(args)`` counts the work items of one call; ``on_result(args,
        out, dt, parent)`` observes each call's result after the span closes.
        """
        stats, stack, clock, origin = self.stats, self._stack, time.perf_counter, self.origin

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                key = (name, parent[0])
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0, 0, t0 - origin, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += frame[1]
                s[5] = t1 - origin
                if rows is not None:
                    s[3] += rows(args)
            if on_result is not None:
                on_result(args, out, dt, parent[0])
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, rows=None, on_result=None, replacement=None):
        """Wrap ``module.attr`` and every alias of it in the package's modules."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        new = replacement(fn) if replacement else self.wrap(fn, name, rows, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key in [k for k, v in vars(mod).items() if v is fn]:
                self._set(mod, key, new)

    def patch_attr(self, owner, attr, name, on_result=None):
        """Wrap one method or foreign function found as ``owner.attr``; a
        missing owner or attribute marks ``name`` missing."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        self._set(owner, attr, self.wrap(fn, name, on_result=on_result))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are built from."""
        import scipy.linalg

        from adaptsde import control, core, harness, problems, schemes, wiener

        c = self.counters
        self.patch_function(harness, "run_experiment", "harness.run_experiment")

        def on_solve(args, out, dt, parent):
            c["solve.steps"] += out.n_steps
            if parent == "harness.run_experiment":
                self._phase = "prepare"

        self.patch_function(schemes, "solve", "schemes.solve", on_result=on_solve)

        def on_step(step):
            scheme = STEP_MAPS[step]

            def observe(args, out, dt, parent):
                # The harness marches the reference (balanced on the bridge-
                # refined grid) after a block's adaptive solves and before
                # its fixed-step schemes; attribute top-level calls by phase.
                if parent != "harness.run_experiment":
                    return
                label = scheme
                if step == "step_balanced" and self._phase in ("prepare", "reference"):
                    label = "reference"
                self._phase = label
                self.march_s[label] += dt

            if step != "step_drift_implicit_batch":
                return observe

            def observe_newton(args, out, dt, parent):
                c["newton_fallbacks"] += int(np.count_nonzero(out[1]))
                observe(args, out, dt, parent)

            return observe_newton

        for step in STEP_MAPS:
            self.patch_function(schemes, step, f"schemes.{step}", rows=_rows, on_result=on_step(step))

        def on_decision(args, out, dt, parent):
            c["backstop_steps"] += bool(out.use_backstop)

        self.patch_function(control, "propose_step", "control.propose_step", on_result=on_decision)
        self.patch_function(core, "mesh_times", "core.mesh_times")

        def count(key, size):
            def observe(args, out, dt, parent):
                c[key] += size(args, out)

            return observe

        path_cls = getattr(wiener, "WienerPath", None)
        self.patch_attr(path_cls, "increment", "wiener.increment")
        self.patch_attr(path_cls, "refine_uniform", "wiener.refine_uniform",
                        on_result=count("refine_knots", lambda a, o: len(o)))
        self.patch_attr(path_cls, "value_at_many", "wiener.value_at_many",
                        on_result=count("value_at_many_knots", lambda a, o: len(o)))
        dense = lambda a, o: getattr(a[0], "structure", None) == "dense"
        self.patch_attr(getattr(schemes, "LinearSolver", None), "solve", "schemes.linear_solve",
                        on_result=count("dense_solves", dense))
        self.patch_attr(scipy.linalg, "lu_factor", "schemes.lu_factor")

        def traced_problem_by_name(fn):
            g_bytes = count("g_bytes", lambda a, o: o.nbytes if o.flags.owndata else 0)

            def build(*args, **kwargs):
                p = fn(*args, **kwargs)
                fields = {
                    "f": self.wrap(p.f, "problems.f"),
                    "g": self.wrap(p.g, "problems.g", on_result=g_bytes),
                }
                if p.df is not None:
                    fields["df"] = self.wrap(p.df, "problems.df")
                return dataclasses.replace(p, **fields)

            return build

        self.patch_function(problems, "problem_by_name", "problems.problem_by_name",
                            replacement=traced_problem_by_name)

    # -- aggregation ------------------------------------------------------------

    def total(self, name, parent=None, field=1):
        """Sum one column (1 = seconds, 0 = calls, 3 = rows) over the parents."""
        return sum(
            s[field] for (n, p), s in self.stats.items() if n == name and (parent is None or p == parent)
        )

    def child_total(self, parent, names, field=1):
        return sum(s[field] for (n, p), s in self.stats.items() if p == parent and n in names)

    def span_table(self):
        """The aggregated spans, one row per (name, parent), largest first."""
        rows = [
            {
                "name": n,
                "parent": p,
                "calls": s[0],
                "total_s": s[1],
                "self_s": s[1] - s[2],
                "rows": s[3],
                "first_start_s": s[4],
                "last_end_s": s[5],
            }
            for (n, p), s in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["total_s"])


def _ratio(a, b):
    return a / b if b else 0.0


def _criterion10(pooled: dict[str, float]) -> float:
    """Criterion 10's ratio: drift-implicit time over the next-slowest scheme."""
    others = [v for k, v in pooled.items() if k != "drift_implicit"]
    if "drift_implicit" not in pooled or not others:
        return 0.0
    return _ratio(pooled["drift_implicit"], max(others))


def layer_metrics(t: Tracer, schemes, samples, reported, micro, overhead):
    """Every per-layer metric as ``{name: (value or None if missing, unit)}``.

    ``schemes`` and ``samples`` describe the traced sweep (empty and 0 when
    the workload has no harness); ``reported`` is the program's own
    ``mean_cputime_s`` summed over the grid, per scheme; ``micro`` is
    :func:`micro.step_map_costs`; ``overhead`` the traced over untraced wall
    time.  Rates over zero events read 0.
    """
    c = t.counters
    out = {}

    def put(name, unit, value, *deps):
        out[name] = (None if any(d in t.missing for d in deps) else float(value()), unit)

    inc, ref, vam = "wiener.increment", "wiener.refine_uniform", "wiener.value_at_many"
    put("wiener.increment.calls", "count", lambda: t.total(inc, field=0), inc)
    put("wiener.increment.s", "s", lambda: t.total(inc), inc)
    put("wiener.refine_uniform.s", "s", lambda: t.total(ref), ref)
    put("wiener.refine_uniform.knots", "count", lambda: c["refine_knots"], ref)
    put("wiener.value_at_many.s", "s", lambda: t.total(vam), vam)
    put("wiener.ns_per_knot", "ns/knot",
        lambda: 1e9 * _ratio(t.total(ref) + t.total(vam), c["refine_knots"] + c["value_at_many_knots"]),
        ref, vam)

    ps = "control.propose_step"
    put("control.propose_step.calls", "count", lambda: t.total(ps, field=0), ps)
    put("control.propose_step.s", "s", lambda: t.total(ps), ps)
    put("control.backstop_steps", "count", lambda: c["backstop_steps"], ps)

    sv = "schemes.solve"
    steps = [f"schemes.{s}" for s in STEP_MAPS]
    solve_self = lambda: t.total(sv) - t.child_total(sv, {inc, ps, *steps})
    put("schemes.solve.calls", "count", lambda: t.total(sv, field=0), sv)
    put("schemes.solve.steps", "count", lambda: c["solve.steps"], sv)
    put("schemes.solve.s", "s", lambda: t.total(sv), sv)
    put("schemes.solve.self_us_per_step", "us/step", lambda: 1e6 * _ratio(solve_self(), c["solve.steps"]),
        sv, inc, ps, "schemes.step_semi_implicit", "schemes.step_balanced")

    for step in STEP_MAPS:
        n = f"schemes.{step}"
        put(f"{n}.s", "s", lambda n=n: t.total(n), n)
        put(f"{n}.us_per_row", "us/row", lambda n=n: 1e6 * _ratio(t.total(n), t.total(n, field=3)), n)
        put(f"{n}.rows_per_call", "rows/call", lambda n=n: _ratio(t.total(n, field=3), t.total(n, field=0)), n)
        for k in ("k1", "kB"):
            cost = micro[step][k]
            out[f"{n}.us_per_row.{k}"] = (cost, "us/row")

    ls, lu = "schemes.linear_solve", "schemes.lu_factor"
    factorised = lambda: t.total(lu, parent=ls, field=0)
    put("schemes.linear_solve.calls", "count", lambda: t.total(ls, field=0), ls)
    put("schemes.linear_solve.s", "s", lambda: t.total(ls), ls)
    put("schemes.lu_factor.calls", "count", factorised, ls, lu)
    put("schemes.lu_cache_hit_ratio", "ratio", lambda: _ratio(c["dense_solves"] - factorised(), c["dense_solves"]),
        ls, lu)
    put("schemes.newton_fallbacks", "count", lambda: c["newton_fallbacks"], "schemes.step_drift_implicit_batch")

    pb = "problems.problem_by_name"
    for fn in ("f", "g", "df"):
        put(f"problems.{fn}.s", "s", lambda fn=fn: t.total(f"problems.{fn}"), pb)
    put("problems.g.mb", "MB-computed", lambda: c["g_bytes"] / 1e6, pb)

    # Root-level calls are the benchmark's own mesh checks, not the program's.
    mt = "core.mesh_times"
    put("core.mesh_times.s", "s", lambda: t.total(mt) - t.total(mt, parent=ROOT), mt)

    hx = "harness.run_experiment"
    put("harness.self_s", "s", lambda: t.total(hx) - t.total(hx, field=2), hx)
    put("harness.reference_march.s", "s", lambda: t.march_s["reference"], hx, "schemes.step_balanced")
    # The adaptive scheme's own timing is its solve() minus the draws; each
    # fixed-step scheme's is its step map's time in the harness's march.
    step_of = {scheme: f"schemes.{step}" for step, scheme in STEP_MAPS.items()}
    deps = {s: (hx, sv, inc) if s == "adaptive_semi_implicit" else (hx, step_of[s]) for s in SCHEMES}
    measured = {}
    for scheme in schemes:
        if scheme == "adaptive_semi_implicit":
            measured[scheme] = _ratio(t.total(sv, parent=hx) - t.total(inc, parent=sv), samples)
        else:
            measured[scheme] = _ratio(t.march_s[scheme], samples)
    for scheme in SCHEMES:
        out[f"harness.reported_cputime_s.{scheme}"] = (reported.get(scheme, 0.0), "s")
        put(f"harness.measured_cputime_s.{scheme}", "s", lambda s=scheme: measured.get(s, 0.0), *deps[scheme])
    out["harness.criterion10_ratio.reported"] = (_criterion10(reported), "ratio")
    put("harness.criterion10_ratio.measured", "ratio", lambda: _criterion10(measured),
        *{d for s in schemes for d in deps[s]})

    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
