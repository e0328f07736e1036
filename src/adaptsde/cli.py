"""Command-line front end: single runs, convergence sweeps, SVG plots.

Subcommands
-----------

``run``            one solve of a catalog problem, summary line to stdout,
                   optional trajectory and step-size CSVs.
``convergence``    Monte-Carlo strong-convergence sweep, CSV table out.
``plot``           render a convergence CSV as a log-log SVG (no external
                   renderer needed).
``list-problems``  catalog of benchmark problems.
``list-schemes``   catalog of integration schemes.

Exit codes: 0 ok, 2 bad arguments, 3 I/O failure, 4 malformed input file.
Sweep parallelism honors the ADAPTSDE_WORKERS environment variable
(default: 1, a single process); a value that is not an integer, or is
below 1, exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Optional

import numpy as np

from .core import MeshConfig
from .harness import (
    ConvergenceTable,
    ExperimentConfig,
    _worker_count,
    default_levels,
    read_table_csv,
    run_experiment,
    write_table_csv,
)
from .problems import PROBLEM_NAMES, problem_by_name
from .schemes import ADAPTIVE_SCHEMES, solve, step_map
from .wiener import WienerPath

#: CLI spelling -> (internal scheme id, description), in listing order.
CLI_SCHEMES = {
    "adaptive-si": ("adaptive_semi_implicit", "adaptive semi-implicit Euler-Maruyama with balanced backstop"),
    "adaptive-explicit": ("adaptive_explicit", "adaptive explicit Euler-Maruyama with balanced backstop"),
    "drift-implicit": ("drift_implicit", "fixed-step drift-implicit Euler (Newton per step)"),
    "balanced": ("balanced", "fixed-step balanced method"),
    "increment-tamed": ("increment_tamed", "fixed-step increment-tamed Euler"),
    "fully-tamed": ("fully_tamed", "fixed-step fully tamed Euler (weight h^1/2)"),
    "truncated": ("truncated", "fixed-step truncated Euler (problems with a growth envelope)"),
    "explicit-euler": ("explicit_euler", "fixed-step explicit Euler-Maruyama (no stabilization)"),
}
_SCHEME_TO_CLI = {scheme: name for name, (scheme, _) in CLI_SCHEMES.items()}

PROBLEM_BLURBS = {
    "gbm": "scalar geometric Brownian motion, r=-8, sigma=3 (stiff, linear)",
    "fhn05": "FitzHugh-Nagumo neuron, epsilon=0.5 (mild timescale separation)",
    "fhn01": "FitzHugh-Nagumo neuron, epsilon=0.1 (fast excitation variable)",
    "gl": "scalar Ginzburg-Landau with cubic drift and multiplicative noise",
    "svol": "2-D 3/2 stochastic volatility model (superlinear drift and noise)",
    "spde": "finite-difference reaction-diffusion system, 100 interior nodes",
}


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _resolve_scheme(name: str) -> str:
    if name not in CLI_SCHEMES:
        candidates = ", ".join(sorted(CLI_SCHEMES))
        raise ValueError(f"unknown scheme {name!r}; candidates: {candidates}")
    return CLI_SCHEMES[name][0]


# -- run ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    try:
        problem = problem_by_name(args.problem)
        scheme = _resolve_scheme(args.scheme)
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        adaptive = scheme in ADAPTIVE_SCHEMES
        if not adaptive and not 0 < args.hmax <= problem.t_end:
            raise ValueError(f"step size must satisfy 0 < h <= t_end = {problem.t_end}, got {args.hmax}")
        # A fixed step ignores rho, but the summary line reports it, so rho is
        # checked as a mesh's, against the largest h_max a mesh allows.
        mesh = MeshConfig(h_max=args.hmax if adaptive else 1.0, rho=args.rho)
        kwargs = {"config": mesh} if adaptive else {"h": args.hmax}
        step_map(problem, scheme)  # raises where the truncated scheme has no envelope
    except ValueError as exc:
        return _fail(str(exc), 2)

    path = WienerPath(problem.m, seed=args.seed)
    want_traj = args.trajectory_out is not None
    result = solve(problem, scheme, path, record_trajectory=want_traj, **kwargs)

    terminal = ",".join(repr(float(v)) for v in np.atleast_1d(result.y_terminal))
    print(
        f"problem={args.problem} scheme={args.scheme} hmax={args.hmax!r} "
        f"rho={args.rho!r} seed={args.seed} steps={result.n_steps} "
        f"mean_h={result.mean_h!r} backstops={result.n_backstop} "
        f"diverged={result.diverged} terminal=[{terminal}]"
    )

    times = result.mesh_times().tolist()
    try:
        if args.trajectory_out is not None:
            with open(args.trajectory_out, "w") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(["t", *(f"y_{i + 1}" for i in range(problem.d))])
                out.writerows([t, *state] for t, state in zip(times, result.trajectory.tolist()))
        if args.stepsize_out is not None:
            with open(args.stepsize_out, "w") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(["t", "h"])
                out.writerows(zip(times, result.mesh.tolist()))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 3)
    return 0


# -- convergence ---------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    opts: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            opts[key.strip()] = value.strip()
    return opts


def _split(text: str, convert) -> tuple:
    """The non-blank comma-separated items of ``text``, each converted."""
    return tuple(convert(item.strip()) for item in text.split(",") if item.strip())


def cmd_convergence(args: argparse.Namespace) -> int:
    cfgfile: dict[str, str] = {}
    if args.config is not None:
        try:
            cfgfile = _read_config_file(args.config)
        except OSError as exc:
            return _fail(f"cannot read config file: {exc}", 3)
        except ValueError as exc:
            return _fail(str(exc), 4)

    # Each ExperimentConfig field the flags or the file give, and its
    # conversion; the rest take ExperimentConfig's defaults.
    fields = (
        ("schemes", args.schemes, "schemes", lambda text: _split(text, _resolve_scheme)),
        ("h_max_list", args.hmax_list, "hmax-list", lambda text: _split(text, float)),
        ("samples", args.samples, "samples", int),
        ("master_seed", args.seed, "seed", int),
        ("rho", args.rho, "rho", float),
        ("levels", args.refine, "refine", int),
    )
    accepted = ("problem", "out", *(key for _, _, key, _ in fields))
    if unknown := [key for key in cfgfile if key not in accepted]:
        return _fail(f"{args.config}: unknown key {unknown[0]!r}; accepted keys: {', '.join(accepted)}", 4)
    try:
        problem = args.problem if args.problem is not None else cfgfile.get("problem")
        if problem is None:
            raise ValueError("a problem name is required (flag --problem or config file)")
        given = {}
        for name, flag_value, key, convert in fields:
            raw = flag_value if flag_value is not None else cfgfile.get(key)
            if raw is not None:
                given[name] = convert(raw)
        if given.get("levels", 1) < 1:
            # ExperimentConfig reads levels == 0 as "use the default".
            raise ValueError(f"refine must be >= 1, got {given['levels']}")
        out = args.out if args.out is not None else cfgfile.get("out")
        config = ExperimentConfig(problem=problem, **given)
        workers = _worker_count(None)
    except ValueError as exc:
        return _fail(str(exc), 2)

    table = run_experiment(config, workers=workers)

    try:
        if out is not None:
            with open(out, "w") as fh:
                write_table_csv(table, fh)
            slope_stream = sys.stdout
        else:
            write_table_csv(table, sys.stdout)
            slope_stream = sys.stderr
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 3)

    for scheme, fit in table.slopes.items():
        cli_name = _SCHEME_TO_CLI.get(scheme, scheme)
        if fit.ok:
            slope_stream.write(
                f"{cli_name}: order {fit.slope:.3f} (R^2 {fit.r_squared:.3f})\n"
            )
        else:
            slope_stream.write(f"{cli_name}: insufficient data for an order fit\n")
    return 0


# -- plot -----------------------------------------------------------------------

_PALETTE = (
    "#1965b0",
    "#dc050c",
    "#4eb265",
    "#f7a600",
    "#882e72",
    "#7bafde",
    "#e8601c",
    "#777777",
)

_W, _H = 720, 480
_BOX = (70.0, 30.0, 520.0, 420.0)  # left, top, right, bottom


def _render_svg(table: ConvergenceTable, x_mode: str) -> str:
    left, top, right, bottom = _BOX

    series: dict[str, list[tuple[float, float]]] = {}
    for row in table.rows:
        x = row.h_max if x_mode == "hmax" else row.mean_cputime_s
        y = row.rmse
        if math.isfinite(x) and x > 0 and math.isfinite(y) and y > 0:
            series.setdefault(row.scheme, []).append((x, y))
    series = {k: sorted(v) for k, v in series.items() if v}

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if xs:
        lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
        ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    else:
        lx0, lx1, ly0, ly1 = -4.0, 0.0, -4.0, 0.0
    if lx1 - lx0 < 1e-9:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    if ly1 - ly0 < 1e-9:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5
    pad_x, pad_y = 0.08 * (lx1 - lx0), 0.08 * (ly1 - ly0)
    lx0, lx1 = lx0 - pad_x, lx1 + pad_x
    ly0, ly1 = ly0 - pad_y, ly1 + pad_y

    def sx(lx: float) -> float:
        return left + (lx - lx0) / (lx1 - lx0) * (right - left)

    def sy(ly: float) -> float:
        return bottom - (ly - ly0) / (ly1 - ly0) * (bottom - top)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(
        "<style>text{font-family:Helvetica,Arial,sans-serif;font-size:12px;fill:#222}"
        ".tick{stroke:#ccc;stroke-width:1}.frame{fill:none;stroke:#444}"
        ".guide{stroke:#999;stroke-width:1;stroke-dasharray:6 4;fill:none}"
        ".line{fill:none;stroke-width:1.8}</style>"
    )
    out.append(f'<rect class="frame" x="{left}" y="{top}" width="{right - left}" height="{bottom - top}"/>')

    # Decade grid lines with labels; fall back to endpoint labels if the
    # range contains no integer decade.
    x_ticks = [k for k in range(math.ceil(lx0), math.floor(lx1) + 1)]
    y_ticks = [k for k in range(math.ceil(ly0), math.floor(ly1) + 1)]
    for k in x_ticks:
        px = sx(k)
        out.append(f'<line class="tick" x1="{px:.3f}" y1="{top}" x2="{px:.3f}" y2="{bottom}"/>')
        out.append(f'<text x="{px:.3f}" y="{bottom + 16}" text-anchor="middle">1e{k}</text>')
    if not x_ticks:
        out.append(f'<text x="{left}" y="{bottom + 16}" text-anchor="middle">{10 ** lx0:.2g}</text>')
        out.append(f'<text x="{right}" y="{bottom + 16}" text-anchor="middle">{10 ** lx1:.2g}</text>')
    for k in y_ticks:
        py = sy(k)
        out.append(f'<line class="tick" x1="{left}" y1="{py:.3f}" x2="{right}" y2="{py:.3f}"/>')
        out.append(f'<text x="{left - 6}" y="{py + 4:.3f}" text-anchor="end">1e{k}</text>')
    if not y_ticks:
        out.append(f'<text x="{left - 6}" y="{bottom}" text-anchor="end">{10 ** ly0:.2g}</text>')
        out.append(f'<text x="{left - 6}" y="{top + 10}" text-anchor="end">{10 ** ly1:.2g}</text>')

    # Order guide lines through the lower-left corner of the data box.
    for slope, cls, label in ((1.0, "slope-1", "slope 1"), (0.5, "slope-05", "slope 1/2")):
        gx1 = min(lx1, lx0 + (ly1 - ly0) / slope)
        gy1 = ly0 + slope * (gx1 - lx0)
        out.append(
            f'<path class="guide {cls}" d="M {sx(lx0):.3f} {sy(ly0):.3f} '
            f'L {sx(gx1):.3f} {sy(gy1):.3f}"/>'
        )
        out.append(
            f'<text x="{sx(gx1) + 4:.3f}" y="{sy(gy1):.3f}" fill="#999">{label}</text>'
        )

    legend_y = top + 10
    for i, (scheme, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = [(sx(math.log10(x)), sy(math.log10(y))) for x, y in pts]
        d = "M " + " L ".join(f"{px:.3f} {py:.3f}" for px, py in coords)
        out.append(f'<path class="line s-{scheme}" stroke="{color}" d="{d}"/>')
        for px, py in coords:
            out.append(
                f'<circle class="pt s-{scheme}" cx="{px:.3f}" cy="{py:.3f}" r="3.2" '
                f'fill="{color}"/>'
            )
        label = _SCHEME_TO_CLI.get(scheme, scheme)
        fit = table.slopes.get(scheme)
        if fit is not None and fit.ok and x_mode == "hmax":
            label += f" (slope {fit.slope:.2f})"
        out.append(
            f'<line x1="{right + 14}" y1="{legend_y:.3f}" x2="{right + 38}" '
            f'y2="{legend_y:.3f}" stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(f'<circle cx="{right + 26}" cy="{legend_y:.3f}" r="3.2" fill="{color}"/>')
        out.append(f'<text x="{right + 44}" y="{legend_y + 4:.3f}">{label}</text>')
        legend_y += 18

    x_label = "h_max" if x_mode == "hmax" else "mean cputime (s)"
    title = f"{table.problem}: RMSE vs {x_label}" if table.problem else f"RMSE vs {x_label}"
    out.append(f'<text x="{(left + right) / 2}" y="{bottom + 36}" text-anchor="middle">{x_label}</text>')
    out.append(
        f'<text x="16" y="{(top + bottom) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(top + bottom) / 2})">RMSE</text>'
    )
    out.append(f'<text x="{(left + right) / 2}" y="{top - 10}" text-anchor="middle">{title}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        with open(args.infile) as fh:
            table = read_table_csv(fh)
    except OSError as exc:
        return _fail(f"cannot read input: {exc}", 3)
    except ValueError as exc:
        return _fail(f"malformed CSV: {exc}", 4)

    svg = _render_svg(table, args.x)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 3)
    return 0


# -- listings -------------------------------------------------------------------


def cmd_list_problems(_args: argparse.Namespace) -> int:
    for name in PROBLEM_NAMES:
        print(f"{name:8s} {PROBLEM_BLURBS[name]}")
    return 0


def cmd_list_schemes(_args: argparse.Namespace) -> int:
    for name, (_, blurb) in CLI_SCHEMES.items():
        print(f"{name:18s} {blurb}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptsde",
        description="Adaptive and stabilized Euler-Maruyama SDE integration benchmarks.",
        epilog="Worker count for sweeps comes from ADAPTSDE_WORKERS (default: 1).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="integrate one sample path of a catalog problem")
    p_run.add_argument("--problem", required=True, help="problem name (see list-problems)")
    p_run.add_argument("--scheme", required=True, help="scheme name (see list-schemes)")
    p_run.add_argument(
        "--hmax", type=float, default=0.25,
        help="max adaptive step, or the uniform step for fixed-step schemes (default 0.25)",
    )
    p_run.add_argument("--rho", type=float, default=MeshConfig.rho, help="h_max/h_min ratio (default %(default)g)")
    p_run.add_argument(
        "--seed", type=int, default=ExperimentConfig.master_seed,
        help="path seed, that of sample 0 of a sweep with this master seed (default %(default)s)",
    )
    p_run.add_argument("--trajectory-out", help="write the trajectory CSV t,y_1,...,y_d here")
    p_run.add_argument("--stepsize-out", help="write the step-size CSV t,h here")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="Monte-Carlo strong-convergence sweep")
    p_conv.add_argument("--problem", help="problem name")
    p_conv.add_argument("--schemes", help="comma-separated scheme names (default: per-problem set)")
    p_conv.add_argument("--hmax-list", help="comma-separated h_max grid (default: per-problem grid)")
    p_conv.add_argument("--samples", type=int, help=f"Monte-Carlo sample count (default {ExperimentConfig.samples})")
    p_conv.add_argument("--seed", type=int, help=f"master seed (default {ExperimentConfig.master_seed})")
    p_conv.add_argument("--rho", type=float, help=f"h_max/h_min ratio (default {ExperimentConfig.rho:g})")
    p_conv.add_argument(
        "--refine", type=int,
        help="bridge refinement levels for the reference "
        f"(default {default_levels('gl')}; {default_levels('spde')} for spde)",
    )
    p_conv.add_argument("--out", help="CSV output path (default: stdout)")
    p_conv.add_argument("--config", help="key=value config file; flags override it")
    p_conv.set_defaults(func=cmd_convergence)

    p_plot = sub.add_parser("plot", help="render a convergence CSV as a log-log SVG")
    p_plot.add_argument("--in", dest="infile", required=True, help="convergence CSV path")
    p_plot.add_argument(
        "--x", choices=("hmax", "cputime"), default="hmax",
        help="x axis: hmax (convergence) or cputime (efficiency); default hmax",
    )
    p_plot.add_argument("--out", required=True, help="SVG output path")
    p_plot.set_defaults(func=cmd_plot)

    sub.add_parser("list-problems", help="list catalog problems").set_defaults(
        func=cmd_list_problems
    )
    sub.add_parser("list-schemes", help="list integration schemes").set_defaults(
        func=cmd_list_schemes
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
