"""End-to-end command-line tests, all in process through main(argv)."""

import math
import re

import pytest

from adaptsde import cli
from adaptsde.cli import main
from adaptsde.core import MeshConfig
from adaptsde.harness import CSV_HEADER, ConvergenceTable, ExperimentConfig, _worker_count
from adaptsde.problems import PROBLEM_NAMES


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("ADAPTSDE_WORKERS", "1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_summary_line(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--problem", "gl", "--scheme", "adaptive-si",
            "--hmax", "0.25", "--seed", "3",
        )
        assert code == 0 and err == ""
        line = out.strip()
        assert line.startswith("problem=gl scheme=adaptive-si hmax=0.25 rho=100.0 seed=3 ")
        m = re.search(r"steps=(\d+) mean_h=([\d.e-]+) backstops=(\d+) diverged=(\w+) terminal=\[(.+)\]", line)
        assert m, line
        assert int(m.group(1)) >= 4
        assert m.group(4) == "False"
        float(m.group(5))  # single component, parseable

    def test_run_is_deterministic(self, capsys):
        argv = ("run", "--problem", "svol", "--scheme", "balanced", "--hmax", "0.05")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_trajectory_and_stepsize_files(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        steps = tmp_path / "steps.csv"
        code, out, err = run_cli(
            capsys, "run", "--problem", "svol", "--scheme", "adaptive-si",
            "--hmax", "0.1", "--trajectory-out", str(traj), "--stepsize-out", str(steps),
        )
        assert code == 0
        n_steps = int(re.search(r"steps=(\d+)", out).group(1))
        tlines = traj.read_text().splitlines()
        slines = steps.read_text().splitlines()
        assert tlines[0] == "t,y_1,y_2"
        assert slines[0] == "t,h"
        assert len(tlines) == n_steps + 2  # header + initial point + every step
        assert len(slines) == n_steps + 1
        assert tlines[1].startswith("0.0,")
        # step-size rows tile [0, T): start times plus h values chain up
        t0, h0 = (float(v) for v in slines[1].split(","))
        t1 = float(slines[2].split(",")[0])
        assert t0 == 0.0 and t1 == pytest.approx(t0 + h0)
        # rerun writes byte-identical files
        traj2 = tmp_path / "traj2.csv"
        run_cli(
            capsys, "run", "--problem", "svol", "--scheme", "adaptive-si",
            "--hmax", "0.1", "--trajectory-out", str(traj2),
        )
        assert traj2.read_text() == traj.read_text()

    def test_truncated_run_works_on_gl_only(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--problem", "gl", "--scheme", "truncated", "--hmax", "0.05")
        assert code == 0 and "diverged=False" in out
        code, out, err = run_cli(capsys, "run", "--problem", "gbm", "--scheme", "truncated")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "truncated" in err and "growth envelope" in err and "Traceback" not in err

    def test_infinite_rho_is_rejected(self, capsys):
        # h_min = h_max / inf = 0 would switch the floor and its backstop off.
        code, out, err = run_cli(capsys, "run", "--problem", "spde", "--scheme", "adaptive-si", "--rho", "inf")
        assert code == 2 and out == "" and err.startswith("error: ") and "rho" in err
        assert "Traceback" not in err
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--rho", "inf", "--samples", "1", "--hmax-list", "0.25"
        )
        assert code == 2 and out == "" and err.startswith("error: ") and "rho" in err

    @pytest.mark.parametrize("rho", ["inf", "-3"])
    def test_bad_rho_is_rejected_by_a_fixed_step_run(self, capsys, rho):
        # A fixed-step solve does not use rho, but its summary line reports it.
        code, out, err = run_cli(capsys, "run", "--problem", "gl", "--scheme", "balanced", "--rho", rho)
        assert code == 2 and out == "" and err.startswith("error: ") and "rho" in err
        assert "Traceback" not in err

    def test_unknown_problem_and_scheme(self, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", "heat", "--scheme", "balanced")
        assert code == 2 and "unknown problem" in err
        code, _, err = run_cli(capsys, "run", "--problem", "gl", "--scheme", "rk4")
        assert code == 2 and "candidates" in err

    @pytest.mark.parametrize("hmax", ["0", "2", "-0.1", "nan"])
    def test_bad_fixed_step_is_rejected(self, capsys, hmax):
        code, out, err = run_cli(capsys, "run", "--problem", "gl", "--scheme", "balanced", "--hmax", hmax)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "step size" in err

    def test_negative_seed_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "run", "--problem", "gl", "--scheme", "adaptive-si", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "seed must be >= 0" in err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "traj.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", "gl", "--scheme", "balanced",
            "--trajectory-out", str(target),
        )
        assert code == 3 and "cannot write output" in err

    def test_rho_defaults_to_the_mesh_config_default(self, capsys, monkeypatch):
        seen = []
        real = cli.solve

        def recording(problem, scheme, path, **kwargs):
            seen.append(kwargs["config"].rho)
            return real(problem, scheme, path, **kwargs)

        monkeypatch.setattr(cli, "solve", recording)
        code, out, _ = run_cli(capsys, "run", "--problem", "gl", "--scheme", "adaptive-si")
        assert code == 0 and seen == [MeshConfig.rho]
        assert f" rho={MeshConfig.rho!r} " in out

    def test_adaptive_explicit_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--problem", "gl", "--scheme", "adaptive-explicit")
        assert code == 0 and "scheme=adaptive-explicit" in out


CONV_ARGS = (
    "convergence", "--problem", "gbm", "--schemes", "adaptive-si,balanced",
    "--hmax-list", "0.25,0.025", "--samples", "2", "--refine", "3", "--seed", "1",
)


def strip_cputime(csv_text: str) -> list[str]:
    rows = []
    for line in csv_text.splitlines():
        fields = line.split(",")
        if len(fields) == len(CSV_HEADER.split(",")) and fields[2] != "":
            fields[6] = ""
        rows.append(",".join(fields))
    return rows


class TestConvergenceCommand:
    def test_smoke_table_and_order_lines(self, capsys):
        code, out, err = run_cli(capsys, *CONV_ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        data = [l for l in lines[1:] if l.split(",")[2] != ""]
        summary = [l for l in lines[1:] if l.split(",")[2] == ""]
        assert len(data) == 4  # 2 schemes x 2 step sizes
        assert len(summary) == 2
        for line in data:
            f = line.split(",")
            assert f[0] == "gbm" and f[4] == "2"
            assert float(f[5]) > 0
        # slope commentary goes to stderr when the table uses stdout
        assert re.search(r"^adaptive-si: order -?\d+\.\d{3} \(R\^2 \d+\.\d{3}\)$", err, re.M)
        assert re.search(r"^balanced: order ", err, re.M)

    def test_worker_count_is_resolved_by_the_harness(self, capsys, monkeypatch):
        seen = []
        real = cli.run_experiment

        def recording(config, workers=None):
            seen.append(_worker_count(workers))
            return real(config, workers=1)

        monkeypatch.setattr(cli, "run_experiment", recording)
        monkeypatch.delenv("ADAPTSDE_WORKERS")
        assert run_cli(capsys, *CONV_ARGS)[0] == 0
        monkeypatch.setenv("ADAPTSDE_WORKERS", "3")
        assert run_cli(capsys, *CONV_ARGS)[0] == 0
        # unset, the sweep runs in one process, not one per core
        assert seen == [1, 3]

    def test_deterministic_apart_from_timing(self, capsys):
        _, out1, err1 = run_cli(capsys, *CONV_ARGS)
        _, out2, err2 = run_cli(capsys, *CONV_ARGS)
        assert strip_cputime(out1) == strip_cputime(out2)
        assert err1 == err2

    def test_out_file_moves_slopes_to_stdout(self, capsys, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, *CONV_ARGS, "--out", str(out_csv))
        assert code == 0 and err == ""
        assert "order" in out and CSV_HEADER not in out
        assert out_csv.read_text().splitlines()[0] == CSV_HEADER

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# gbm smoke sweep\n"
            "problem = gbm\n"
            "schemes = adaptive-si,balanced\n"
            "hmax-list = 0.25,0.025\n"
            "samples = 2\n"
            "refine = 3\n"
            "seed = 1\n"
        )
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 0
        assert all(l.split(",")[4] == "2" for l in out.splitlines()[1:])
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg), "--samples", "3")
        assert code == 0
        assert all(l.split(",")[4] == "3" for l in out.splitlines()[1:])

    def test_flags_match_config_results(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "problem = gbm\nschemes = adaptive-si,balanced\n"
            "hmax-list = 0.25,0.025\nsamples = 2\nrefine = 3\nseed = 1\n"
        )
        _, out_flags, _ = run_cli(capsys, *CONV_ARGS)
        _, out_cfg, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert strip_cputime(out_flags) == strip_cputime(out_cfg)

    def test_malformed_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = gbm\nsamples: 4\n")
        code, _, err = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 4 and ":2: expected key=value" in err

    def test_unknown_config_key_rejected(self, capsys, monkeypatch, tmp_path):
        # A misspelt key used to be dropped, and the sweep ran its default samples.
        seen = []

        def recording(config, workers=None):
            seen.append(config)
            return ConvergenceTable(problem="gbm", rho=config.rho, samples=config.samples, rows=[], slopes={})

        monkeypatch.setattr(cli, "run_experiment", recording)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("problem = gbm\nsampels = 2\n")
        code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 4 and out == "" and seen == []
        assert err == (
            f"error: {cfg}: unknown key 'sampels'; accepted keys: "
            "problem, out, schemes, hmax-list, samples, seed, rho, refine\n"
        )
        cfg.write_text("problem = gbm\nsamples = 2\n")
        assert run_cli(capsys, "convergence", "--config", str(cfg))[0] == 0
        assert seen == [ExperimentConfig(problem="gbm", samples=2)]

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "convergence", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3 and "cannot read config file" in err

    def test_problem_required(self, capsys):
        code, _, err = run_cli(capsys, "convergence", "--samples", "2")
        assert code == 2 and "problem name is required" in err

    def test_unknown_problem_rejected(self, capsys):
        code, out, err = run_cli(capsys, "convergence", "--problem", "nope", "--samples", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown problem 'nope'")
        assert "Traceback" not in err

    def test_bad_hmax_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--hmax-list", "2.0", "--samples", "2",
        )
        assert code == 2 and "h_max" in err

    def test_repeated_hmax_rejected(self, capsys):
        # Two rows of one h_max would print an "order" fitted through one h.
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--samples", "2",
            "--hmax-list", "0.25,0.25", "--schemes", "balanced",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: h_max_list repeats a value")
        assert "Traceback" not in err

    def test_repeated_scheme_rejected(self, capsys):
        # A repeated scheme used to run twice and print each of its rows twice.
        code, out, err = run_cli(capsys, "convergence", "--problem", "gbm", "--schemes", "balanced,balanced")
        assert code == 2 and out == ""
        assert err.startswith("error: schemes repeats a value") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_unset_fields_take_the_library_defaults(self, capsys, monkeypatch, name):
        seen = []

        def recording(config, workers=None):
            seen.append(config)
            return ConvergenceTable(problem=name, rho=config.rho, samples=config.samples, rows=[], slopes={})

        monkeypatch.setattr(cli, "run_experiment", recording)
        assert run_cli(capsys, "convergence", "--problem", name)[0] == 0
        assert seen == [ExperimentConfig(problem=name)]

    @pytest.mark.parametrize("refine", ["0", "-1"])
    def test_refine_below_one_rejected(self, capsys, tmp_path, refine):
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--samples", "2", "--refine", refine
        )
        assert code == 2 and out == "" and "refine must be >= 1" in err
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"problem = gbm\nsamples = 2\nrefine = {refine}\n")
        code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 2 and out == "" and "refine must be >= 1" in err


    @pytest.mark.parametrize("refine", ["40", "70"])
    def test_refine_too_deep_rejected(self, capsys, refine):
        # Refined 2**40 times, one step's reference would need 8 TiB.
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--samples", "1", "--hmax-list", "0.25",
            "--refine", refine,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: levels must be <= 26, got {refine}")
        assert "Traceback" not in err

    def test_negative_seed_rejected(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "convergence", "--problem", "gbm", "--samples", "2", "--seed", "-1")
        assert code == 2 and out == "" and "seed must be >= 0" in err
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("problem = gbm\nsamples = 2\nseed = -1\n")
        code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 2 and out == "" and "seed must be >= 0" in err

    def test_rho_below_one_rejected(self, capsys, tmp_path):
        # Rejected while the sweep is configured, not by a crash inside it.
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "gbm", "--rho", "0.5", "--samples", "1", "--hmax-list", "0.25"
        )
        assert code == 2 and out == "" and err.startswith("error: ") and "rho" in err
        assert "Traceback" not in err
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("problem = gbm\nsamples = 1\nhmax-list = 0.25\nrho = 0.5\n")
        code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith("error: ") and "rho" in err
        assert "Traceback" not in err

    # Only malformed values: a valid large count would start that many processes.
    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_malformed_worker_count_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ADAPTSDE_WORKERS", value)
        code, out, err = run_cli(capsys, *CONV_ARGS)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "ADAPTSDE_WORKERS" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_worker_count_below_one_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ADAPTSDE_WORKERS", value)
        code, out, err = run_cli(capsys, *CONV_ARGS)
        assert code == 2 and out == ""
        assert err == f"error: ADAPTSDE_WORKERS must be >= 1, got {value}\n"


SYNTH_CSV = (
    CSV_HEADER + "\n"
    "demo,balanced,0.25,100.0,4,0.025,1.0,0.2,0,0,0,\n"
    "demo,balanced,0.025,100.0,4,0.0025,10.0,0.02,0,0,0,\n"
    "demo,balanced,0.0025,100.0,4,0.00025,100.0,0.002,0,0,0,\n"
    "demo,balanced,,100.0,4,,,,,,,1.0\n"
)


def circle_points(svg: str, scheme: str) -> list[tuple[float, float]]:
    pat = rf'<circle class="pt s-{scheme}" cx="([-\d.]+)" cy="([-\d.]+)"'
    return [(float(a), float(b)) for a, b in re.findall(pat, svg)]


def guide_slope(svg: str, cls: str) -> float:
    m = re.search(
        rf'<path class="guide {cls}" d="M ([-\d.]+) ([-\d.]+) L ([-\d.]+) ([-\d.]+)"', svg
    )
    x0, y0, x1, y1 = (float(v) for v in m.groups())
    return (y1 - y0) / (x1 - x0)


class TestPlotCommand:
    def write_synth(self, tmp_path):
        p = tmp_path / "synth.csv"
        p.write_text(SYNTH_CSV)
        return p

    def test_first_order_data_parallels_slope_one_guide(self, capsys, tmp_path):
        svg_path = tmp_path / "plot.svg"
        code, _, err = run_cli(
            capsys, "plot", "--in", str(self.write_synth(tmp_path)), "--out", str(svg_path),
        )
        assert code == 0 and err == ""
        svg = svg_path.read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        pts = sorted(circle_points(svg, "balanced"))
        assert len(pts) == 3
        data_slope = (pts[-1][1] - pts[0][1]) / (pts[-1][0] - pts[0][0])
        assert data_slope == pytest.approx(guide_slope(svg, "slope-1"), rel=1e-3)
        # and the middle point sits on the same line
        expect_mid = pts[0][1] + data_slope * (pts[1][0] - pts[0][0])
        assert pts[1][1] == pytest.approx(expect_mid, abs=0.05)
        # legend carries the fitted slope
        assert "balanced (slope 1.00)" in svg

    def test_half_order_guide_has_half_the_pixel_slope(self, capsys, tmp_path):
        svg_path = tmp_path / "plot.svg"
        run_cli(capsys, "plot", "--in", str(self.write_synth(tmp_path)), "--out", str(svg_path))
        svg = svg_path.read_text()
        assert guide_slope(svg, "slope-05") == pytest.approx(
            0.5 * guide_slope(svg, "slope-1"), rel=1e-3
        )

    def test_efficiency_mode_uses_cputime_axis(self, capsys, tmp_path):
        svg_path = tmp_path / "eff.svg"
        code, _, _ = run_cli(
            capsys, "plot", "--in", str(self.write_synth(tmp_path)),
            "--x", "cputime", "--out", str(svg_path),
        )
        assert code == 0
        svg = svg_path.read_text()
        assert "mean cputime (s)" in svg
        pts = sorted(circle_points(svg, "balanced"))
        # cputime grows while rmse shrinks, so y (inverted) climbs with x
        assert pts[0][1] < pts[1][1] < pts[2][1]
        # convergence mode orients the other way
        svg2_path = tmp_path / "conv.svg"
        run_cli(capsys, "plot", "--in", str(self.write_synth(tmp_path)), "--out", str(svg2_path))
        pts2 = sorted(circle_points(svg2_path.read_text(), "balanced"))
        assert pts2[0][1] > pts2[1][1] > pts2[2][1]

    def test_empty_table_still_renders_axes(self, capsys, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER + "\ndemo,balanced,,100.0,4,,,,,,,\n")
        svg_path = tmp_path / "empty.svg"
        code, _, _ = run_cli(capsys, "plot", "--in", str(src), "--out", str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert '<circle class="pt' not in svg
        assert 'class="frame"' in svg
        assert svg.count('class="guide') == 2

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plot", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg"),
        )
        assert code == 3 and "cannot read input" in err

    def test_malformed_csv_is_code_4(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("h,rmse\n0.1,0.2\n")
        code, _, err = run_cli(capsys, "plot", "--in", str(src), "--out", str(tmp_path / "x.svg"))
        assert code == 4 and "malformed CSV" in err

    def test_round_trip_from_real_sweep(self, capsys, tmp_path):
        table = tmp_path / "gbm.csv"
        code, _, _ = run_cli(capsys, *CONV_ARGS, "--out", str(table))
        assert code == 0
        svg_path = tmp_path / "gbm.svg"
        code, _, err = run_cli(capsys, "plot", "--in", str(table), "--out", str(svg_path))
        assert code == 0 and err == ""
        svg = svg_path.read_text()
        assert len(circle_points(svg, "adaptive_semi_implicit")) == 2
        assert len(circle_points(svg, "balanced")) == 2


class TestListings:
    def test_list_problems(self, capsys):
        code, out, _ = run_cli(capsys, "list-problems")
        assert code == 0
        for name in ("gbm", "fhn05", "fhn01", "gl", "svol", "spde"):
            assert re.search(rf"^{name}\b", out, re.M)

    def test_list_schemes(self, capsys):
        code, out, _ = run_cli(capsys, "list-schemes")
        assert code == 0
        for name in (
            "adaptive-si", "adaptive-explicit", "drift-implicit", "balanced",
            "increment-tamed", "fully-tamed", "truncated", "explicit-euler",
        ):
            assert re.search(rf"^{name}\b", out, re.M)

    def test_no_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    # argparse %-formats help strings, some of which are built from library values.
    @pytest.mark.parametrize("subcommand", [(), ("run",), ("convergence",), ("plot",), ("list-problems",), ("list-schemes",)])
    def test_help_exits_zero(self, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            main([*subcommand, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adaptsde")
