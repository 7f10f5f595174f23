import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import polyheat
from polyheat.basis import OrthonormalBasis
from polyheat.cli import main
from polyheat.config import SETTINGS, RunConfig, default_config, load_config


def write_config(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this polyheat."""
    src = str(Path(polyheat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


INTERVAL_INI = """
[domain]
kind = interval
alpha = -0.5
beta = -0.5

[basis]
max_degree = 24

[grids]
points = 8
times = 0.05, 0.2
radii = 0.1, 0.4

[run]
seed = 7
output = {out}
"""


class TestConfig:
    def test_show_roundtrip(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "config", "show"]) == 0
        text = capsys.readouterr().out
        assert "kind = interval" in text
        assert "max_degree = 24" in text
        reparsed = write_config(tmp_path, text)
        cfg = load_config(reparsed)
        assert cfg.max_degree == 24
        assert cfg.seed == 7

    @pytest.mark.parametrize("body", [
        # every key away from its default, t_min included
        "[domain]\nkind = simplex\nn = 2\nkappa = 0.1, 0.2, 0.3\n[basis]\nmax_degree = 7\n"
        "[kernel]\nt_min = 0.003\n[grids]\npoints = 3\ntimes = 0.1 0.5\nradii = 0.2\n"
        "epsilons = 0.3, 0.04\ndeltas = 0.07\n[mc]\nsamples = 999\n"
        "[run]\nseed = 5\noutput = some/where\n",
        INTERVAL_INI.format(out="reports/interval"),
    ], ids=["simplex_every_key", "interval_no_t_min"])
    def test_show_output_loads_to_the_same_config(self, tmp_path, capsys, body):
        cfg = load_config(write_config(tmp_path, body))
        if cfg.spec.kind == "simplex":
            default = default_config()
            assert all(getattr(cfg, f.name) != getattr(default, f.name)
                       for f in fields(RunConfig))
        else:
            assert cfg.t_min is None
        assert main(["--config", str(tmp_path / "run.ini"), "config", "show"]) == 0
        text = capsys.readouterr().out
        assert ("[kernel]" in text) == (cfg.t_min is not None)
        assert load_config(write_config(tmp_path, text)) == cfg

    def test_settings_name_every_field_once(self):
        named = sorted(field for _, _, field, _ in SETTINGS)
        assert named == sorted(f.name for f in fields(RunConfig) if f.name != "spec")

    def test_defaults(self):
        cfg = default_config()
        assert cfg.spec.kind == "interval"
        # the tail target is heat.DEFAULT_EPSILON, not a config key
        assert cfg.to_json_obj()["kernel"] == {"t_min": None}

    @pytest.mark.parametrize("body, named", [
        ("[mc]\nsamples = abc\n", "[mc] samples"),
        ("[domain]\nkind = simplex\nkappa = 0.5, x, 0.5\n", "[domain] kappa"),
        ("[basis]\nmax_degre = 12\n", "[basis] max_degre"),
        ("[basis]\nmax_degree = 12\n[montecarlo]\nsamples = 10\n", "[montecarlo]"),
        ("[domain]\nkind = ball\nn = 2\n[mc]\nsamples = 0\n", "[mc] samples = 0 is below 1"),
        ("[grids]\ntimes = 0.2, x\n", "[grids] times = '0.2, x' is not a list of numbers"),
        # numpy's default_rng takes no negative seed
        ("[run]\nseed = -1\n", "[run] seed = -1 is below 0"),
        ("[grids]\npoints = -3\n", "[grids] points = -3 is below 1"),
        ("[grids]\npoints = 0\n", "[grids] points = 0 is below 1"),
        # the gauss suite holds points x points arrays
        ("[grids]\npoints = 1025\n", "[grids] points = 1025 is above 1024"),
        ("[grids]\ntimes = 0.2, nan\n", "[grids] times = nan is not a finite positive number"),
        ("[grids]\nradii = -0.1\n", "[grids] radii = -0.1 is not a finite positive number"),
        ("[grids]\nepsilons = 0\n", "[grids] epsilons = 0 is not a finite positive number"),
        ("[run]\nthreads = 1\n", "[run] threads"),
        ("[basis]\nprecision = double\n", "[basis] precision"),
        ("[kernel]\nepsilon = 1e-10\n", "[kernel] epsilon"),
        # validate would write its report nowhere
        ("[run]\noutput =\n", "[run] output is empty"),
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, body, named):
        cfgfile = write_config(tmp_path, body)
        assert main(["--config", cfgfile, "validate", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and err.count("\n") == 1 and named in err
        assert main(["--config", cfgfile, "config", "show"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("domain", ["kind = ball\nn = 2\ngamma = nan",
                                        "kind = interval\nalpha = inf\nbeta = 0",
                                        "kind = simplex\nn = 2\nkappa = 0.5, -inf, 0.5"])
    def test_non_finite_domain_parameter_is_one_line_error(self, tmp_path, capsys, domain):
        cfgfile = write_config(tmp_path, f"[domain]\n{domain}\n[basis]\nmax_degree = 6\n")
        for command in (["validate", "basis", "--out", str(tmp_path / "r")], ["config", "show"]):
            assert main(["--config", cfgfile] + command) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert "parameters must be finite numbers, got " in err
        assert not (tmp_path / "r").exists()

    def test_invalid_domain_cites_range(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\ngamma = -0.6\n")
        code = main(["--config", cfgfile, "validate", "all"])
        assert code == 2
        assert "gamma > -1/2" in capsys.readouterr().err


class TestGeom:
    def test_dist_csv(self, capsys):
        assert main(["geom", "dist", "--x", "0.3", "--y", "0.5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,y,value,stderr"
        val = float(out[1].split(",")[-2])
        assert val == pytest.approx(abs(np.arccos(0.3) - np.arccos(0.5)), rel=1e-12)

    @pytest.mark.parametrize("query", [["dist", "--x", "2,0", "--y", "0,0"],
                                       ["metric", "--x", "1,0"],
                                       ["dist", "--x", "abc", "--y", "0.1"],
                                       ["volume", "--x", "0.1,zz", "--r", "0.3"]])
    def test_bad_point_is_one_line_error(self, tmp_path, capsys, query):
        cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n")
        assert main(["--config", cfgfile, "geom"] + query) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    def test_volume_without_samples_is_one_line_error(self, tmp_path, capsys):
        # Monte Carlo volumes are those of dimension 3
        for kind in ("ball\nn = 3\ngamma = 0.5", "simplex\nn = 3"):
            cfgfile = write_config(tmp_path,
                                   f"[domain]\nkind = {kind}\n[mc]\nsamples = 20000\n")
            # --samples 0 is a sample count too, not a fall back to [mc] samples
            for samples in ("0", "-3"):
                assert main(["--config", cfgfile, "geom", "volume", "--x", "0.1,0.1,0.1",
                             "--r", "0.3", "--samples", samples]) == 2
                out, err = capsys.readouterr()
                assert err == f"error: Monte Carlo needs at least 1 sample, got {samples}\n"
                assert out == ""

    def test_volume_deterministic(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n[run]\nseed = 3\n")
        main(["--config", cfgfile, "geom", "volume", "--x", "0.1,0.1", "--r", "0.4",
              "--samples", "50000"])
        first = capsys.readouterr().out
        main(["--config", cfgfile, "geom", "volume", "--x", "0.1,0.1", "--r", "0.4",
              "--samples", "50000"])
        assert capsys.readouterr().out == first


    def test_malformed_point_without_config(self, capsys):
        assert main(["geom", "dist", "--x", "abc", "--y", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert err == ("error: malformed point 'abc': expected numbers separated "
                       "by commas or spaces\n")
        assert out == ""


class TestBasisCommands:
    def test_build_out_loads_back(self, tmp_path, capsys):
        from polyheat.basis import basis_from_json_obj

        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        out = tmp_path / "basis.json"
        assert main(["--config", cfgfile, "basis", "build", "--max-degree", "12",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
        obj = json.loads(out.read_text())
        assert obj["schema_version"] == 6
        loaded = basis_from_json_obj(obj)
        assert loaded.spec.kind == "interval" and loaded.max_degree == 12

    @pytest.mark.parametrize("domain", ["kind = interval\nalpha = -0.5\nbeta = -0.5",
                                        "kind = simplex\nn = 2\nkappa = 0.5, 1.5, 0.5"])
    def test_verify_passes(self, tmp_path, capsys, domain):
        cfgfile = write_config(tmp_path, f"[domain]\n{domain}\n")
        assert main(["--config", cfgfile, "basis", "verify", "--max-degree", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "level,eigen_residual" and len(lines) == 2 + 11 + 1
        assert lines[-1].startswith("# max residual ") and lines[-1].endswith("-> PASS")


@pytest.mark.parametrize("command, err", [
    (["basis", "build", "--max-degree", "-1"], "--max-degree -1 is below 0"),
    (["basis", "verify", "--max-degree", "-3"], "--max-degree -3 is below 0"),
    (["kernel", "eval", "--t", "0.5", "--grid", "0"], "--grid 0 is below 1"),
    (["kernel", "multiplier", "--family", "heat_exp", "--delta", "0.3", "--grid", "-2"],
     "--grid -2 is below 1"),
    (["kernel", "export", "--t-list", "0.5", "--resolution", "0"], "--resolution 0 is below 1"),
], ids=["build", "verify", "eval", "multiplier", "export"])
def test_integer_flag_below_least_is_one_line_error(tmp_path, capsys, monkeypatch, command, err):
    # the message names the user's flag, not a cap or an internal argument
    monkeypatch.chdir(tmp_path)
    cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
    assert main(["--config", cfgfile] + command) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


@pytest.mark.parametrize("command, cells", [
    (["kernel", "eval", "--t", "0.5", "--grid", "100000"], "1 kernel grid(s) of 100000 x 100000"),
    (["kernel", "multiplier", "--family", "heat_exp", "--delta", "0.3", "--grid", "1025"],
     "1 kernel grid(s) of 1025 x 1025"),
    (["kernel", "export", "--t-list", "0.2,0.5,1", "--resolution", "600"],
     "3 kernel grid(s) of 600 x 600"),
], ids=["eval", "multiplier", "export"])
def test_grid_over_budget_is_refused_before_any_allocation(tmp_path, capsys, monkeypatch,
                                                           command, cells):
    monkeypatch.chdir(tmp_path)
    cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
    tracemalloc.start()
    try:
        assert main(["--config", cfgfile] + command) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {cells} points exceed the budget of ")
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


INTERVAL_520 = "[domain]\nkind = interval\nalpha = 520\nbeta = 0\n[basis]\nmax_degree = 30\n"
HUGE_SAMPLE = "100000000000 Monte Carlo samples on ball(n=3, gamma=0.5) take 3200000000000 bytes"


# (config, command, exit code, the message): a weighted mass, a sinc_power
# tail factor or a lifted Monte Carlo sample beyond what a double or the
# byte budget holds.  Outside validate, and where validate cannot start, the
# refusal is one stderr line; validate all writes it into the report of the
# suites that hit it.
@pytest.mark.parametrize("body, command, code, message", [
    (INTERVAL_520, ["geom", "volume", "--x", "0.1", "--r", "0.3"], 2,
     "error: the weighted mass of the Jacobi weight (1 - x)^0 (1 + x)^1041 is e^715.31,"),
    ("[domain]\nkind = interval\nalpha = 1040\nbeta = 0\n", ["validate", "basis"], 2,
     "cannot build the evaluator: the weighted mass of the Jacobi weight (1 - x)^1040 "),
    ("[domain]\nkind = ball\nn = 2\ngamma = 2000\n", ["validate", "basis"], 2,
     "cannot build the evaluator: the weighted mass of the Jacobi weight (1 - x)^1999.5 "),
    ("[domain]\nkind = interval\n",
     ["kernel", "multiplier", "--family", "sinc_power", "--delta", "0.1", "--band", "1e-300"], 2,
     "error: the sinc_power tail factor of order 4, band 1e-300 and delta 0.1 at the cap 20 "),
    ("[domain]\nkind = ball\nn = 3\n",
     ["geom", "volume", "--x", "0,0,0", "--r", "0.5", "--samples", "100000000000"], 2,
     f"error: {HUGE_SAMPLE}"),
    ("[domain]\nkind = ball\nn = 3\n[mc]\nsamples = 100000000000\n", ["validate", "doubling"], 2,
     f"invalid config: {HUGE_SAMPLE}"),
    (INTERVAL_520, ["validate", "all"], 1,
     "the weighted mass of the Jacobi weight (1 - x)^0 (1 + x)^1041 is e^715.31,"),
], ids=["mass-volume", "mass-interval-basis", "mass-ball-basis", "sinc-tail",
        "samples-flag", "samples-config", "mass-validate-all"])
def test_refusal_past_a_double_or_the_sample_budget_is_one_line(tmp_path, capsys, body, command,
                                                               code, message):
    cfgfile = write_config(tmp_path, body)
    out_dir = tmp_path / "out"
    extra = ["--out", str(out_dir)] if command[0] == "validate" else []
    assert main(["--config", cfgfile] + command + extra) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    report = out_dir / f"validate_{command[-1]}.json"
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith(message)
        assert not report.exists()
    else:
        # the volume suites hit the arc rule's Gauss-Jacobi(0, 2 alpha + 1)
        assert err == ""
        suites = json.loads(report.read_text())["suites"]
        hit = {name for name, entry in suites.items() if "error" in entry["results"]}
        assert hit == {"gauss", "doubling", "localize"}
        for name in hit:
            assert suites[name]["pass"] is False
            assert suites[name]["results"]["error"].startswith(message)


@pytest.mark.parametrize("command, err", [
    (["basis", "build"], "error: [basis] max_degree = -2 is below 0\n"),
    (["validate", "ops"], "invalid config: [basis] max_degree = -2 is below 0\n")])
def test_negative_max_degree_in_config_is_one_line_error(tmp_path, capsys, command, err):
    cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\n[basis]\nmax_degree = -2\n")
    assert main(["--config", cfgfile] + command + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out").exists()


class TestGeomRows:
    def rows(self, tmp_path, capsys, query):
        cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n")
        assert main(["--config", cfgfile, "geom"] + query) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,y,value,stderr"
        return list(csv.reader(out[1:]))

    def test_lift(self, tmp_path, capsys):
        (row,) = self.rows(tmp_path, capsys, ["lift", "--x", "0.6,0"])
        assert row[0] == "[0.6, 0.0]" and row[2:] == ["0", "0"]
        assert json.loads(row[1]) == pytest.approx([0.6, 0.0, 0.8], abs=1e-15)

    def test_metric(self, tmp_path, capsys):
        g, ginv = self.rows(tmp_path, capsys, ["metric", "--x", "0.6,0"])
        assert g[1].startswith("g=") and ginv[1].startswith("ginv=")
        np.testing.assert_allclose(json.loads(g[1][2:]), [[1.5625, 0.0], [0.0, 1.0]], atol=1e-14)
        assert float(g[2]) == pytest.approx(1.5625, rel=1e-12)
        np.testing.assert_allclose(json.loads(ginv[1][5:]), [[0.64, 0.0], [0.0, 1.0]], atol=1e-15)


class TestKernelExport:
    def test_export_symmetric_and_mass(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        out = tmp_path / "grid.csv"
        assert main(["--config", cfgfile, "kernel", "export", "--t-list", "1.0",
                     "--resolution", "16", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "i,j,t,value,tail_bound"
        vals = {}
        for ln in lines[1:]:
            i, j, t, v, b = ln.split(",")
            vals[(int(i), int(j))] = float(v)
        n = 16
        for i in range(n):
            for j in range(n):
                assert abs(vals[(i, j)] - vals[(j, i)]) <= 1e-13
        # row sums against the quadrature weights reproduce unit mass
        from polyheat.domains import DomainSpec
        from polyheat.quadrature import build_quadrature

        rule = build_quadrature(DomainSpec.interval(-0.5, -0.5), 2 * 16 - 2)
        for i in range(n):
            row_mass = sum(vals[(i, j)] * rule.weights[j] for j in range(n))
            assert row_mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("body", [
        INTERVAL_INI,
        "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n[basis]\nmax_degree = 10\n[run]\noutput = {out}\n",
    ], ids=["interval", "ball2"])
    def test_t_list_sweeps_the_basis_once(self, tmp_path, capsys, monkeypatch, body):
        cfgfile = write_config(tmp_path, body.format(out=tmp_path))
        ts = (0.3, 0.6, 1.0)
        out = tmp_path / "grid.csv"
        sweeps = []
        values, build = OrthonormalBasis._values, polyheat.cli._evaluator

        def counted(self, *args, **kwargs):
            sweeps.append(len(args[0]))
            return values(self, *args, **kwargs)

        def built(cfg):
            ev = build(cfg)
            sweeps.clear()  # the build's own sweeps at its nodes
            return ev

        monkeypatch.setattr(OrthonormalBasis, "_values", counted)
        monkeypatch.setattr(polyheat.cli, "_evaluator", built)
        assert main(["--config", cfgfile, "kernel", "export", "--t-list", "0.3, 0.6, 1",
                     "--resolution", "9", "--out", str(out)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        cfg = load_config(cfgfile)
        pts, _ = polyheat.cli._kernel_grid_points(cfg, 9)
        assert sweeps == [len(pts)]
        # every time's rows are those of a grid on the raw points
        ev = polyheat.cli._evaluator(cfg)
        grid = ev.point_set(pts)
        labels = [str(i) for i in range(len(pts))]
        rows = []
        for t in ts:
            vals, tails = ev.heat_kernel_grid(t, pts, pts)
            assert all(np.array_equal(a, b) for a, b in
                       zip(ev.heat_kernel_grid(t, grid, grid), (vals, tails)))
            rows += polyheat.cli._grid_rows(labels, t, vals, tails)
        assert out.read_text() == "\n".join(["i,j,t,value,tail_bound"] + rows) + "\n"

    @pytest.mark.parametrize("command", [
        ["eval", "--t", "nan"], ["eval", "--t", "inf"],
        ["multiplier", "--family", "sinc_power", "--delta", "nan"],
        ["multiplier", "--family", "sinc_power", "--band", "nan", "--delta", "0.1"],
        ["multiplier", "--family", "sinc_power", "--band", "inf", "--delta", "0.1"],
        ["multiplier", "--family", "smooth_bump", "--support", "nan", "--delta", "0.1"],
        ["export", "--t-list", "0.5,nan"]])
    def test_non_finite_parameter_is_one_line_error(self, tmp_path, capsys, command):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "kernel"] + command + ["--out", str(tmp_path / "k.csv")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert out == "" and not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize("t_list, err", [
        ("abc", "error: malformed --t-list 'abc': expected numbers separated by commas "
                "or spaces\n"),
        (",", "error: malformed --t-list ',': expected numbers separated by commas or "
              "spaces\n")])
    def test_bad_t_list_is_one_line_error(self, tmp_path, capsys, monkeypatch, t_list, err):
        # no file is written, not even the default kernel_grid.csv
        monkeypatch.chdir(tmp_path)
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        for out in ([], ["--out", str(tmp_path / "k.csv")]):
            assert main(["--config", cfgfile, "kernel", "export", "--t-list", t_list,
                         "--resolution", "4"] + out) == 2
            assert capsys.readouterr() == ("", err)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_eval_csv(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "kernel", "eval", "--t", "0.5",
                     "--grid", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,y,t,value,tail_bound"
        assert len(out) == 1 + 16


PIN_INI = "[domain]\nkind = interval\nalpha = -0.5\nbeta = -0.5\n[basis]\nmax_degree = 24\n"
# the two Gauss-Chebyshev nodes, +-float(sqrt(1/2))
PIN_POINTS = ['"[-0.7071067811865476]"', '"[0.7071067811865476]"']


def pinned_rows(param, values, tail, labels=PIN_POINTS):
    """Rows of a 2 x 2 kernel CSV: (diagonal, off-diagonal) values, one tail."""
    return "".join(f"{a},{b},{param},{values[i != j]},{tail}\n"
                   for i, a in enumerate(labels) for j, b in enumerate(labels))


class TestKernelCsvBytes:
    def test_eval_multiplier_and_export_bytes(self, tmp_path, capsys):
        # the heat tails bound the levels that the product leaves out (past
        # L = 12 at t = 0.5 and L = 8 at t = 1); heat_exp at delta = 0.3
        # reads every level up to the cap 24, so its tail is the post-cap one
        cfgfile = write_config(tmp_path, PIN_INI)
        assert main(["--config", cfgfile, "kernel", "eval", "--t", "0.5", "--grid", "2"]) == 0
        heat = ("0.515125443247", "0.121921453404")
        assert capsys.readouterr().out == "x,y,t,value,tail_bound\n" + pinned_rows(
            "0.5", heat, "6.38214117184e-38")

        out = tmp_path / "mult.csv"
        assert main(["--config", cfgfile, "kernel", "multiplier", "--family", "heat_exp",
                     "--delta", "0.3", "--grid", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == "x,y,delta,value,tail_bound\n" + pinned_rows(
            "0.3", ("0.941308325979", "0.000992353402096"), "4.7990666773e-25")

        out = tmp_path / "grid.csv"
        assert main(["--config", cfgfile, "kernel", "export", "--t-list", "0.5,1.0",
                     "--resolution", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out}\n# last-t row-mass range [1.000000225, 1.000000225]\n")
        assert out.read_text() == "i,j,t,value,tail_bound\n" + pinned_rows(
            "0.5", heat, "6.38214117184e-38", ["0", "1"]) + pinned_rows(
            "1", ("0.43544890344", "0.201171012212"), "2.1134748937e-36", ["0", "1"])


@pytest.mark.parametrize("command", [
    ["basis", "build", "--max-degree", "4"],
    ["kernel", "eval", "--t", "0.5", "--grid", "2"],
    ["kernel", "multiplier", "--family", "heat_exp", "--delta", "0.3", "--grid", "2"],
    ["kernel", "export", "--t-list", "0.5", "--resolution", "2"],
    ["validate", "ops"],
], ids=["basis-build", "kernel-eval", "kernel-multiplier", "kernel-export", "validate"])
def test_empty_out_is_one_line_error(tmp_path, capsys, monkeypatch, command):
    # an empty --out names no file: it falls back neither to the default
    # file nor to [run] output, and nothing is written
    monkeypatch.chdir(tmp_path)
    cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path / "reports"))
    for out in ("", "  "):
        assert main(["--config", cfgfile] + command + ["--out", out]) == 2
        assert capsys.readouterr() == (
            "", "error: --out is empty; name the file or directory to write\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


@pytest.mark.parametrize("command, out, path", [
    (["validate", "basis"], "file", "file/validate_basis.json"),
    (["validate", "basis"], None, "file/validate_basis.json"),
    (["basis", "build", "--max-degree", "4"], "dir", "dir"),
    (["kernel", "eval", "--t", "2", "--grid", "2"], "dir", "dir"),
    (["kernel", "export", "--t-list", "2", "--resolution", "2"], "file/x.csv", "file/x.csv"),
], ids=["validate-out-file", "validate-run-output-file", "basis-build-dir", "kernel-eval-dir",
        "kernel-export-under-file"])
def test_unwritable_out_is_one_line_error(tmp_path, capsys, monkeypatch, command, out, path):
    # a path that cannot be written is a bad parameter (exit 2), not a
    # failing verdict (exit 1) or a traceback; None writes to [run] output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    cfgfile = write_config(tmp_path, (
        "[domain]\nkind = interval\n[basis]\nmax_degree = 10\n[run]\noutput = file\n"))
    flags = [] if out is None else ["--out", out]
    assert main(["--config", cfgfile] + command + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path!r}: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n" and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("suite", ["basis", "all"])
def test_validate_refuses_its_report_path_before_any_suite(tmp_path, capsys, monkeypatch, suite):
    # a report path under a file is refused before the first suite runs:
    # no suite line, no evaluator, nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    monkeypatch.setattr("polyheat.cli._evaluator", None)
    cfgfile = write_config(tmp_path, "[domain]\nkind = interval\n[basis]\nmax_degree = 10\n")
    assert main(["--config", cfgfile, "validate", suite, "--out", "file"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cannot write 'file/validate_{suite}.json': ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.ini"]
    assert (tmp_path / "file").read_text() == "kept\n"


class TestValidate:
    def test_ops_suite_report(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "validate", "ops"]) == 0
        report = json.loads((tmp_path / "validate_ops.json").read_text())
        assert report["schema_version"] == 6
        assert report["pass"] is True
        assert report["config"]["domain"]["kind"] == "interval"
        assert report["suites"]["ops"]["results"]["max"] <= 1e-9

    def test_report_embeds_config_and_is_deterministic(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        main(["--config", cfgfile, "validate", "basis"])
        first = (tmp_path / "validate_basis.json").read_bytes()
        # one line of JSON
        assert first.count(b"\n") == 1 and first.endswith(b"\n")
        main(["--config", cfgfile, "validate", "basis"])
        assert (tmp_path / "validate_basis.json").read_bytes() == first

    def test_validate_all_does_not_depend_on_earlier_runs(self, tmp_path, capsys):
        # the Monte Carlo sample, monomial frame and Gauss-Jacobi caches of a
        # simplex run in between leave the ball report unchanged
        common = ("[basis]\nmax_degree = 12\n[grids]\ndeltas = 0.2\n[mc]\nsamples = 20000\n"
                  f"[run]\noutput = {tmp_path}\n")
        ball, simplex = tmp_path / "ball.ini", tmp_path / "simplex.ini"
        ball.write_text("[domain]\nkind = ball\nn = 2\ngamma = 0.5\n" + common)
        simplex.write_text("[domain]\nkind = simplex\nn = 2\nkappa = 0.5, 0.5, 0.5\n" + common)
        for i, cfg in enumerate((ball, simplex, ball)):
            main(["--config", str(cfg), "validate", "all", "--out", str(tmp_path / str(i))])
        first, last = ((tmp_path / i / "validate_all.json").read_bytes() for i in "02")
        assert first == last

    @pytest.mark.parametrize("suite", ["gauss", "localize"])
    def test_imprecise_monte_carlo_volumes_are_refused(self, tmp_path, capsys, suite):
        # 100 samples leave ball(3) volumes with 20-100 % stderr; the suites
        # take volumes within the doubling gate of 5 % only
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = ball\nn = 3\ngamma = 0.5\n[basis]\nmax_degree = 10\n"
            "[grids]\npoints = 10\ntimes = 0.2, 1.0\ndeltas = 0.2\n[mc]\nsamples = 100\n"
            f"[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", suite]) == 1
        entry = json.loads((tmp_path / f"validate_{suite}.json").read_text())["suites"][suite]
        assert entry["pass"] is False
        assert "exceeds 5% of V" in entry["results"]["error"]

    @pytest.mark.parametrize("a, K, deltas, suite, need", [
        (0, 10, "1e-12", "localize", 2 * 10 ** 12),
        (0, 10, "1e-12", "fsp", 10 ** 13),
        (-0.9, 200, "0.05, 0.1", "fsp", 201),
    ])
    def test_band_beyond_every_cap_is_a_one_line_capacity_result(self, tmp_path, capsys,
                                                                  a, K, deltas, suite, need):
        # sqrt(lambda_K) >= 2 / delta (localize) or 10 / delta (fsp): the
        # degree comes from the root of K (K + c) = lambda, not a K-by-K walk
        cfgfile = write_config(tmp_path, (
            f"[domain]\nkind = interval\nalpha = {a}\nbeta = {a}\n[basis]\nmax_degree = {K}\n"
            f"[grids]\ndeltas = {deltas}\n[run]\noutput = {tmp_path}\n"))
        start = time.perf_counter()
        assert main(["--config", cfgfile, "validate", suite]) == 1
        assert time.perf_counter() - start < 1.0
        entry = json.loads((tmp_path / f"validate_{suite}.json").read_text())["suites"][suite]
        assert entry == {"pass": False, "results": {"error": (
            f"max_degree {need} exceeds the cap 200 for interval(alpha={a}, beta={a}); "
            "lower the degree")}}

    @pytest.mark.parametrize("deltas, suite, need", [
        # past 2^53 floats tell no degree from the next; a walk over them
        # by eigenvalue would not end
        ("1e-25", "localize", 2 / 1e-25),
        # lambda = (2 / delta)^2 overflows
        ("1e-200", "localize", 2e200),
        ("1e-200", "fsp", 1e201),
    ])
    def test_band_past_float_degrees_is_the_same_capacity_result(self, tmp_path, capsys,
                                                                 deltas, suite, need):
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = interval\nalpha = 0\nbeta = 0\n[basis]\nmax_degree = 10\n"
            f"[grids]\ndeltas = {deltas}\n[run]\noutput = {tmp_path}\n"))
        start = time.perf_counter()
        assert main(["--config", cfgfile, "validate", suite]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out.startswith(f"{suite:<16} FAIL\n") and err == ""
        entry = json.loads((tmp_path / f"validate_{suite}.json").read_text())["suites"][suite]
        assert entry == {"pass": False, "results": {"error": (
            f"max_degree {need} exceeds the cap 200 for interval(alpha=0, beta=0); "
            "lower the degree")}}

    @pytest.mark.parametrize("deltas, bad", [
        ("0", "0"), ("-0.1", "-0.1"), ("nan", "nan"), ("inf", "inf"), ("0.1, 0", "0")])
    def test_bad_deltas_are_one_line_errors(self, tmp_path, capsys, deltas, bad):
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = interval\nalpha = 0\nbeta = 0\n[basis]\nmax_degree = 10\n"
            f"[grids]\ndeltas = {deltas}\n"))
        why = f"[grids] deltas = {bad} is not a finite positive number\n"
        for command, prefix in ((["validate", "localize", "--out", str(tmp_path / "r")],
                                 "invalid config: "), (["config", "show"], "error: ")):
            assert main(["--config", cfgfile] + command) == 2
            assert capsys.readouterr() == ("", prefix + why)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("domain, radii, why", [
        ("kind = ball\nn = 2\ngamma = 0.5", "2", "no doubling radius lies in (0, pi/2]"),
        ("kind = simplex\nn = 2\nkappa = 0.5, 0.5, 0.5", "1.2",
         "no doubling radius lies in the surrogate's range r <= 1"),
    ], ids=["ball-no-radius", "simplex-no-comparability-row"])
    def test_doubling_that_checks_nothing_fails(self, tmp_path, capsys, domain, radii, why):
        cfgfile = write_config(tmp_path, (
            f"[domain]\n{domain}\n[basis]\nmax_degree = 6\n[grids]\nradii = {radii}\n"
            f"[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", "doubling"]) == 1
        assert capsys.readouterr().out.startswith("doubling         FAIL\n")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        # strict JSON: no Infinity or NaN reaches the report
        report = json.loads((tmp_path / "validate_doubling.json").read_text(),
                            parse_constant=refuse)
        assert report["suites"]["doubling"] == {"pass": False, "results": {"error": why}}

    def test_zero_monte_carlo_volume_fails_doubling_in_one_line(self, tmp_path, capsys):
        # 20000 samples miss a ball of radius 0.001 (V about 4e-9), which
        # reads V = 0 with stderr 0; the doubling ratio would divide by it
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = ball\nn = 3\ngamma = 0.5\n[basis]\nmax_degree = 6\n"
            "[grids]\npoints = 1\nradii = 0.001\n[mc]\nsamples = 20000\n"
            f"[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", "doubling"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("doubling         FAIL\n") and err == ""
        entry = json.loads((tmp_path / "validate_doubling.json").read_text())["suites"]["doubling"]
        error = entry["results"]["error"]
        assert entry["pass"] is False and "\n" not in error
        assert error.startswith("volume V=0 is not positive at x=(")
        assert error.endswith(", r=0.001; raise the sample budget")

    def test_suite_domain_error_fails_that_suite_only(self, tmp_path, capsys):
        # one grid point leaves the Gaussian scan without an admissible pair
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n[basis]\nmax_degree = 12\n"
            "[grids]\npoints = 1\ndeltas = 0.5, 0.4\n[mc]\nsamples = 100000\n"
            f"[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", "all"]) == 1
        report = json.loads((tmp_path / "validate_all.json").read_text())
        gauss = report["suites"]["gauss"]
        assert gauss["pass"] is False and "no admissible" in gauss["results"]["error"]
        assert report["suites"]["ops"]["pass"] is True
        assert report["pass"] is False
        assert "gauss            FAIL" in capsys.readouterr().out

    def test_interval_validate_all_evaluates_each_point_set_once(self, tmp_path, capsys,
                                                                  monkeypatch):
        calls = []
        values = OrthonormalBasis._values

        def counted(basis, pts, last=None):
            if pts is not basis.quad.nodes:
                calls.append(len(pts))
            return values(basis, pts, last)

        monkeypatch.setattr(OrthonormalBasis, "_values", counted)
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = interval\nalpha = -0.5\nbeta = -0.5\n"
            f"[basis]\nmax_degree = 200\n[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", "all"]) == 0
        assert len(calls) <= 20

    def test_interval_validate_all_builds_two_bases(self, tmp_path, capsys, monkeypatch):
        # the evaluator's basis and the simplex(1) one of correspondence,
        # which reads the interval basis through its degree instead of
        # building it again
        built = []
        init = OrthonormalBasis.__init__

        def counted(basis, spec, max_degree, quad):
            built.append((spec.label(), max_degree))
            init(basis, spec, max_degree, quad)

        monkeypatch.setattr(OrthonormalBasis, "__init__", counted)
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = interval\nalpha = 1.5\nbeta = -0.5\n"
            f"[basis]\nmax_degree = 200\n[run]\noutput = {tmp_path}\n"))
        main(["--config", cfgfile, "validate", "all"])
        assert built == [("interval(alpha=1.5, beta=-0.5)", 200),
                         ("simplex(n=1, kappa=(0.0, 2.0))", 30)]

    @pytest.mark.parametrize("suite", ["green", "chart", "flux"])
    def test_array_suites_apply_no_multipoly_operator(self, tmp_path, capsys, monkeypatch,
                                                       suite):
        import polyheat.polynomials

        def refuse(*args, **kwargs):
            raise AssertionError("a MultiPoly operator was applied")

        for name in ("apply_ball_operator", "apply_simplex_operator", "apply_jacobi_operator"):
            monkeypatch.setattr(polyheat.polynomials, name, refuse)
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n[basis]\nmax_degree = 12\n"
            f"[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", suite]) == 0
        report = json.loads((tmp_path / f"validate_{suite}.json").read_text())
        assert report["suites"][suite]["pass"] is True

    def test_correspondence_suite(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "validate", "correspondence"]) == 0
        report = json.loads((tmp_path / "validate_correspondence.json").read_text())
        checks = report["suites"]["correspondence"]["results"]["checks"]
        assert len(checks) == 4
        assert all(c["pass"] for c in checks)


def test_reused_parser_parses_as_in_a_fresh_process(tmp_path, capsys):
    # main builds its parser once per process: after config show, a validate
    # call, and a malformed argv, each prints, writes and exits as it does
    # as the first call of a fresh interpreter
    from polyheat import cli
    cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
    report = tmp_path / "validate_ops.json"
    calls = [["--config", cfgfile, "config", "show"],
             ["--config", cfgfile, "validate", "ops"],
             ["--config", cfgfile, "validate", "nosuch"]]
    fresh = []
    for argv in calls:
        run = fresh_python("-m", "polyheat.cli", *argv)
        fresh.append((run.returncode, run.stdout, run.stderr,
                      report.read_bytes() if report.exists() else None))
    assert [f[0] for f in fresh] == [0, 0, 2]
    report.unlink()
    for argv, want in zip(calls, fresh):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        assert (code, out, err, report.read_bytes() if report.exists() else None) == want
    assert cli._parser() is cli._parser()


FOOTPRINT_SCRIPT = """
import json, sys
import numpy as np
import polyheat, polyheat.cli
from polyheat import (DomainSpec, HeatKernelEvaluator, PolyField, ball_volume,
                      boundary_flux_decay, build_basis)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

ev = HeatKernelEvaluator(build_basis(DomainSpec.ball(2, 0.5), 10))
pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, -0.5]])
ev.heat_kernel_grid(1.0, pts, pts)
ev = HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, 1.5), 20))
ev.heat_kernel_grid(1.0, pts[:, :1], pts[:, :1])
spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
# f = x1 over the graded monomials 1, x2, x1; h = 1
boundary_flux_decay(spec, [0.0, 0.0, 1.0], PolyField([1.0], 2), [0.2, 0.1, 0.05, 0.02])
kernel = scipy_modules()
ball_volume(DomainSpec.ball(2, 0.5), np.array([0.1, 0.1]), 0.3, samples=1000, seed=1)
ball_volume(spec, np.array([0.1, 0.1]), 0.3)
volume2d = scipy_modules()
ball_volume(DomainSpec.interval(0.5, -0.5), np.array([0.1]), 0.3)
volume = scipy_modules()
ball_volume(DomainSpec.ball(3, 0.5), np.array([0.1, 0.1, 0.1]), 0.3, samples=1000, seed=1)
ball_volume(DomainSpec.simplex(3, (0.5,) * 4), np.array([0.1, 0.1, 0.1]), 0.3, samples=1000)
print(json.dumps({"kernel": kernel, "volume2d": volume2d, "volume": volume,
                  "volume3d": scipy_modules()}))
"""


def test_kernel_path_imports_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by the oracles
    run = fresh_python("-c", FOOTPRINT_SCRIPT)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    # neither the cap quadrature of 2-D volumes, the Gauss-Jacobi arc
    # integrals of interval volumes nor the 3-D Monte Carlo sampler needs scipy
    assert loaded == {"kernel": [], "volume2d": [], "volume": [], "volume3d": []}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = {key: [re.split(r"[<>=!~ ]", d)[0] for d in deps] for key, deps in
             [("runtime", project["dependencies"])] + list(project["optional-dependencies"].items())}
    assert names["runtime"] == ["numpy"]
    # the test oracles import scipy
    assert "scipy" in names["test"]


VALIDATE_2D_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
from polyheat.cli import main

out = Path(sys.argv[1])
codes = {}
for kind in ("kind = ball\\nn = 2\\ngamma = 0.5", "kind = simplex\\nn = 2\\nkappa = 0.5, 0.5, 0.5"):
    for samples in (1000, 50000):
        label = f"{kind.split()[2]}_{samples}"
        cfg = out / f"{label}.ini"
        cfg.write_text(f"[domain]\\n{kind}\\n[basis]\\nmax_degree = 12\\n[grids]\\n"
                       f"deltas = 0.2\\n[mc]\\nsamples = {samples}\\n")
        with redirect_stdout(io.StringIO()):
            codes[label] = main(["--config", str(cfg), "validate", "all", "--out", str(out / label)])
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_validate_2d_loads_no_scipy_and_ignores_monte_carlo_samples(tmp_path):
    # a fresh interpreter, as `polyheat validate all` runs
    run = fresh_python("-c", VALIDATE_2D_SCRIPT, str(tmp_path))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["scipy"] == [] and set(result["codes"].values()) <= {0, 1}
    for kind in ("ball", "simplex"):
        few, many = (tmp_path / f"{kind}_{n}" / "validate_all.json" for n in (1000, 50000))
        a, b = json.loads(few.read_text()), json.loads(many.read_text())
        # the report names the sample count in its config and nowhere else
        assert (a["config"]["mc"], b["config"]["mc"]) == ({"samples": 1000}, {"samples": 50000})
        b["config"]["mc"]["samples"] = 1000
        assert json.dumps(a) == json.dumps(b)
        assert few.read_bytes().replace(b'"samples": 1000', b'"samples": 50000') == many.read_bytes()
        assert a["suites"]["doubling"]["pass"] is True


VALIDATE_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
from polyheat.cli import main

# validate all on each config file, into the directory of its stem
codes = []
for cfg in sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        codes.append(main(["--config", cfg, "validate", "all",
                           "--out", str(Path(cfg).with_suffix(""))]))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_validate_interval_loads_no_scipy(tmp_path):
    # a fresh interpreter, as `polyheat validate all` runs; the gauss,
    # doubling and localize scans take interval volumes
    cfg = write_config(tmp_path, "[domain]\nkind = interval\nalpha = -0.9\nbeta = 1.5\n"
                                 "[basis]\nmax_degree = 60\n")
    run = fresh_python("-c", VALIDATE_SCRIPT, cfg)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["scipy"] == [] and result["codes"][0] in (0, 1)
    suites = json.loads((tmp_path / "run" / "validate_all.json").read_text())["suites"]
    assert all(suites[name]["pass"] for name in ("gauss", "doubling", "localize"))


def test_validate_3d_loads_no_scipy(tmp_path):
    # a fresh interpreter, as `polyheat validate all` runs; the doubling
    # scan takes Monte Carlo volumes on both domains
    common = ("[basis]\nmax_degree = 8\n[grids]\npoints = 6\ndeltas = 0.3\n"
              "[mc]\nsamples = 20000\n")
    cfgs = [tmp_path / "ball.ini", tmp_path / "simplex.ini"]
    cfgs[0].write_text("[domain]\nkind = ball\nn = 3\ngamma = 0.5\n" + common)
    cfgs[1].write_text("[domain]\nkind = simplex\nn = 3\n" + common)
    run = fresh_python("-c", VALIDATE_SCRIPT, *map(str, cfgs))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["scipy"] == [] and set(result["codes"]) <= {0, 1}
    for name in ("ball", "simplex"):
        report = json.loads((tmp_path / name / "validate_all.json").read_text())
        doubling = report["suites"]["doubling"]
        assert doubling["pass"] or "raise the sample budget" in doubling["results"]["error"]
