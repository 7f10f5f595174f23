import json

import numpy as np
import pytest

from polyheat.basis import OrthonormalBasis
from polyheat.cli import main
from polyheat.config import default_config, load_config


def write_config(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


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

    def test_defaults(self):
        cfg = default_config()
        assert cfg.spec.kind == "interval"
        assert cfg.epsilon == 1e-10

    @pytest.mark.parametrize("body, named", [
        ("[mc]\nsamples = abc\n", "[mc] samples"),
        ("[domain]\nkind = simplex\nkappa = 0.5, x, 0.5\n", "[domain] kappa"),
        ("[basis]\nmax_degre = 12\n", "[basis] max_degre"),
        ("[basis]\nmax_degree = 12\n[montecarlo]\nsamples = 10\n", "[montecarlo]"),
        ("[domain]\nkind = ball\nn = 2\n[mc]\nsamples = 4\n", "[mc] samples = 4"),
        ("[run]\nthreads = 1\n", "[run] threads"),
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, body, named):
        cfgfile = write_config(tmp_path, body)
        assert main(["--config", cfgfile, "validate", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and err.count("\n") == 1 and named in err
        assert main(["--config", cfgfile, "config", "show"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

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

    def test_volume_below_strata_is_one_line_error(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n")
        assert main(["--config", cfgfile, "geom", "volume", "--x", "0,0", "--r", "0.3",
                     "--samples", "4"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: Monte Carlo needs at least 8 samples, got 4\n"
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

    def test_eval_csv(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "kernel", "eval", "--t", "0.5",
                     "--grid", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,y,t,value,tail_bound"
        assert len(out) == 1 + 16


PIN_INI = "[domain]\nkind = interval\nalpha = -0.5\nbeta = -0.5\n[basis]\nmax_degree = 24\n"
PIN_POINTS = ['"[-0.7071067811865475]"', '"[0.7071067811865475]"']


def pinned_rows(param, values, tail, labels=PIN_POINTS):
    """Rows of a 2 x 2 kernel CSV: (diagonal, off-diagonal) values, one tail."""
    return "".join(f"{a},{b},{param},{values[i != j]},{tail}\n"
                   for i, a in enumerate(labels) for j, b in enumerate(labels))


class TestKernelCsvBytes:
    def test_eval_multiplier_and_export_bytes(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, PIN_INI)
        assert main(["--config", cfgfile, "kernel", "eval", "--t", "0.5", "--grid", "2"]) == 0
        heat = ("0.515125443247", "0.121921453404")
        assert capsys.readouterr().out == "x,y,t,value,tail_bound\n" + pinned_rows(
            "0.5", heat, "2.44278094652e-136")

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
            "0.5", heat, "2.44278094652e-136", ["0", "1"]) + pinned_rows(
            "1", ("0.43544890344", "0.201171012212"), "4.6866112328e-272", ["0", "1"])


class TestValidate:
    def test_ops_suite_report(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        assert main(["--config", cfgfile, "validate", "ops"]) == 0
        report = json.loads((tmp_path / "validate_ops.json").read_text())
        assert report["schema_version"] == 3
        assert report["pass"] is True
        assert report["config"]["domain"]["kind"] == "interval"
        assert report["suites"]["ops"]["results"]["max"] <= 1e-9

    def test_report_embeds_config_and_is_deterministic(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path, INTERVAL_INI.format(out=tmp_path))
        main(["--config", cfgfile, "validate", "basis"])
        first = (tmp_path / "validate_basis.json").read_bytes()
        main(["--config", cfgfile, "validate", "basis"])
        assert (tmp_path / "validate_basis.json").read_bytes() == first

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
        evaluate = OrthonormalBasis.evaluate

        def counted(basis, points):
            calls.append(len(points))
            return evaluate(basis, points)

        monkeypatch.setattr(OrthonormalBasis, "evaluate", counted)
        cfgfile = write_config(tmp_path, (
            "[domain]\nkind = interval\nalpha = -0.5\nbeta = -0.5\n"
            f"[basis]\nmax_degree = 200\n[run]\noutput = {tmp_path}\n"))
        assert main(["--config", cfgfile, "validate", "all"]) == 0
        assert len(calls) <= 20

    @pytest.mark.parametrize("suite", ["green", "chart", "flux"])
    def test_array_suites_apply_no_multipoly_operator(self, tmp_path, capsys, monkeypatch,
                                                       suite):
        import polyheat.domains
        import polyheat.polynomials

        def refuse(*args, **kwargs):
            raise AssertionError("a MultiPoly operator was applied")

        for module in (polyheat.polynomials, polyheat.domains):
            for name in ("apply_ball_operator", "apply_simplex_operator",
                         "apply_jacobi_operator"):
                monkeypatch.setattr(module, name, refuse)
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
