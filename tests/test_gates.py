"""The gate table: each verdict bound written once, applied by one function,
and suites that cannot run on a domain reported as not run."""

import ast
import json
from math import inf
from pathlib import Path

import pytest

from polyheat import validation
from polyheat.cli import SUITE_FUNCS, main
from polyheat.domains import DomainSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

INTERVAL_INI = ("[domain]\nkind = interval\nalpha = -0.5\nbeta = -0.5\n"
                "[basis]\nmax_degree = 24\n[grids]\npoints = 8\n[run]\nseed = 7\n")
# the validate-2d benchmark configs
PLANE = ("[basis]\nmax_degree = 20\n[grids]\ndeltas = 0.1\n[mc]\nsamples = 50000\n"
         "[run]\nseed = 1\n")
BALL2 = "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n" + PLANE
SIMPLEX2 = "[domain]\nkind = simplex\nn = 2\nkappa = 0.5, 0.5, 0.5\n" + PLANE


def validate(tmp_path, ini, suite="all"):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "validate", suite, "--out", str(out)])
    path = out / f"validate_{suite}.json"
    return code, json.loads(path.read_text()) if path.exists() else None


def failing(report):
    return {name for name, entry in report["suites"].items() if not entry["pass"]}


def test_every_suite_has_a_row_and_every_row_a_suite():
    assert {g.suite for g in validation.GATES} == set(SUITE_FUNCS)
    assert len({(g.suite, g.quantity) for g in validation.GATES}) == len(validation.GATES)
    assert {g.direction for g in validation.GATES} == {"<=", ">="}


@pytest.mark.parametrize("row", validation.GATES, ids=lambda g: f"{g.suite}:{g.quantity}")
def test_tightening_one_row_fails_its_suite_and_no_other(tmp_path, capsys, monkeypatch, row):
    # every suite passes on this config with the table as it is (below)
    tight = row._replace(bound=-inf if row.direction == "<=" else inf)
    monkeypatch.setattr(validation, "GATES",
                        tuple(tight if g == row else g for g in validation.GATES))
    code, report = validate(tmp_path, INTERVAL_INI)
    assert code == 1 and failing(report) == {row.suite}


def test_bounds_that_depend_on_the_spec():
    interval, ball = DomainSpec.interval(0.0, 0.0), DomainSpec.ball(2, 0.5)
    assert validation.bound("ops", "max", interval) == 1e-9
    assert validation.bound("ops", "max", ball) == 1e-8
    assert validation.bound("basis", "gram_residual", interval) == 1e-10
    assert validation.bound("doubling", "max_ratio", ball) == validation.doubling_cap(ball)
    assert validation.passes("flux", ball, {"r2": 0.98}) and not validation.passes(
        "flux", ball, {"r2": 0.97})


def _perfbench_gates():
    """VERIFY_GATE and GRAM_GATE of perfbench/workloads.py, read as literals."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("VERIFY_GATE", "GRAM_GATE")}


@pytest.mark.parametrize("spec", [DomainSpec.interval(0.0, 0.0), DomainSpec.ball(2, 0.5),
                                  DomainSpec.simplex(2, (0.5, 0.5, 0.5))], ids=lambda s: s.kind)
def test_benchmark_copies_of_the_ops_and_basis_rows_agree(spec):
    # the traced benchmark divides residuals by its own copy of these rows
    gates = _perfbench_gates()
    assert gates["VERIFY_GATE"][spec.kind] == validation.bound("ops", "max", spec)
    assert gates["GRAM_GATE"][spec.kind] == validation.bound("basis", "gram_residual", spec)


@pytest.mark.parametrize("ini", [BALL2, SIMPLEX2], ids=["ball2", "simplex2"])
def test_suites_that_cannot_run_are_not_run_not_passed(tmp_path, capsys, ini):
    code, report = validate(tmp_path, ini)
    assert code == 0 and report["pass"] is True
    assert report["not_run"] == {
        "correspondence": "correspondence needs a one-dimensional domain",
        "fsp": "finite-speed scan certified on one-dimensional domains"}
    assert set(report["suites"]) == set(SUITE_FUNCS) - {"correspondence", "fsp"}
    out = capsys.readouterr().out
    assert "fsp              NOT RUN: finite-speed scan certified" in out


@pytest.mark.parametrize("suite", ["fsp", "correspondence"])
def test_one_suite_that_cannot_run_is_a_one_line_error(tmp_path, capsys, suite):
    code, report = validate(tmp_path, BALL2, suite)
    assert code == 2 and report is None and not (tmp_path / "out").exists()
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {suite} does not run on ball(n=2, gamma=0.5): ")


def test_an_interval_report_passes_every_suite_and_has_no_not_run_key(tmp_path, capsys):
    code, report = validate(tmp_path, INTERVAL_INI)
    assert code == 0 and failing(report) == set() and "not_run" not in report
    assert set(report["suites"]) == set(SUITE_FUNCS)


def test_simplex1_finite_speed_passes_at_the_default_deltas(tmp_path, capsys):
    code, report = validate(tmp_path, "[domain]\nkind = simplex\nn = 1\nkappa = 0.5, 0.5\n",
                            "fsp")
    assert code == 0 and report["suites"]["fsp"]["results"]["c_star_stable_20pct"] is True
