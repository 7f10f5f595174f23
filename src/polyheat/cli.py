"""Batch driver: suite orchestration, artifact persistence, report emission.

Subcommands: ``config show``, ``basis build|verify``,
``geom dist|lift|metric|volume``, ``kernel eval|multiplier|export``, and
``validate <suite>`` where suite is one of ops, basis, kernel, gauss,
doubling, green, flux, chart, correspondence, localize, fsp, all.
Validation writes one JSON report (schema-versioned, embedding the resolved
config); the exit code is nonzero iff a suite that ran fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from math import ceil, sqrt
from pathlib import Path

import numpy as np

from . import validation as val
from .basis import (build_basis, eigenvalue, graded_monomials, level_dimension,
                    verify_eigenrelation)
from .config import SCHEMA_VERSION, load_config
from .domains import (
    INTERVAL,
    DomainSpec,
    chart_lift,
    distance,
    interval_parameters,
    inverse_metric,
    metric_det,
    metric_tensor,
)
from .errors import (BoundarySingularityError, CapacityError, DomainError, ParameterError,
                     PrecisionError)
from .heat import (DEFAULT_EPSILON, HeatKernelEvaluator, MultiplierSpec, TruncationPolicy,
                   default_t_min)
from .quadrature import build_quadrature
from .volumes import VolumeSource, ball_volume

SUITES = ("ops", "basis", "kernel", "gauss", "doubling", "green", "flux",
          "chart", "correspondence", "localize", "fsp", "all")

# random (f, h) pairs of the green suite
GREEN_PAIRS = 20
# the least value of each integer flag
LEAST = {"max_degree": 0, "grid": 1, "resolution": 1}
# the most cells the kernel grids of one command may hold: each cell is a
# value, a tail and a CSV row, about 200 bytes in all while the CSV is written
MAX_GRID_CELLS = 1 << 20


def _fmt(x):
    return f"{x:.12g}"


def _parse_point(text, what="point"):
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise ParameterError(f"malformed {what} {text!r}: expected numbers "
                             "separated by commas or spaces")
    return np.array(values)


def _evaluator(cfg):
    basis = build_basis(cfg.spec, cfg.max_degree)
    policy = TruncationPolicy(
        DEFAULT_EPSILON,
        cfg.t_min if cfg.t_min is not None else default_t_min(cfg.spec, basis.max_degree),
        basis.max_degree,
    )
    return HeatKernelEvaluator(basis, policy)


def _write(path, text=None):
    """Write ``text`` to ``path``, making its directories; with no text, make
    them only, so a command can refuse a path under a file before its work."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is not None:
            path.write_text(text)
    except OSError as e:
        raise ParameterError(f"cannot write {str(path)!r}: {e}") from None
    return path


def _np_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit_json(obj, path):
    # one line: with an indent, json would take its pure-Python encoder
    _write(path, json.dumps(obj, sort_keys=True, default=_np_default) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_config_show(args):
    cfg = load_config(args.config)
    sys.stdout.write(cfg.to_ini())
    return 0


def cmd_basis_build(args):
    cfg = load_config(args.config, max_degree=args.max_degree)
    basis = build_basis(cfg.spec, cfg.max_degree)
    print(f"built {cfg.spec.label()} basis to degree {basis.max_degree}; "
          f"gram residual {basis.gram_residual():.3e}")
    if args.out:
        _write(args.out, json.dumps(basis.to_json_obj(), sort_keys=True))
        print(f"wrote {args.out}")
    return 0


def cmd_basis_verify(args):
    cfg = load_config(args.config, max_degree=args.max_degree)
    basis = build_basis(cfg.spec, cfg.max_degree)
    res = verify_eigenrelation(basis)
    print(f"# {cfg.spec.label()}  max_degree={cfg.max_degree}")
    print("level,eigen_residual")
    for k, r in enumerate(res):
        print(f"{k},{_fmt(r)}")
    worst = float(res.max())
    gram = basis.gram_residual()
    ok = (val.passes("ops", cfg.spec, {"max": worst})
          and val.passes("basis", cfg.spec, {"gram_residual": gram}))
    print(f"# max residual {worst:.3e}  gram {gram:.3e}  -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_geom(args):
    cfg = load_config(args.config)
    spec = cfg.spec
    x = _parse_point(args.x)
    if args.geom_op == "dist":
        y = _parse_point(args.y)
        rows = [f"\"{x.tolist()}\",\"{y.tolist()}\",{_fmt(distance(spec, x, y))},0"]
    elif args.geom_op == "lift":
        rows = [f"\"{x.tolist()}\",\"{chart_lift(spec, x).tolist()}\",0,0"]
    elif args.geom_op == "metric":
        g, gi, det = metric_tensor(spec, x), inverse_metric(spec, x), metric_det(spec, x)
        rows = [f"\"{x.tolist()}\",\"g={g.tolist()}\",{_fmt(det)},0",
                f"\"{x.tolist()}\",\"ginv={gi.tolist()}\",0,0"]
    else:
        est = ball_volume(spec, x, args.r)
        rows = [f"\"{x.tolist()}\",{_fmt(args.r)},{_fmt(est.value)},{_fmt(est.stderr)}"]
    # the header follows the query, so a refused query leaves stdout empty
    _emit_csv("x,y,value,stderr", rows, None)
    return 0


def _grid_budget(flag, points, grids=1):
    """Refuse, before anything is built, grids beyond ``MAX_GRID_CELLS``."""
    if grids * points * points > MAX_GRID_CELLS:
        raise CapacityError(f"{grids} kernel grid(s) of {points} x {points} points exceed the "
                            f"budget of {MAX_GRID_CELLS} cells; lower {flag}")


def _kernel_grid_points(cfg, resolution):
    spec = cfg.spec
    if spec.kind == INTERVAL:
        rule = build_quadrature(spec, 2 * resolution - 2)
        return rule.nodes, rule.weights
    pts = val.interior_points(spec, resolution)
    return pts, None


def _grid_rows(labels, param, vals, tails):
    """CSV rows ``row label, column label, param, value, tail`` of one grid."""
    return [f"{a},{b},{_fmt(param)},{_fmt(vals[i, j])},{_fmt(tails[i, j])}"
            for i, a in enumerate(labels) for j, b in enumerate(labels)]


def _emit_csv(header, rows, out):
    """Write the CSV to ``out`` (and say so), or to stdout when out is None."""
    text = "\n".join([header] + rows) + "\n"
    if out:
        _write(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_kernel_grid(args):
    """``kernel eval``, the heat kernel at --t, or ``kernel multiplier`` at --delta."""
    _grid_budget("--grid", args.grid)
    cfg = load_config(args.config)
    ev = _evaluator(cfg)
    if args.kernel_op == "eval":
        param, kernel = "t", lambda pts: ev.heat_kernel_grid(args.t, pts, pts)
    else:
        phi = MultiplierSpec(args.family, support=args.support, order=args.order, band=args.band)
        param, kernel = "delta", lambda pts: ev.multiplier_grid(phi, args.delta, pts, pts)
    pts, _ = _kernel_grid_points(cfg, args.grid)
    _emit_csv(f"x,y,{param},value,tail_bound",
              _grid_rows([f"\"{p.tolist()}\"" for p in pts], getattr(args, param), *kernel(pts)),
              args.out)
    return 0


def cmd_kernel_export(args):
    ts = _parse_point(args.t_list, "--t-list").tolist()
    _grid_budget("--resolution or the --t-list", args.resolution, len(ts))
    cfg = load_config(args.config)
    ev = _evaluator(cfg)
    pts, weights = _kernel_grid_points(cfg, args.resolution)
    labels = [str(i) for i in range(len(pts))]
    # one basis sweep serves every time
    grid = ev.point_set(pts)
    rows = []
    for t in ts:
        vals, tails = ev.heat_kernel_grid(t, grid, grid)
        rows += _grid_rows(labels, t, vals, tails)
    _emit_csv("i,j,t,value,tail_bound", rows, args.out or "kernel_grid.csv")
    if weights is not None:
        row_mass = vals @ weights
        print(f"# last-t row-mass range [{row_mass.min():.9f}, {row_mass.max():.9f}]")
    return 0


# ---------------------------------------------------------------------------
# validation suites


def suite_ops(cfg, ev, vol, rng):
    res = verify_eigenrelation(ev.basis)
    worst = float(res.max())
    return {"eigen_residuals": [float(r) for r in res], "max": worst,
            "tolerance": val.bound("ops", "max", cfg.spec)}, val.passes(
        "ops", cfg.spec, {"max": worst})


def suite_basis(cfg, ev, vol, rng):
    gram = ev.basis.gram_residual()
    dims_ok = all(int(d) == level_dimension(cfg.spec.n, k)
                  for k, d in enumerate(np.diff(ev.basis.offsets)))
    return {"gram_residual": gram, "tolerance": val.bound("basis", "gram_residual", cfg.spec),
            "dimensions_ok": dims_ok}, (
        dims_ok and val.passes("basis", cfg.spec, {"gram_residual": gram}))


def suite_kernel(cfg, ev, vol, rng):
    spec = cfg.spec
    # one basis evaluation of the points serves every check below
    pts = ev.point_set(val.interior_points(spec, min(cfg.points, 10)))
    mass_err = max(float(np.abs(ev.mass_grid(t, pts) - 1.0).max())
                   for t in (ev.policy.t_min, 1.0, 5.0))
    x, y = pts[0], pts[-1]
    semi = max(ev.semigroup_check(0.3, 0.2, x, y), ev.semigroup_check(0.5, 0.5, x, y))
    f = val.random_coefficients(spec.n, min(10, ev.basis.max_degree), rng)
    h = val.random_coefficients(spec.n, min(10, ev.basis.max_degree), rng)
    selfadj = val.kernel_selfadjointness_residual(ev, 0.5, f, h)
    results = {"mass_error": mass_err, "semigroup_gap": float(semi),
               "selfadjoint_gap": float(selfadj)}
    return results, val.passes("kernel", spec, results)


def suite_gauss(cfg, ev, vol, rng):
    pts = val.interior_points(cfg.spec, cfg.points)
    times = [t for t in cfg.times if t >= ev.policy.t_min]
    rep = val.gauss_ratio_scan(ev, vol, pts, times)
    return vars(rep), rep.verdict and val.passes(
        "gauss", cfg.spec, {"e_max/e_min": rep.e_max / rep.e_min, "n_hi/n_lo": rep.n_hi / rep.n_lo})


def suite_doubling(cfg, ev, vol, rng):
    pts = val.interior_points(cfg.spec, cfg.points)
    radii = [r for r in cfg.radii if r <= np.pi / 2]
    rep = val.doubling_scan(cfg.spec, vol, pts, radii)
    return vars(rep), rep.verdict and val.passes(
        "doubling", cfg.spec, {"comp_hi/comp_lo": rep.comp_hi / rep.comp_lo})


def suite_green(cfg, ev, vol, rng):
    spec = cfg.spec
    worst = 0.0
    deg = max(2, min(6, cfg.max_degree))
    quad = build_quadrature(spec, 2 * deg + 6)
    # the pairs are coefficient vectors; the checks share one Vandermonde
    for _ in range(GREEN_PAIRS):
        f = val.random_coefficients(spec.n, deg, rng)
        h = val.PolyField(val.random_coefficients(spec.n, max(1, deg - 2), rng), spec.n)
        worst = max(worst, val.green_identity_check(spec, f, h, quad))
    return {"max_residual": worst, "pairs": GREEN_PAIRS,
            "tolerance": val.bound("green", "max_residual", spec)}, val.passes(
        "green", spec, {"max_residual": worst})


def suite_flux(cfg, ev, vol, rng):
    spec = cfg.spec
    if spec.lift.step == 2:
        # the simplex of the orthant: simplex(1, (beta + 1/2, alpha + 1/2)) on the interval
        spec = DomainSpec.simplex(spec.n, spec.lift.kappa)
    # f is a coefficient vector over graded_monomials(n, 2), h the constant 1
    monomials = graded_monomials(spec.n, 2)
    x1, x1sq = (monomials.index((d,) + (0,) * (spec.n - 1)) for d in (1, 2))
    f = np.zeros(len(monomials))
    h = val.PolyField([1.0], spec.n)
    if spec.lift.step == 1:
        f[x1sq] = 1.0
    else:
        # f = x1 + x1^2/2 makes the face flux factor 1 - x1^2, flat in
        # epsilon; in n >= 2 a ridge bump keeps the probe away from the
        # shrinking face ends
        f[x1], f[x1sq] = 1.0, 0.5
        if spec.n >= 2:
            center = np.full(spec.n, 0.0)
            center[1] = 0.45
            scale = np.full(spec.n, np.inf)
            scale[1] = 0.15
            h = val.GaussianBump(center, scale)
    rep = val.boundary_flux_decay(spec, f, h, cfg.epsilons)
    # the fitted rate carries an O(eps) bias from smooth prefactors; pass
    # within the acceptance margin on the dominating face
    return vars(rep), rep.zero_flux or val.passes("flux", spec, {
        "|fitted_slope - expected_slope|": abs(rep.fitted_slope - rep.expected_slope),
        "r2": rep.r2})


def suite_chart(cfg, ev, vol, rng):
    spec = cfg.spec
    pts = val.interior_points(spec, 100, margin=0.02)
    f = val.random_coefficients(spec.n, 5, rng)
    res = val.chart_laplacian_check(spec, f, pts)
    return {"max_residual": res, "samples": len(pts),
            "tolerance": val.bound("chart", "max_residual", spec)}, val.passes(
        "chart", spec, {"max_residual": res})


def suite_correspondence(cfg, ev, vol, rng):
    spec = cfg.spec
    # the interval reads its own basis through degree 30 instead of building it
    rep = val.jacobi_simplex_correspondence(*interval_parameters(spec), min(cfg.max_degree, 30),
                                            seed=cfg.seed,
                                            basis=ev.basis if spec.kind == INTERVAL else None)
    return vars(rep), rep.verdict


def _evaluator_with_band(cfg, ev, min_sqrt_lambda):
    """Re-build the evaluator at the least degree K >= its own whose
    lambda_K = K (K + c) reaches min_sqrt_lambda^2 when a suite needs more
    band: the root of the quadratic, moved onto that K by ``eigenvalue``.
    Past 2^53, where floats no longer tell one degree from the next (and
    lambda may overflow), it asks for about K, the degree min_sqrt_lambda,
    which every cap refuses."""
    spec, have = cfg.spec, ev.basis.max_degree
    target = min_sqrt_lambda * min_sqrt_lambda
    if not eigenvalue(spec, have) < target:
        return ev
    if not min_sqrt_lambda < 2.0 ** 53:
        return _evaluator(replace(cfg, max_degree=min_sqrt_lambda))
    c = eigenvalue(spec, 1) - 1.0
    need = max(have + 1, ceil((sqrt(c * c + 4.0 * target) - c) / 2.0))
    while need - 1 > have and eigenvalue(spec, need - 1) >= target:
        need -= 1
    while eigenvalue(spec, need) < target:
        need += 1
    return _evaluator(replace(cfg, max_degree=need))


def suite_localize(cfg, ev, vol, rng):
    ev = _evaluator_with_band(cfg, ev, 2.0 / min(cfg.deltas))
    reps = [val.localization_check(ev, d, cfg.spec.n + 2, vol) for d in cfg.deltas]
    out = {f"delta={d:g}": vars(rep) for d, rep in zip(cfg.deltas, reps)}
    if len(reps) >= 2:
        cms = [rep.c_m_hat for rep in reps]
        out["c_m_stable_2x"] = val.passes("localize", cfg.spec,
                                          {"max/min c_m_hat": max(cms) / min(cms)})
    return out, all(rep.verdict for rep in reps) and out.get("c_m_stable_2x", True)


def suite_fsp(cfg, ev, vol, rng):
    # sinc-power tails need band out to where the envelope drops below 1e-13
    ev = _evaluator_with_band(cfg, ev, 10.0 / min(cfg.deltas))
    out, cs = {}, []
    for d in cfg.deltas:
        rep = val.finite_speed_scan(ev, d, 8, 2.0)
        out[f"delta={d:g}"] = vars(rep)
        if rep.degenerate:
            return out, False
        cs.append(rep.c_star_hat)
    out["c_star_stable_20pct"] = val.passes("fsp", cfg.spec,
                                            {"max/min c_star_hat": max(cs) / min(cs)})
    return out, out["c_star_stable_20pct"]


# the suite_<name> function of each suite, in the order of SUITES
SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITES if name != "all"}


def cmd_validate(args):
    try:
        cfg = load_config(args.config)
    except ParameterError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    names = list(SUITE_FUNCS) if args.suite == "all" else [args.suite]
    not_run = {} if cfg.spec.n == 1 else {
        name: why for name, why in val.ONE_DIMENSIONAL.items() if name in names}
    if args.suite in not_run:
        raise DomainError(f"{args.suite} does not run on {cfg.spec.label()}: "
                          f"{not_run[args.suite]}")
    path = _write(Path(args.out or cfg.output) / f"validate_{args.suite}.json")
    try:
        ev = _evaluator(cfg)
    except (ParameterError, CapacityError) as e:
        print(f"cannot build the evaluator: {e}", file=sys.stderr)
        return 2
    vol = VolumeSource(cfg.spec)
    rng = np.random.default_rng(cfg.seed)
    overall = True
    report = {"schema_version": SCHEMA_VERSION, "config": cfg.to_json_obj(),
              "suites": {}}
    for name in names:
        if name in not_run:
            print(f"{name:16s} NOT RUN: {not_run[name]}")
            continue
        try:
            results, ok = SUITE_FUNCS[name](cfg, ev, vol, rng)
        except (PrecisionError, CapacityError, DomainError, BoundarySingularityError) as e:
            results, ok = {"error": str(e)}, False
        report["suites"][name] = {"results": results, "pass": bool(ok)}
        overall = overall and ok
        print(f"{name:16s} {'PASS' if ok else 'FAIL'}")
    report["pass"] = bool(overall)
    if not_run:
        report["not_run"] = not_run
    _emit_json(report, path)
    return 0 if overall else 1


@cache
def _parser():
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="polyheat",
        description="Polynomial eigensystems, heat kernels, and validation suites "
                    "on the interval, ball, and simplex",
    )
    ap.add_argument("--config", default=None, help="INI config file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="configuration inspection")
    psub = p.add_subparsers(dest="config_op", required=True)
    psub.add_parser("show", help="print the resolved config as INI")

    p = sub.add_parser("basis", help="basis construction and verification")
    psub = p.add_subparsers(dest="basis_op", required=True)
    pb = psub.add_parser("build")
    pb.add_argument("--max-degree", type=int, default=None)
    pb.add_argument("--out", default=None)
    pv = psub.add_parser("verify")
    pv.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("geom", help="geometric queries (CSV rows)")
    psub = p.add_subparsers(dest="geom_op", required=True)
    for name in ("dist", "lift", "metric", "volume"):
        pg = psub.add_parser(name)
        pg.add_argument("--x", required=True)
        if name == "dist":
            pg.add_argument("--y", required=True)
        if name == "volume":
            pg.add_argument("--r", type=float, required=True)

    p = sub.add_parser("kernel", help="kernel evaluation (CSV)")
    psub = p.add_subparsers(dest="kernel_op", required=True)
    pe = psub.add_parser("eval")
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--grid", type=int, default=16)
    pe.add_argument("--out", default=None)
    pm = psub.add_parser("multiplier")
    pm.add_argument("--family", required=True,
                    choices=["heat_exp", "smooth_bump", "sinc_power"])
    pm.add_argument("--delta", type=float, required=True)
    pm.add_argument("--order", type=int, default=4)
    pm.add_argument("--band", type=float, default=2.0)
    pm.add_argument("--support", type=float, default=1.0)
    pm.add_argument("--grid", type=int, default=16)
    pm.add_argument("--out", default=None)
    px = psub.add_parser("export")
    px.add_argument("--t-list", required=True)
    px.add_argument("--resolution", type=int, default=64)
    px.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--out", default=None)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None and not args.out.strip():
            raise ParameterError("--out is empty; name the file or directory to write")
        for name, least in LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ParameterError(f"--{name.replace('_', '-')} {value} is below {least}")
        if args.command == "config":
            return cmd_config_show(args)
        if args.command == "basis":
            return cmd_basis_build(args) if args.basis_op == "build" else cmd_basis_verify(args)
        if args.command == "geom":
            return cmd_geom(args)
        if args.command == "kernel":
            return cmd_kernel_export(args) if args.kernel_op == "export" else cmd_kernel_grid(args)
        if args.command == "validate":
            return cmd_validate(args)
    except (ParameterError, CapacityError, PrecisionError, DomainError,
            BoundarySingularityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
