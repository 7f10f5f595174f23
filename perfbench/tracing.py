"""Span tracing at polyheat's module boundaries, for the traced run only.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS`` and rebinds every name in the polyheat modules that refers to
the original, so ``from .x import y`` bindings (and ``cli.SUITE_FUNCS``)
are traced too.  A span is (name, layer, start, end, parent, run id); the
run id is the index of the benchmark call that caused it.  Spans stay in
memory until ``write_spans``.  Counters are taken at the same boundaries.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

from workloads import GRAM_GATE, REFUSALS, VERIFY_GATE

LAYERS = ("quadrature", "basis", "polynomials", "heat", "volumes", "domains",
          "validation", "cli", "config")
SUITES = ("ops", "basis", "kernel", "gauss", "doubling", "green", "flux", "chart",
          "correspondence", "localize", "fsp")
SCANS = {"gauss": "gauss_ratio_scan", "doubling": "doubling_scan",
         "localization": "localization_check", "finite_speed": "finite_speed_scan",
         "correspondence": "jacobi_simplex_correspondence",
         "flux": "boundary_flux_decay", "green": "green_identity_check",
         "chart": "chart_laplacian_check"}


# -- counters taken from arguments and results ------------------------------


def _quadrature(tr, args, out):
    tr.count["quadrature.nodes"] += out.size


def _build(tr, args, out):
    tr.count["basis.members"] += out.size


def _verify(tr, args, out):
    ratio = float(out.max()) / VERIFY_GATE[args[0].spec.kind]
    tr.peak("basis.verify_worst_ratio", ratio)


def _gram(tr, args, out):
    tr.peak("basis.gram_ratio", out / GRAM_GATE[args[0].spec.kind])


def _replay(tr, args, out):
    tr.count["basis.replay_points"] += out.shape[0]


def _operator(tr, args, out):
    tr.count["polynomials.apply_operator_calls"] += 1


def _level_tensor(tr, ev, vals):
    terms = (ev.policy.hard_cap + 1) * vals.size
    tr.count["heat.pairs"] += vals.size
    tr.count["heat.level_terms"] += terms
    tr.peak("heat.level_tensor_bytes", 8 * terms)


def _heat_grid(tr, args, out):
    ev, vals, tails = args[0], out[0], out[1]
    tr.count["heat.grid_calls"] += 1
    _level_tensor(tr, ev, vals)
    tr.peak("heat.max_tail_ratio", float(tails.max()) / ev.policy.epsilon)


def _multiplier_grid(tr, args, out):
    _level_tensor(tr, args[0], out[0])


def _volume_query(tr, args, out):
    tr.count["volumes.queries"] += 1


def _volume(tr, args, out):
    tr.count["volumes.computed"] += 1
    tr.count["volumes.samples"] += out.samples
    if out.value > 0:
        tr.peak("volumes.max_rel_stderr", out.stderr / out.value)


def _distance(tr, args, out):
    tr.count["domains.distance_calls"] += 1


def _distance_many(tr, args, out):
    tr.count["domains.distance_many_points"] += len(args[2])


def _suite(name):
    def after(tr, args, out):
        tr.count[f"cli.suite.{name}_pass"] += bool(out[1])
    return after


# (module, attribute path, layer, metric or None, counter hook or None)
TARGETS = [
    ("quadrature", "build_quadrature", "quadrature", "quadrature.build_s", _quadrature),
    ("quadrature", "jacobi_recurrence", "quadrature", None, None),
    ("basis", "build_basis", "basis", "basis.build_s", _build),
    ("basis", "OrthonormalBasis.levels", "basis", "basis.levels_s", None),
    ("basis", "verify_eigenrelation", "basis", "basis.verify_s", _verify),
    ("basis", "OrthonormalBasis.gram_residual", "basis", "basis.gram_s", _gram),
    ("basis", "OrthonormalBasis.evaluate", "basis", "basis.replay_s", _replay),
    ("basis", "projection_kernel", "basis", None, None),
    ("basis", "christoffel_diag", "basis", None, None),
    ("polynomials", "apply_ball_operator", "polynomials", "polynomials.apply_operator_s",
     _operator),
    ("polynomials", "apply_simplex_operator", "polynomials", "polynomials.apply_operator_s",
     _operator),
    ("polynomials", "apply_jacobi_operator", "polynomials", "polynomials.apply_operator_s",
     _operator),
    ("heat", "HeatKernelEvaluator.heat_kernel_grid", "heat", "heat.grid_s", _heat_grid),
    ("heat", "HeatKernelEvaluator.heat_kernel", "heat", "heat.grid_s", None),
    ("heat", "HeatKernelEvaluator.multiplier_grid", "heat", "heat.multiplier_s",
     _multiplier_grid),
    ("heat", "HeatKernelEvaluator.multiplier_kernel", "heat", "heat.multiplier_s", None),
    ("heat", "HeatKernelEvaluator.mass_check", "heat", "heat.mass_check_s", None),
    ("heat", "HeatKernelEvaluator.semigroup_check", "heat", "heat.semigroup_s", None),
    ("volumes", "VolumeSource.__call__", "volumes", None, _volume_query),
    ("volumes", "ball_volume", "volumes", "volumes.compute_s", _volume),
    ("domains", "distance", "domains", "domains.distance_s", _distance),
    ("domains", "distance_many", "domains", "domains.distance_many_s", _distance_many),
    ("validation", "interior_points", "validation", None, None),
    ("validation", "geodesic_ray", "validation", None, None),
    ("validation", "kernel_selfadjointness_residual", "validation", None, None),
    *[("validation", fn, "validation", f"validation.{scan}_s", None)
      for scan, fn in SCANS.items()],
    ("cli", "main", "cli", None, None),
    ("cli", "_evaluator", "cli", "cli.evaluator_s", None),
    ("cli", "_evaluator_with_band", "cli", "cli.evaluator_s", None),
    *[("cli", f"suite_{s}", "cli", f"cli.suite.{s}_s", _suite(s)) for s in SUITES],
    ("config", "load_config", "config", "config.load_s", None),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, metric, start, end, parent, run]
        self._stack = []
        self.run = -1            # benchmark call in progress; -1 outside calls
        self._calls = 0
        self.count = defaultdict(float)
        self.peaks = defaultdict(float)
        self.refusals = 0

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], float(value))

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, layer, metric, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            rec = [name, layer, metric, 0.0, 0.0, parent, tracer.run]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except REFUSALS:
                # count a refusal once, where it leaves the heat layer
                if layer == "heat" and (parent < 0 or tracer.spans[parent][1] != "heat"):
                    tracer.refusals += 1
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        """One benchmark call: the root span of a run id."""
        self.run = self._calls
        self._calls += 1
        rec = [name, "bench", None, perf_counter(), 0.0, -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self.run = -1

    def install(self):
        """Wrap every target and rebind each polyheat name that refers to it."""
        suite_table = importlib.import_module("polyheat.cli").SUITE_FUNCS
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "polyheat" or n.startswith("polyheat."))]
        for modname, path, layer, metric, after in TARGETS:
            owner = importlib.import_module(f"polyheat.{modname}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                raw = owner.__dict__[attr]
                if isinstance(raw, property):
                    wrapped = property(self._wrap(raw.fget, path, layer, metric, after))
                else:
                    wrapped = self._wrap(raw, path, layer, metric, after)
                setattr(owner, attr, wrapped)
                continue
            raw = getattr(owner, attr)
            wrapped = self._wrap(raw, f"{modname}.{attr}", layer, metric, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)
            for key, value in suite_table.items():
                if value is raw:
                    suite_table[key] = wrapped
        return self

    # -- derived figures -----------------------------------------------------

    def self_times(self):
        """Per-layer (spans, self seconds): duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[5] >= 0:
                child[s[5]] += s[4] - s[3]
        out = {}
        for i, s in enumerate(self.spans):
            n, t = out.get(s[1], (0, 0.0))
            out[s[1]] = (n + 1, t + (s[4] - s[3]) - child[i])
        return out

    def metric_times(self):
        """Inclusive seconds per metric, counting only a metric's outermost spans."""
        totals = defaultdict(float)
        for s in self.spans:
            metric = s[2]
            if metric is None:
                continue
            p = s[5]
            while p >= 0 and self.spans[p][2] != metric:
                p = self.spans[p][5]
            if p < 0:
                totals[metric] += s[4] - s[3]
        return totals

    def metrics(self):
        """Every per-layer figure; a layer the workload never calls reads 0."""
        out = {}
        times = self.metric_times()
        for _, _, _, metric, _ in TARGETS:
            if metric is not None:
                out[metric] = times.get(metric, 0.0)
        for key in ("quadrature.nodes", "basis.members", "basis.replay_points",
                    "polynomials.apply_operator_calls", "heat.grid_calls", "heat.pairs",
                    "heat.level_terms", "volumes.queries", "volumes.samples",
                    "domains.distance_calls", "domains.distance_many_points"):
            out[key] = self.count[key]
        for key in ("basis.verify_worst_ratio", "basis.gram_ratio", "heat.level_tensor_bytes",
                    "heat.max_tail_ratio", "volumes.max_rel_stderr"):
            out[key] = self.peaks[key]
        for s in SUITES:
            out[f"cli.suite.{s}_pass"] = self.count[f"cli.suite.{s}_pass"]
        replay_s = out["basis.replay_s"]
        out["basis.replay_points_per_s"] = out["basis.replay_points"] / replay_s if replay_s else 0.0
        queries = self.count["volumes.queries"]
        hits = queries - self.count["volumes.computed"]
        out["volumes.cache_hit_ratio"] = hits / queries if queries else 0.0
        out["heat.refusals"] = self.refusals
        selfs = self.self_times()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = selfs.get(layer, (0, 0.0))[1]
        return out

    def write_spans(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, layer, _, start, end, parent, run) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "layer": layer,
                                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                                    "parent": parent, "run": run}) + "\n")
