"""The benchmark workloads: inputs from the seed, set-up, one batch.

Each workload is a closed loop with one caller: the next call into polyheat
starts after the previous one returns.  A run repeats the same batch of
calls (``worker.py`` decides how often).

A batch records the latency of each call, the outcome of each operation (a
call, or one suite verdict inside a ``validate all`` call), the certified
pairs returned and the report hashes.
Correctness checks that the program does not make itself raise
``WrongOutput``; the run stops there.

Every call goes through the ``polyheat`` package attribute at call time
(``ph.build_basis(...)``), so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import pi, sqrt
from pathlib import Path

import numpy as np

import polyheat as ph
from pace import Pace
from polyheat import cli

# Gates the program applies to its own outputs (polyheat.cli suites ops and
# basis); the traced run reports residuals as ratios to them.
VERIFY_GATE = {"interval": 1e-9, "ball": 1e-8, "simplex": 1e-8}
GRAM_GATE = {"interval": 1e-10, "ball": 1e-8, "simplex": 1e-8}

# Benchmark-side correctness limits.
SYMMETRY_TOL = 1e-13
MASS_TOL = 1e-6
SEMIGROUP_TOL = 1e-6
ORACLE_SLACK = 1e-12
# Replay at the quadrature nodes against the stored node values, relative
# to max |node value|: the 1e-8 the program promises for its Gram-Schmidt
# bases.
REPLAY_REL_TOL = 1e-8

REFUSALS = (ph.PrecisionError, ph.CapacityError)

# A checkerboard over the 4 x 4 acceptance grid of (alpha, beta): each value
# appears twice on each side, at half the run time of all 16 pairs.
INTERVAL_PAIRS = [(-0.9, -0.9), (-0.9, 0.0), (-0.5, -0.5), (-0.5, 1.5),
                  (0.0, -0.9), (0.0, 0.0), (1.5, -0.5), (1.5, 1.5)]


class WrongOutput(Exception):
    """An output failed a benchmark check the program does not make."""


@dataclass
class Op:
    name: str
    # None, or "raised", "refused", "gate" (a verdict misses the program's
    # own tolerance) or "tail" (an error larger than the certified tail)
    failure: str | None = None


@dataclass
class Batch:
    pace: Pace                                    # the run's reference-loop samples
    calls: list = field(default_factory=list)     # (name, seconds, start, end) per call
    ops: list = field(default_factory=list)       # Op per operation
    pairs: int = 0                       # certified (value, tail) pairs
    reports: dict = field(default_factory=dict)   # report name -> sha256
    notes: dict = field(default_factory=dict)     # measured check margins
    tracer: object = None                         # tracing.Tracer in traced runs


def timed(batch, name, fn, *args, **kwargs):
    """One call into the program, which is also one operation.

    A refusal (PrecisionError or CapacityError) or any other exception is a
    failed operation; the batch goes on with the next call.  The reference
    loop of ``pace.py`` runs around the call, never inside its time.
    """
    batch.pace.before_call()
    t = time.perf_counter()
    try:
        if batch.tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = batch.tracer.call(name, fn, *args, **kwargs)
    except Exception as e:
        end = time.perf_counter()
        batch.calls.append((name, end - t, t, end))
        batch.pace.after_call(end - t)
        kind = "refused" if isinstance(e, REFUSALS) else "raised"
        batch.ops.append(Op(name, kind))
        batch.notes.setdefault("exceptions", []).append(
            f"{name}: {kind}: " + "".join(traceback.format_exception_only(e)).strip())
        return None
    end = time.perf_counter()
    batch.calls.append((name, end - t, t, end))
    batch.pace.after_call(end - t)
    batch.ops.append(Op(name))
    return out


def note_max(batch, key, value):
    batch.notes[key] = max(batch.notes.get(key, 0.0), float(value))


# ---------------------------------------------------------------------------
# inputs


def sample_points(spec, count, rng):
    """Points drawn from the normalized weighted measure of ``spec``.

    Written here rather than taken from polyheat so that a change to the
    program cannot change the benchmark's inputs.
    """
    if spec.kind == "interval":
        return (2.0 * rng.beta(spec.beta + 1, spec.alpha + 1, size=count) - 1.0)[:, None]
    if spec.kind == "ball":
        d = rng.standard_normal((count, spec.n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r2 = rng.beta(spec.n / 2.0, spec.gamma + 0.5, size=count)
        return np.sqrt(r2)[:, None] * d
    return rng.dirichlet(np.asarray(spec.kappa) + 0.5, size=count)[:, : spec.n]


# ---------------------------------------------------------------------------
# checks


def cosine_series_kernel(g_of_k, X, Y, kmax):
    """Chebyshev-weight kernel sum_k g(k) p_k(x) p_k(y) on interval(-1/2,-1/2).

    p_0 = 1/sqrt(pi), p_k(cos th) = sqrt(2/pi) cos(k th) and sqrt(lambda_k) = k,
    so the kernel is (g(0) + 2 sum_k g(k) cos(k th) cos(k ph)) / pi.
    """
    k = np.arange(1, kmax + 1)
    g = g_of_k(k)
    cx = np.cos(np.outer(np.arccos(np.clip(X[:, 0], -1, 1)), k))
    cy = np.cos(np.outer(np.arccos(np.clip(Y[:, 0], -1, 1)), k))
    return (g_of_k(np.zeros(1))[0] + 2.0 * (cx * g) @ cy.T) / pi


def oracle_weights(family, arg):
    """(g(k), number of terms) for a heat time or a multiplier delta."""
    if family == "heat":
        return (lambda k: np.exp(-(k * k) * arg)), int(sqrt(60.0 / arg)) + 2
    phi = ph.MultiplierSpec(family)
    if family == "heat_exp":
        return (lambda k: phi.phi(arg * k)), int(sqrt(60.0) / arg) + 2
    if family == "smooth_bump":
        return (lambda k: phi.phi(arg * k)), int(phi.support / arg) + 2
    # sinc_power: |g(k)| <= (arg k)^(-2m); sum the terms above 1e-20
    return (lambda k: phi.phi(arg * k)), int(1e20 ** (1 / (2 * phi.order)) / arg) + 2


def check_grid(batch, name, out, square, oracle=None, abort=True):
    """Finite values, nonnegative tails, symmetry, and the closed form.

    A value farther from the closed form than its tail + ORACLE_SLACK stops
    the run for heat grids; for multiplier grids (``abort=False``) it fails
    the grid's operation as a dishonest tail.
    """
    vals, tails = out
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(tails)) and tails.min() >= 0):
        raise WrongOutput(f"{name}: non-finite value or negative tail")
    if square:
        asym = float(np.abs(vals - vals.T).max())
        note_max(batch, "max_asymmetry", asym)
        if asym > SYMMETRY_TOL:
            raise WrongOutput(f"{name}: square grid asymmetric by {asym:.3g}")
    if oracle is not None:
        excess = float((np.abs(vals - oracle) - tails).max())
        kind = "heat" if abort else "multiplier"
        note_max(batch, f"max_{kind}_oracle_excess", excess)
        if excess > ORACLE_SLACK:
            if abort:
                raise WrongOutput(f"{name}: cosine series differs by {excess:.3g} beyond the tail")
            batch.ops[-1].failure = "tail"
    batch.pairs += vals.size


def check_replay(label, basis):
    """Evaluation at the quadrature nodes reproduces the stored node values."""
    node = basis.node_values
    rel = float(np.abs(basis.evaluate(basis.quad.nodes) - node).max() / np.abs(node).max())
    if rel > REPLAY_REL_TOL:
        raise WrongOutput(f"{label}: replay at the nodes differs from node_values "
                          f"by {rel:.3g} (relative)")
    return rel


# ---------------------------------------------------------------------------
# kernel-grid


class KernelGrid:
    """Heat and multiplier grids, mass and semigroup checks on built bases."""

    DOMAINS = [("ball2", ph.DomainSpec.ball(2, 0.5), 30, 256),
               ("simplex2", ph.DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 30, 256),
               ("interval", ph.DomainSpec.interval(-0.5, -0.5), 200, 128)]
    TIMES = (None, 0.05, 0.2, 1.0)           # None: the evaluator's t_min
    MULTIPLIERS = [("heat_exp", 0.2), ("smooth_bump", 0.3), ("sinc_power", 0.1)]
    SEMIGROUP_ST = [(0.05, 0.2), (0.2, 0.05), (0.1, 0.1), (0.5, 0.5)]
    # 4 mass and 4 semigroup checks per domain keep the short calls below
    # half of the 59, so call_p50_ms is the latency of a 256-point grid.
    POINT_CHECKS = 4
    BIG = 1024

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.items = []
        self.replay_rel = 0.0
        for label, spec, K, npts in self.DOMAINS:
            basis = ph.build_basis(spec, K)
            self.replay_rel = max(self.replay_rel, check_replay(label, basis))
            ev = ph.HeatKernelEvaluator(basis)
            sets = [sample_points(spec, npts, rng) for _ in range(4)]
            big = sample_points(spec, self.BIG, rng) if spec.n > 1 else None
            self.items.append((label, spec, ev, sets, big))

    def run(self, b):
        note_max(b, "max_replay_node_rel_err", self.replay_rel)
        for label, spec, ev, (A, B, C, D), big in self.items:
            interval = spec.kind == "interval"
            times = [ev.policy.t_min if t is None else t for t in self.TIMES]
            for t in times:
                for X, Y in ((A, A), (C, D)):
                    out = timed(b, f"{label}:heat_grid", ev.heat_kernel_grid, t, X, Y)
                    if out is not None:
                        oracle = None
                        if interval:
                            g, kmax = oracle_weights("heat", t)
                            oracle = cosine_series_kernel(g, X, Y, kmax)
                        check_grid(b, f"{label}:heat_grid t={t:g}", out, X is Y, oracle)
            for family, delta in self.MULTIPLIERS:
                phi = ph.MultiplierSpec(family)
                out = timed(b, f"{label}:multiplier_{family}", ev.multiplier_grid,
                            phi, delta, A, A)
                if out is not None:
                    oracle = None
                    if interval:
                        g, kmax = oracle_weights(family, delta)
                        oracle = cosine_series_kernel(g, A, A, kmax)
                    check_grid(b, f"{label}:{family} delta={delta:g}", out, True, oracle,
                               abort=False)
            for i in range(self.POINT_CHECKS):
                t = times[i % len(times)]
                m = timed(b, f"{label}:mass_check", ev.mass_check, t, B[i])
                if m is not None:
                    note_max(b, "max_mass_error", abs(m - 1.0))
                    if abs(m - 1.0) > MASS_TOL:
                        raise WrongOutput(f"{label}: |mass - 1| = {abs(m - 1):.3g} at t={t:g}")
            for i in range(self.POINT_CHECKS):
                s, t = self.SEMIGROUP_ST[i % len(self.SEMIGROUP_ST)]
                gap = timed(b, f"{label}:semigroup_check", ev.semigroup_check,
                            s, t, C[i], C[-1 - i])
                if gap is not None:
                    note_max(b, "max_semigroup_gap", gap)
                    if gap > SEMIGROUP_TOL:
                        raise WrongOutput(f"{label}: semigroup gap {gap:.3g}")
            if big is not None:
                out = timed(b, f"{label}:heat_grid_{self.BIG}", ev.heat_kernel_grid,
                            0.2, big, big)
                if out is not None:
                    check_grid(b, f"{label}:heat_grid_{self.BIG}", out, True)
                del out


# ---------------------------------------------------------------------------
# validate-2d and validate-interval


class Validate:
    """In-process ``polyheat validate all`` over a list of INI configs."""

    def __init__(self, seed, workdir, configs):
        self.workdir = Path(workdir)
        self.configs = []
        for label, body in configs:
            path = self.workdir / f"{label}.ini"
            path.write_text(body + f"\n[run]\nseed = {seed}\n")
            self.configs.append((label, path))

    def run(self, b):
        for label, path in self.configs:
            out = self.workdir / "reports" / label
            argv = ["--config", str(path), "validate", "all", "--out", str(out)]
            report_path = out / "validate_all.json"
            report_path.unlink(missing_ok=True)
            with redirect_stdout(io.StringIO()):
                code = timed(b, f"{label}:validate_all", cli.main, argv)
            # a report's suite verdicts stand for the call's own operation
            call_op = b.ops.pop()
            if call_op.failure or code not in (0, 1) or not report_path.exists():
                b.ops.append(Op(call_op.name, call_op.failure or "raised"))
                continue
            data = report_path.read_bytes()
            b.reports[label] = hashlib.sha256(data).hexdigest()
            report = json.loads(data)
            # each suite verdict is one operation of the call
            for suite, entry in report["suites"].items():
                b.ops.append(Op(f"{label}:{suite}", None if entry["pass"] else "gate"))
            if (code == 0) != bool(report["pass"]):
                raise WrongOutput(f"{label}: exit code {code} disagrees with the report")


def validate_2d(seed, workdir):
    common = "[basis]\nmax_degree = 20\n[grids]\ndeltas = 0.1\n[mc]\nsamples = 50000\n"
    return Validate(seed, workdir, [
        ("ball2", "[domain]\nkind = ball\nn = 2\ngamma = 0.5\n" + common),
        ("simplex2", "[domain]\nkind = simplex\nn = 2\nkappa = 0.5, 0.5, 0.5\n" + common),
    ])


def validate_interval(seed, workdir):
    return Validate(seed, workdir, [
        (f"interval_{a:g}_{b:g}",
         f"[domain]\nkind = interval\nalpha = {a}\nbeta = {b}\n[basis]\nmax_degree = 200\n")
        for a, b in INTERVAL_PAIRS
    ])


WORKLOADS = {
    "kernel-grid": KernelGrid,
    "validate-2d": validate_2d,
    "validate-interval": validate_interval,
}
