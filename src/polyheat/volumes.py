"""Metric-ball volumes V(x, r) and their closed-form comparability surrogates.

On the interval the volume is exact through regularized incomplete Beta
integrals.  On the ball and simplex it is estimated by Monte Carlo.  The
chart maps the ball onto the upper hemisphere of S^n and the simplex onto
the positive orthant (x_i = y_i^2), so rho(x, y) < r exactly when
lift(x) . lift(y) > cos r.  One exact sample of the normalized weighted
measure (Beta radial profile on the ball, Dirichlet on the simplex) is drawn
per (spec, samples, seed, strata) from a counter-based Philox generator keyed
by the seed, stored lifted to the sphere, and every query is one mat-vec on
it.

All queries of a seed share that sample, so their errors are correlated.
Each estimate is still unbiased and carries its own standard error, results
do not depend on the order of the queries, and V(x, 2r) >= V(x, r) holds
exactly, since every hit within r is a hit within 2r.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, pi, sqrt

import numpy as np
from scipy.special import betainc, betaincinv

from .domains import (
    BALL,
    CONTAINMENT_TOL,
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    _require_inside,
    chart_lift,
    log_beta,
    total_mass,
)
from .errors import DomainError, ParameterError, PrecisionError

DEFAULT_SAMPLES = 1_000_000
RADIAL_STRATA = 8


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    method: str  # "exact1d" | "montecarlo"
    samples: int


def volume_surrogate(spec, x, r):
    """Closed-form comparability surrogate for V(x, r); no normalizing constant."""
    x = _require_inside(spec, x)
    if not 0 < r <= pi:
        raise DomainError("surrogate radius must lie in (0, pi]")
    if spec.kind == INTERVAL:
        return float(
            r
            * (1 - x[0] + r * r) ** (spec.alpha + 0.5)
            * (1 + x[0] + r * r) ** (spec.beta + 0.5)
        )
    if spec.kind == BALL:
        return float(r ** spec.n * (1 - x @ x + r * r) ** spec.gamma)
    out = r ** spec.n * (1 - x.sum() + r * r) ** spec.kappa[spec.n]
    for i in range(spec.n):
        out *= (x[i] + r * r) ** spec.kappa[i]
    return float(out)


def sample_measure(spec, count, rng):
    """Draw ``count`` points from the normalized weighted measure."""
    if spec.kind == BALL:
        n, g = spec.n, spec.gamma
        dirs = rng.standard_normal((count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        v = rng.beta(n / 2.0, g + 0.5, size=count)
        return np.sqrt(v)[:, None] * dirs
    if spec.kind == SIMPLEX:
        alpha = np.asarray(spec.kappa) + 0.5
        pts = rng.dirichlet(alpha, size=count)
        return pts[:, : spec.n]
    raise DomainError("direct sampling implemented for ball and simplex")


def _interval_volumes(spec, xs, r):
    """Exact V(x, r) on the interval for an array of points x, 0 < r < pi."""
    # math.acos, not np.arccos, whose SIMD loop differs in the last bit on
    # some points; the betainc differences below cancel and magnify it
    theta = np.array([acos(v) for v in np.clip(xs, -1.0, 1.0).tolist()])
    lo, hi = np.maximum(0.0, theta - r), np.minimum(pi, theta + r)
    # y runs over (cos(hi), cos(lo)); substitute u = (1+y)/2
    a, b = spec.alpha, spec.beta
    u_lo, u_hi = (1 + np.cos(hi)) / 2, (1 + np.cos(lo)) / 2
    scale = 2.0 ** (a + b + 1) * np.exp(log_beta(b + 1, a + 1))
    return scale * (betainc(b + 1, a + 1, u_hi) - betainc(b + 1, a + 1, u_lo))


# (key, lifted sample) of the last Monte Carlo query: one sample is kept
_cloud = (None, None)


def _lifted_cloud(spec, samples, seed, strata):
    """The lifted sample for this key, drawn only when the key changes.

    The old sample is released before the new one is drawn, so that two are
    never held at once (``functools.lru_cache`` would hold both while it
    draws).
    """
    global _cloud
    key = (spec, samples, seed, strata)
    entry = _cloud
    if entry[0] == key:
        return entry[1]
    del entry
    _cloud = (None, None)
    cloud = _draw_lifted(spec, samples, seed, strata)
    _cloud = (key, cloud)
    return cloud


def _draw_lifted(spec, samples, seed, strata):
    """The seed's sample of the normalized measure, lifted to the chart sphere.

    Ball rows are (sqrt(v) dir, sqrt(1 - v)) with v the squared radius, drawn
    stratum-major over ``strata`` equal-probability shells of its
    Beta(n/2, gamma+1/2) law; simplex rows are the square roots of a
    Dirichlet draw, last coordinate included.  Read-only once built.
    """
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    n = spec.n
    if spec.kind == BALL:
        a, b = n / 2.0, spec.gamma + 0.5
        edges = betaincinv(a, b, np.linspace(0.0, 1.0, strata + 1))
        per = samples // strata
        cloud = np.empty((per * strata, n + 1))
        for s in range(strata):
            rows = cloud[s * per:(s + 1) * per]
            dirs = rng.standard_normal((per, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            v = betaincinv(a, b, rng.uniform(s / strata, (s + 1) / strata, size=per))
            v = np.clip(v, edges[s], edges[s + 1])
            np.multiply(np.sqrt(v)[:, None], dirs, out=rows[:, :n])
            np.sqrt(1 - v, out=rows[:, n])
    else:
        cloud = rng.dirichlet(np.asarray(spec.kappa) + 0.5, size=samples)
        np.sqrt(cloud, out=cloud)
    cloud.flags.writeable = False
    return cloud


def ball_volume(spec, x, r, samples=DEFAULT_SAMPLES, seed=0, strata=RADIAL_STRATA):
    """Weighted volume of the metric ball of radius r around x.

    Interval: deterministic (incomplete Beta), stderr 0.  Ball and simplex:
    the fraction of the seed's lifted sample with lift(x) . y > cos r; on the
    ball the sample is stratified over equal-probability radial shells of
    the Beta(n/2, gamma+1/2) profile of r^2.
    """
    x = _require_inside(spec, x)
    if r <= 0:
        raise DomainError("radius must be positive")
    mass = total_mass(spec)
    if r >= pi:
        return VolumeEstimate(mass, 0.0, "exact1d" if spec.kind == INTERVAL else "montecarlo", 0)
    if spec.kind == INTERVAL:
        return VolumeEstimate(float(_interval_volumes(spec, x, r)[0]), 0.0, "exact1d", 0)

    strata = strata if spec.kind == BALL else 1
    if samples < strata:
        raise ParameterError(f"Monte Carlo needs at least {strata} samples, got {samples}")
    cloud = _lifted_cloud(spec, samples, seed, strata)
    hits = cloud @ chart_lift(spec, x) > cos(r)
    p_hats = hits.reshape(strata, -1).mean(axis=1)
    per = len(cloud) // strata
    p = p_hats.mean()
    var = np.sum(p_hats * (1 - p_hats) / per) / strata ** 2
    return VolumeEstimate(mass * p, mass * sqrt(max(var, 0.0)), "montecarlo", len(cloud))


class VolumeSource:
    """Caching front-end used by the validation scans.

    Each distinct (x, r) query is answered once by :func:`ball_volume` on
    the sample of ``seed``, so results do not depend on evaluation order.
    """

    def __init__(self, spec: DomainSpec, samples=DEFAULT_SAMPLES, seed=0, max_rel_stderr=None):
        self.spec = spec
        self.samples = samples
        self.seed = seed
        self.max_rel_stderr = max_rel_stderr
        self._cache = {}

    def __call__(self, x, r) -> VolumeEstimate:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = (tuple(np.round(x, 15)), round(float(r), 15))
        if key not in self._cache:
            est = ball_volume(self.spec, x, r, samples=self.samples, seed=self.seed)
            if (
                self.max_rel_stderr is not None
                and est.value > 0
                and est.stderr > self.max_rel_stderr * est.value
            ):
                raise PrecisionError(
                    f"volume stderr {est.stderr:.3g} exceeds "
                    f"{self.max_rel_stderr:.0%} of V={est.value:.3g}; raise the sample budget"
                )
            self._cache[key] = est
        return self._cache[key]

    def values(self, points, r):
        """V(x, r).value for each row of ``points``, through the same cache.

        On the interval the misses are one vectorized incomplete-Beta
        evaluation; on the ball and simplex each point is one query as
        through ``__call__``.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.spec.n)
        if self.spec.kind != INTERVAL:
            return np.array([self(x, r).value for x in pts])
        if r <= 0:
            raise DomainError("radius must be positive")
        outside = ~(np.abs(pts[:, 0]) <= 1 + CONTAINMENT_TOL)     # NaN is outside too
        if outside.any():
            raise DomainError(f"point {pts[outside][0].tolist()} lies outside the closed interval")
        rr = round(float(r), 15)
        keys = [(x, rr) for x in map(tuple, np.round(pts, 15).tolist())]
        # first row of each missing key, as a run of single queries would take
        miss = {}
        for i, key in enumerate(keys):
            if key not in self._cache:
                miss.setdefault(key, i)
        if miss:
            if r >= pi:
                vals = np.full(len(miss), total_mass(self.spec))
            else:
                vals = _interval_volumes(self.spec, pts[list(miss.values()), 0], r)
            for key, v in zip(miss, vals.tolist()):
                self._cache[key] = VolumeEstimate(v, 0.0, "exact1d", 0)
        return np.array([self._cache[key].value for key in keys])
