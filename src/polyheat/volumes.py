"""Metric-ball volumes V(x, r) and their closed-form comparability surrogates.

On the interval the volume is exact through regularized incomplete Beta
integrals.  On the ball and simplex it is estimated by Monte Carlo with
exact sampling from the normalized weighted measure (Beta radial profile on
the ball, Dirichlet on the simplex), using a counter-based Philox generator
keyed by (seed, query id) so that every query is reproducible regardless of
evaluation order.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from math import acos, pi, sqrt

import numpy as np
from scipy.special import betainc, betaincinv

from .domains import (
    BALL,
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    _require_inside,
    distance_many,
    log_beta,
    total_mass,
)
from .errors import DomainError, PrecisionError

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


def _query_key(seed, x, r, query_id):
    if query_id is None:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack(f"<{len(x)}d", *x))
        h.update(struct.pack("<d", r))
        query_id = int.from_bytes(h.digest(), "little")
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, query_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)


def _rng_for(seed, x, r, query_id):
    return np.random.Generator(np.random.Philox(key=_query_key(seed, x, r, query_id)))


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


def _interval_volume(spec, x, r):
    theta = acos(min(1.0, max(-1.0, x[0])))
    lo, hi = max(0.0, theta - r), min(pi, theta + r)
    # y runs over (cos(hi), cos(lo)); substitute u = (1+y)/2
    a, b = spec.alpha, spec.beta
    u_lo, u_hi = (1 + np.cos(hi)) / 2, (1 + np.cos(lo)) / 2
    scale = 2.0 ** (a + b + 1) * np.exp(log_beta(b + 1, a + 1))
    val = scale * (betainc(b + 1, a + 1, u_hi) - betainc(b + 1, a + 1, u_lo))
    return float(val)


def ball_volume(
    spec,
    x,
    r,
    samples=DEFAULT_SAMPLES,
    seed=0,
    query_id=None,
    strata=RADIAL_STRATA,
):
    """Weighted volume of the metric ball of radius r around x.

    Interval: deterministic (incomplete Beta), stderr 0.  Ball and simplex:
    seeded Monte Carlo; the ball samples are stratified over equal-probability
    radial shells of the Beta(n/2, gamma+1/2) profile of r^2.
    """
    x = _require_inside(spec, x)
    if r <= 0:
        raise DomainError("radius must be positive")
    mass = total_mass(spec)
    if r >= pi:
        return VolumeEstimate(mass, 0.0, "exact1d" if spec.kind == INTERVAL else "montecarlo", 0)
    if spec.kind == INTERVAL:
        return VolumeEstimate(_interval_volume(spec, x, r), 0.0, "exact1d", 0)

    rng = _rng_for(seed, x, r, query_id)
    if spec.kind == BALL and strata > 1:
        n, g = spec.n, spec.gamma
        edges = betaincinv(n / 2.0, g + 0.5, np.linspace(0.0, 1.0, strata + 1))
        per = samples // strata
        p_hats = np.empty(strata)
        for s in range(strata):
            dirs = rng.standard_normal((per, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            q = rng.uniform(s / strata, (s + 1) / strata, size=per)
            v = betaincinv(n / 2.0, g + 0.5, q)
            v = np.clip(v, edges[s], edges[s + 1])
            pts = np.sqrt(v)[:, None] * dirs
            p_hats[s] = np.mean(distance_many(spec, x, pts) < r)
        p = p_hats.mean()
        var = np.sum(p_hats * (1 - p_hats) / per) / strata ** 2
        used = per * strata
    else:
        pts = sample_measure(spec, samples, rng)
        hits = distance_many(spec, x, pts) < r
        p = hits.mean()
        var = p * (1 - p) / samples
        used = samples
    return VolumeEstimate(mass * p, mass * sqrt(max(var, 0.0)), "montecarlo", used)


class VolumeSource:
    """Caching front-end used by the validation scans.

    Each distinct (x, r) query gets its own deterministic generator derived
    from (seed, hash(x, r)), so results do not depend on evaluation order.
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
