"""Geometric truth for the three weighted domains.

A :class:`DomainSpec` fixes the domain (interval, ball, or simplex), its
dimension, and the weight parameters.  Everything geometric derives from it:

* the weighted measure density,
* the intrinsic distance (pulled back from great-circle distance on the
  unit sphere through the canonical chart),
* the chart lift and its metric tensor / inverse / determinant,
* total masses in closed Beta-function form.

Conventions.  The interval is [-1, 1] with weight (1-x)^alpha (1+x)^beta,
alpha, beta > -1.  The ball is the closed unit ball in R^n with weight
(1-|x|^2)^(gamma-1/2), gamma > -1/2.  The simplex is {x_i >= 0, sum x_i <= 1}
with weight prod x_i^(kappa_i-1/2) * (1-sum x)^(kappa_(n+1)-1/2), each
kappa_i > -1/2.  The interval uses the n=1 ball chart (x, sqrt(1-x^2)),
under which its distance |arccos x - arccos y| is exactly the great-circle
distance of the lifted points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, pi, exp, sqrt, acos, asin

import numpy as np

from .errors import BoundarySingularityError, DomainError, ParameterError
from .polynomials import (
    MultiPoly,
    apply_ball_operator,
    apply_jacobi_operator,
    apply_simplex_operator,
)

INTERVAL = "interval"
BALL = "ball"
SIMPLEX = "simplex"

# Tolerance for domain-membership checks and arccos argument clamping.
CONTAINMENT_TOL = 1e-12
# Points closer than this to a singular boundary are refused by metric ops.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """Domain kind, dimension, and weight parameters (immutable)."""

    kind: str
    n: int
    params: tuple

    def __post_init__(self):
        if self.kind not in (INTERVAL, BALL, SIMPLEX):
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        if self.n < 1:
            raise ParameterError("dimension must be >= 1")
        if self.kind == INTERVAL:
            if self.n != 1:
                raise ParameterError("the interval is one-dimensional")
            if len(self.params) != 2:
                raise ParameterError("interval takes two parameters (alpha, beta)")
            a, b = self.params
            if a <= -1 or b <= -1:
                raise ParameterError("interval weight requires alpha > -1 and beta > -1")
        elif self.kind == BALL:
            if len(self.params) != 1:
                raise ParameterError("ball takes one parameter gamma")
            if self.params[0] <= -0.5:
                raise ParameterError("ball weight requires gamma > -1/2")
        else:
            if len(self.params) != self.n + 1:
                raise ParameterError(f"simplex in dimension {self.n} takes {self.n + 1} parameters")
            if any(k <= -0.5 for k in self.params):
                raise ParameterError("simplex weight requires every kappa_i > -1/2")

    # -- constructors ----------------------------------------------------

    @classmethod
    def interval(cls, alpha, beta):
        return cls(INTERVAL, 1, (float(alpha), float(beta)))

    @classmethod
    def ball(cls, n, gamma):
        return cls(BALL, int(n), (float(gamma),))

    @classmethod
    def simplex(cls, n, kappa):
        return cls(SIMPLEX, int(n), tuple(float(k) for k in kappa))

    # -- parameter accessors ----------------------------------------------

    @property
    def alpha(self):
        return self.params[0]

    @property
    def beta(self):
        return self.params[1]

    @property
    def gamma(self):
        return self.params[0]

    @property
    def kappa(self):
        return self.params

    def label(self):
        if self.kind == INTERVAL:
            return f"interval(alpha={self.alpha:g}, beta={self.beta:g})"
        if self.kind == BALL:
            return f"ball(n={self.n}, gamma={self.gamma:g})"
        return f"simplex(n={self.n}, kappa={tuple(round(k, 6) for k in self.kappa)})"

    def to_json_obj(self):
        return {"kind": self.kind, "n": self.n, "params": list(self.params)}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj["kind"], obj["n"], tuple(obj["params"]))

    def apply_operator(self, p):
        """Apply this domain's second-order operator to a polynomial."""
        if self.kind == INTERVAL:
            return apply_jacobi_operator(p, self.alpha, self.beta)
        if self.kind == BALL:
            return apply_ball_operator(p, self.gamma)
        return apply_simplex_operator(p, self.kappa)


# ---------------------------------------------------------------------------
# containment


def _as_point(spec, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (spec.n,):
        raise DomainError(f"point has shape {x.shape}, expected ({spec.n},)")
    return x


def contains(spec, x, tol=CONTAINMENT_TOL):
    x = _as_point(spec, x)
    if spec.kind == INTERVAL:
        return bool(-1 - tol <= x[0] <= 1 + tol)
    if spec.kind == BALL:
        return bool(x @ x <= 1 + tol)
    return bool(np.all(x >= -tol) and x.sum() <= 1 + tol)


def _require_inside(spec, x):
    x = _as_point(spec, x)
    if not contains(spec, x):
        raise DomainError(f"point {x.tolist()} lies outside the closed {spec.kind}")
    return x


def boundary_gap(spec, x):
    """Smallest defining coordinate margin to the boundary (Euclidean scale)."""
    x = _as_point(spec, x)
    if spec.kind == INTERVAL:
        return min(1 - x[0], 1 + x[0])
    if spec.kind == BALL:
        return 1 - float(x @ x)
    return float(min(x.min(), 1 - x.sum()))


# ---------------------------------------------------------------------------
# distance


def _clamped_arccos(c):
    return acos(min(1.0, max(-1.0, c)))


def distance(spec, x, y):
    """Intrinsic distance rho(x, y) in [0, pi]; symmetric; 0 iff x = y."""
    x = _require_inside(spec, x)
    y = _require_inside(spec, y)
    if np.array_equal(x, y):
        # arccos near 1 would turn rounding into an O(sqrt(eps)) artifact
        return 0.0
    if spec.kind == INTERVAL:
        return abs(_clamped_arccos(x[0]) - _clamped_arccos(y[0]))
    if spec.kind == BALL:
        c = float(x @ y) + sqrt(max(0.0, 1 - float(x @ x))) * sqrt(max(0.0, 1 - float(y @ y)))
        return _clamped_arccos(c)
    c = float(np.sqrt(np.clip(x, 0, None) * np.clip(y, 0, None)).sum())
    c += sqrt(max(0.0, 1 - x.sum())) * sqrt(max(0.0, 1 - y.sum()))
    return _clamped_arccos(c)


def distance_many(spec, x, points):
    """Vectorized rho(x, p) for an (m, n) array of points."""
    x = _require_inside(spec, x)
    pts = np.asarray(points, dtype=float)
    if spec.kind == INTERVAL:
        out = np.abs(np.arccos(np.clip(pts[:, 0], -1, 1)) - _clamped_arccos(x[0]))
    elif spec.kind == BALL:
        c = pts @ x + np.sqrt(np.clip(1 - (pts * pts).sum(axis=1), 0, None)) * sqrt(
            max(0.0, 1 - float(x @ x))
        )
        out = np.arccos(np.clip(c, -1, 1))
    else:
        c = np.sqrt(np.clip(pts, 0, None) * np.clip(x, 0, None)[None, :]).sum(axis=1)
        c = c + np.sqrt(np.clip(1 - pts.sum(axis=1), 0, None)) * sqrt(max(0.0, 1 - x.sum()))
        out = np.arccos(np.clip(c, -1, 1))
    out[np.all(pts == x[None, :], axis=1)] = 0.0
    return out


def distance_matrix(spec, X, Y):
    """Pairwise rho for an (p, n) and a (q, n) array: one product of lifted rows."""
    X = np.array([_require_inside(spec, x) for x in X])
    Y = np.array([_require_inside(spec, y) for y in Y])
    out = np.arccos(np.clip(lift_rows(spec, X) @ lift_rows(spec, Y).T, -1, 1))
    out[np.all(X[:, None, :] == Y[None, :, :], axis=2)] = 0.0
    return out


def rho_to_boundary(spec, x):
    """Intrinsic distance from x to the domain boundary."""
    x = _require_inside(spec, x)
    if spec.kind == INTERVAL:
        th = _clamped_arccos(x[0])
        return min(th, pi - th)
    if spec.kind == BALL:
        return asin(sqrt(max(0.0, 1 - float(x @ x))))
    vals = [sqrt(max(0.0, v)) for v in x] + [sqrt(max(0.0, 1 - x.sum()))]
    return asin(min(1.0, min(vals)))


# ---------------------------------------------------------------------------
# weight density


def weight_density(spec, x):
    """Density of the weighted measure at x (strictly positive inside)."""
    x = _require_inside(spec, x)
    if spec.kind == INTERVAL:
        factors = [(1 - x[0], spec.alpha), (1 + x[0], spec.beta)]
    elif spec.kind == BALL:
        factors = [(1 - float(x @ x), spec.gamma - 0.5)]
    else:
        factors = [(float(x[i]), spec.kappa[i] - 0.5) for i in range(spec.n)]
        factors.append((1 - float(x.sum()), spec.kappa[spec.n] - 0.5))
    out = 1.0
    for base, expo in factors:
        if base <= 0.0:
            if expo < 0.0:
                raise BoundarySingularityError(
                    f"weight density singular at the boundary of the {spec.kind}"
                )
            out *= 0.0 if expo > 0.0 else 1.0
        else:
            out *= base ** expo
    return out


def weight_log_gradient(spec, x):
    """Gradient of log(weight density) at an interior point."""
    x = _require_inside(spec, x)
    if boundary_gap(spec, x) < BOUNDARY_TOL:
        raise BoundarySingularityError("log-weight gradient requested too close to the boundary")
    if spec.kind == INTERVAL:
        return np.array([-spec.alpha / (1 - x[0]) + spec.beta / (1 + x[0])])
    if spec.kind == BALL:
        return (1.0 - 2.0 * spec.gamma) * x / (1 - float(x @ x))
    head = (np.asarray(spec.kappa[: spec.n]) - 0.5) / x
    tail = (spec.kappa[spec.n] - 0.5) / (1 - float(x.sum()))
    return head - tail


# ---------------------------------------------------------------------------
# chart lift and metric


def lift_rows(spec, points):
    """Chart lift of each row of an (m, n) array of domain points, unnormalized.

    Ball and interval rows become (x, sqrt(1 - |x|^2)) on the upper
    hemisphere, simplex rows (sqrt(x_1), ..., sqrt(x_n), sqrt(1 - sum x)) on
    the positive orthant, so rho(x, y) = arccos(lift(x) . lift(y)).
    """
    pts = np.asarray(points, dtype=float)
    out = np.empty((len(pts), spec.n + 1))
    if spec.kind == SIMPLEX:
        np.sqrt(np.clip(pts, 0, None), out=out[:, : spec.n])
        last = 1 - pts.sum(axis=1)
    else:
        out[:, : spec.n] = pts
        last = 1 - (pts * pts).sum(axis=1)
    np.sqrt(np.clip(last, 0, None), out=out[:, spec.n])
    return out


def chart_lift(spec, x):
    """Lift x to the unit sphere in R^(n+1) through the canonical chart."""
    y = lift_rows(spec, _require_inside(spec, x)[None, :])[0]
    return y / np.linalg.norm(y)


def _require_interior(spec, x):
    x = _require_inside(spec, x)
    if boundary_gap(spec, x) < BOUNDARY_TOL:
        raise BoundarySingularityError(
            f"metric evaluation within {BOUNDARY_TOL:g} of the {spec.kind} boundary"
        )
    return x


def metric_tensor(spec, x):
    """Chart metric g(x); symmetric positive definite at interior points."""
    x = _require_interior(spec, x)
    n = spec.n
    if spec.kind == SIMPLEX:
        g = np.full((n, n), 0.25 / (1 - x.sum()))
        g[np.diag_indices(n)] += 0.25 / x
        return g
    denom = 1 - float(x @ x)
    return np.eye(n) + np.outer(x, x) / denom


def inverse_metric(spec, x):
    """Closed-form inverse of the chart metric."""
    x = _require_interior(spec, x)
    n = spec.n
    if spec.kind == SIMPLEX:
        return 4.0 * (np.diag(x) - np.outer(x, x))
    return np.eye(n) - np.outer(x, x)


def metric_det(spec, x):
    """Closed-form determinant of the chart metric."""
    x = _require_interior(spec, x)
    if spec.kind == SIMPLEX:
        return 4.0 ** (-spec.n) / ((1 - float(x.sum())) * float(np.prod(x)))
    return 1.0 / (1 - float(x @ x))


def inverse_metric_polys(spec):
    """Entries of the inverse metric as exact polynomials (n x n nested list)."""
    n = spec.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if spec.kind == SIMPLEX:
                e_ij = [0] * n
                e_ij[i] += 1
                e_ij[j] += 1
                terms = {tuple(e_ij): -4.0}
                if i == j:
                    e_i = [0] * n
                    e_i[i] = 1
                    terms[tuple(e_i)] = terms.get(tuple(e_i), 0.0) + 4.0
                row.append(MultiPoly(n, terms))
            else:
                e_ij = [0] * n
                e_ij[i] += 1
                e_ij[j] += 1
                terms = {tuple(e_ij): -1.0}
                if i == j:
                    terms[(0,) * n] = 1.0
                row.append(MultiPoly(n, terms))
        out.append(row)
    return out


def perturbed_identity_det(a):
    """det(diag(a) + ones) via the closed form prod a + sum_j prod_(k!=j) a_k."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1 or a.size < 1:
        raise DomainError("expected a non-empty vector")
    total = np.prod(a)
    for j in range(a.size):
        total += np.prod(np.delete(a, j))
    return float(total)


# ---------------------------------------------------------------------------
# masses


def log_beta(a, b):
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def total_mass(spec):
    """Total weighted mass of the domain, in closed form via log-Gamma."""
    if spec.kind == INTERVAL:
        return exp((spec.alpha + spec.beta + 1) * log(2.0) + log_beta(spec.alpha + 1, spec.beta + 1))
    if spec.kind == BALL:
        g = spec.gamma
        return exp(0.5 * spec.n * log(pi) + lgamma(g + 0.5) - lgamma(g + 0.5 + 0.5 * spec.n))
    logs = sum(lgamma(k + 0.5) for k in spec.kappa)
    return exp(logs - lgamma(sum(spec.kappa) + 0.5 * (spec.n + 1)))
