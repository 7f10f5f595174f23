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
from math import lgamma, log, pi, exp, sqrt, acos, isfinite

import numpy as np

from .errors import BoundarySingularityError, DomainError, ParameterError

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
        # NaN fails every range comparison below, and inf passes them
        if not all(isfinite(p) for p in self.params):
            raise ParameterError(f"{self.kind} parameters must be finite numbers, got "
                                 + ", ".join(f"{p:g}" for p in self.params))
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


# ---------------------------------------------------------------------------
# points as rows: the point functions below take one point of shape (n,) (a
# scalar on the interval), the one-row case, or an (m, n) array of rows


def _shape(spec, x):
    """(``x`` as (m, n) float rows, whether it was one point)."""
    a = np.asarray(x, dtype=float)
    one = a.ndim <= 1
    X = a.reshape(1, -1) if one else a
    if X.ndim != 2 or X.shape[1] != spec.n:
        raise DomainError(f"point has shape {a.shape}, expected ({spec.n},) or (m, {spec.n})")
    return X, one


def _answer(values, one):
    """Per-row values, or one point's row (a Python scalar when 0-d)."""
    if not one:
        return values
    return values[0].item() if values.ndim == 1 else values[0]


def _sqnorm(X):
    """|x|^2 of each row, summed as ``x @ x`` sums one point, to the last bit."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def _gap(spec, X):
    """Smallest defining coordinate of each row, >= 0 on the closed domain:
    of (1 - x, 1 + x), 1 - |x|^2 or (x_1, ..., x_n, 1 - sum x)."""
    if spec.kind == INTERVAL:
        return 1 - np.abs(X[:, 0])
    if spec.kind == BALL:
        return 1 - _sqnorm(X)
    return np.minimum(X.min(axis=1), 1 - X.sum(axis=1))


def _rows(spec, x, interior=False):
    """``x`` as (m, n) rows of the closed domain, and whether it was one point.

    A row outside (NaN counts as outside) raises DomainError; with ``interior``,
    a row within BOUNDARY_TOL of the boundary raises BoundarySingularityError."""
    X, one = _shape(spec, x)
    gap = _gap(spec, X)
    # one point, the common call, skips the reduction: a microsecond a call
    least = float(gap[0]) if len(gap) == 1 else gap.min(initial=np.inf)
    if not least >= -CONTAINMENT_TOL:
        bad = X[~(gap >= -CONTAINMENT_TOL)][0]
        raise DomainError(f"point {bad.tolist()} lies outside the closed {spec.kind}")
    if interior and least < BOUNDARY_TOL:
        raise BoundarySingularityError(
            f"evaluation within {BOUNDARY_TOL:g} of the {spec.kind} boundary"
        )
    return X, one


def _require_inside(spec, x):
    """One point of the closed domain as an (n,) array; rows or other shapes raise."""
    X, one = _rows(spec, x)
    if not one:
        raise DomainError(f"point has shape {np.shape(x)}, expected ({spec.n},)")
    return X[0]


def contains(spec, x, tol=CONTAINMENT_TOL):
    X, one = _shape(spec, x)
    return _answer(_gap(spec, X) >= -tol, one)


def boundary_gap(spec, x):
    """Smallest defining coordinate margin to the boundary (Euclidean scale)."""
    X, one = _shape(spec, x)
    return _answer(_gap(spec, X), one)


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
    """rho(x, p) for each row p of an (m, n) array: row 0 of ``distance_matrix``."""
    return distance_matrix(spec, _require_inside(spec, x)[None, :], points)[0]


def distance_matrix(spec, X, Y):
    """Pairwise rho for a (p, n) and a (q, n) array of domain points: on the
    interval |arccos x - arccos y|, elsewhere arccos of the lifted product."""
    X, _ = _rows(spec, X)
    Y, _ = _rows(spec, Y)
    if spec.kind == INTERVAL:
        out = np.abs(np.subtract.outer(np.arccos(np.clip(X[:, 0], -1, 1)),
                                       np.arccos(np.clip(Y[:, 0], -1, 1))))
    else:
        out = np.arccos(np.clip(lift_rows(spec, X) @ lift_rows(spec, Y).T, -1, 1))
    out[np.all(X[:, None, :] == Y[None, :, :], axis=2)] = 0.0
    return out


def rho_to_boundary(spec, x):
    """Intrinsic distance from x to the domain boundary."""
    X, one = _rows(spec, x)
    if spec.kind == INTERVAL:
        th = np.arccos(np.clip(X[:, 0], -1, 1))
        out = np.minimum(th, pi - th)
    else:
        # the smallest lifted coordinate of a face, sqrt of the smallest gap
        out = np.arcsin(np.minimum(np.sqrt(np.maximum(_gap(spec, X), 0.0)), 1.0))
    return _answer(out, one)


# ---------------------------------------------------------------------------
# weight density


def weight_density(spec, x):
    """Density of the weighted measure at x (strictly positive inside)."""
    X, one = _rows(spec, x)
    # the defining coordinates of _gap, each to its weight exponent
    if spec.kind == INTERVAL:
        b, e = np.hstack([1 - X, 1 + X]), np.array([spec.alpha, spec.beta])
    elif spec.kind == BALL:
        b, e = _gap(spec, X)[:, None], np.array([spec.gamma - 0.5])
    else:
        b, e = np.hstack([X, 1 - X.sum(axis=1, keepdims=True)]), np.asarray(spec.kappa) - 0.5
    if np.any((b <= 0.0) & (e < 0.0)):
        raise BoundarySingularityError(f"weight density singular at the boundary of the {spec.kind}")
    # a margin at or just below zero is zero: the factor is 0, or 1 for exponent 0
    return _answer(np.prod(np.maximum(b, 0.0) ** e, axis=1), one)


def weight_log_gradient(spec, x):
    """Gradient of log(weight density) at an interior point."""
    X, one = _rows(spec, x, interior=True)
    if spec.kind == INTERVAL:
        out = (-spec.alpha / (1 - X[:, 0]) + spec.beta / (1 + X[:, 0]))[:, None]
    elif spec.kind == BALL:
        out = (1.0 - 2.0 * spec.gamma) * X / (1 - _sqnorm(X))[:, None]
    else:
        head = (np.asarray(spec.kappa[: spec.n]) - 0.5) / X
        out = head - ((spec.kappa[spec.n] - 0.5) / (1 - X.sum(axis=1)))[:, None]
    return _answer(out, one)


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


def metric_tensor(spec, x):
    """Chart metric g(x); symmetric positive definite at interior points."""
    X, one = _rows(spec, x, interior=True)
    i = np.arange(spec.n)
    if spec.kind == SIMPLEX:
        g = np.zeros((len(X), spec.n, spec.n)) + (0.25 / (1 - X.sum(axis=1)))[:, None, None]
        g[:, i, i] += 0.25 / X
    else:
        g = X[:, :, None] * X[:, None, :] / (1 - _sqnorm(X))[:, None, None]
        g[:, i, i] += 1.0
    return _answer(g, one)


def inverse_metric(spec, x):
    """Closed-form inverse of the chart metric: I - x x^T, 4 (diag x - x x^T)."""
    X, one = _rows(spec, x, interior=True)
    G = np.zeros((len(X), spec.n, spec.n))
    i = np.arange(spec.n)
    G[:, i, i] = X if spec.kind == SIMPLEX else 1.0
    G -= X[:, :, None] * X[:, None, :]
    return _answer(4.0 * G if spec.kind == SIMPLEX else G, one)


def metric_det(spec, x):
    """Closed-form determinant of the chart metric."""
    X, one = _rows(spec, x, interior=True)
    if spec.kind == SIMPLEX:
        out = 4.0 ** (-spec.n) / ((1 - X.sum(axis=1)) * np.prod(X, axis=1))
    else:
        out = 1.0 / (1 - _sqnorm(X))
    return _answer(out, one)


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
