"""Geometric truth for the three weighted domains.

A :class:`DomainSpec` fixes the domain (interval, ball, or simplex), its
dimension, and the weight parameters; the density, distance, chart lift,
metric and total mass derive from it.

Conventions.  The interval is [-1, 1] with weight (1-x)^alpha (1+x)^beta,
alpha, beta > -1.  The ball is the closed unit ball in R^n with weight
(1-|x|^2)^(gamma-1/2), gamma > -1/2.  The simplex is {x_i >= 0, sum x_i <= 1}
with weight prod x_i^(kappa_i-1/2) * (1-sum x)^(kappa_(n+1)-1/2), each
kappa_i > -1/2.

Each domain is a piece of the sphere S^n in R^N, N = n + 1, with density
prod |y_i|^(2 kappa_i) and the great-circle distance (Dunkl & Xu, 2nd ed.
2014, 5.2-5.3); the closed forms read it from the record ``spec.lift``:

* ball(n, gamma): the upper hemisphere, y = (x, sqrt(1 - |x|^2)),
  kappa = (0, ..., 0, gamma), one face y_N = 0; ``step`` 1, x = y[:n];
* simplex(n, kappa): the positive orthant, y^2 = (x, 1 - sum x), every
  y_i = 0 a face; ``step`` 2, x_i = y_i^2;
* interval(alpha, beta): simplex(1, (beta + 1/2, alpha + 1/2)) at
  x = 2u - 1, with its distances doubled: ``scale`` 2 (1 elsewhere).

The interval keeps its own distance |arccos x - arccos y|, as arccos of the
lifted simplex(1) product loses up to 1e-12: its chart and metric are the
circle (x, sqrt(1 - x^2)) of ball(1), whose angle is that distance.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from math import lgamma, log, exp, acos, isfinite

import numpy as np

from .errors import BoundarySingularityError, CapacityError, DomainError, ParameterError

INTERVAL = "interval"
BALL = "ball"
SIMPLEX = "simplex"

# Tolerance for domain-membership checks and arccos argument clamping.
CONTAINMENT_TOL = 1e-12
# Points closer than this to a singular boundary are refused by metric ops.
BOUNDARY_TOL = 1e-12


# the lifted piece of the sphere, as the module docstring describes it; the
# faces are the last lifted coordinates
Lift = namedtuple("Lift", "kappa faces step scale")


# per kind: the names of the parameters (the simplex takes n + 1) and their range
_PARAMETERS = {INTERVAL: (("alpha", "beta"), "alpha > -1 and beta > -1"),
               BALL: (("gamma",), "gamma > -1/2"), SIMPLEX: ((), "every kappa_i > -1/2")}


@dataclass(frozen=True)
class DomainSpec:
    """Domain kind, dimension, and weight parameters (immutable)."""

    kind: str
    n: int
    params: tuple

    def __post_init__(self):
        if self.kind not in (INTERVAL, BALL, SIMPLEX):
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        if self.n < 1 or (self.kind == INTERVAL and self.n != 1):
            raise ParameterError("dimension must be >= 1, and 1 on the interval")
        names, bound = _PARAMETERS[self.kind]
        names = names or [f"kappa_{i + 1}" for i in range(self.n + 1)]
        if len(self.params) != len(names):
            raise ParameterError(f"{self.kind} in dimension {self.n} takes ({', '.join(names)}), "
                                 f"got {len(self.params)} parameters")
        # NaN fails every range comparison below, and inf passes them
        if not all(isfinite(p) for p in self.params):
            raise ParameterError(f"{self.kind} parameters must be finite numbers, got "
                                 + ", ".join(f"{p:g}" for p in self.params))
        # each lifted half-exponent exceeds -1/2: alpha + 1/2 on the interval
        if min(self.lift.kappa) <= -0.5:
            raise ParameterError(f"{self.kind} weight requires {bound}")

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

    @cached_property
    def lift(self):
        """The :class:`Lift` of this domain, built once."""
        if self.kind == INTERVAL:
            return Lift((self.beta + 0.5, self.alpha + 0.5), (0, 1), 2, 2.0)
        if self.kind == BALL:
            return Lift((0.0,) * self.n + (self.gamma,), (self.n,), 1, 1.0)
        return Lift(self.kappa, tuple(range(self.n + 1)), 2, 1.0)

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


def _margins(spec, X):
    """The defining coordinates scale y_i^2 of the faces, one column a face:
    1 - |x|^2, (x, 1 - sum x) or (1 + x, 1 - x); >= 0 on the closed domain."""
    lift = spec.lift
    if lift.step == 1:
        return (1 - _sqnorm(X))[:, None]
    return np.concatenate([X + (lift.scale - 1), 1 - X.sum(axis=1, keepdims=True)], axis=1)


def _gap(spec, X):
    """Smallest defining coordinate of each row, the row minimum of ``_margins``."""
    lift = spec.lift
    if lift.step == 1:
        return 1 - _sqnorm(X)
    # one column needs no row reductions, which cost a microsecond each
    low, total = (X[:, 0], X[:, 0]) if spec.n == 1 else (X.min(axis=1), X.sum(axis=1))
    return np.minimum(low + (lift.scale - 1), 1 - total)


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
    return _clamped_arccos(float(lift_rows(spec, x[None, :])[0] @ lift_rows(spec, y[None, :])[0]))


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
    """Intrinsic distance to the boundary: scale arcsin of the least face y_i."""
    X, one = _rows(spec, x)
    s = spec.lift.scale
    out = s * np.arcsin(np.minimum(np.sqrt(np.maximum(_gap(spec, X) / s, 0.0)), 1.0))
    return _answer(out, one)


# ---------------------------------------------------------------------------
# weight density


def weight_density(spec, x):
    """Density of the weighted measure at x (strictly positive inside)."""
    X, one = _rows(spec, x)
    # each defining coordinate to the exponent kappa_i - 1/2 of its face
    b, e = _margins(spec, X), np.subtract(_face_kappa(spec), 0.5)
    if np.any((b <= 0.0) & (e < 0.0)):
        raise BoundarySingularityError(f"weight density singular at the boundary of the {spec.kind}")
    # a margin at or just below zero is zero: the factor is 0, or 1 for exponent 0
    return _answer(np.prod(np.maximum(b, 0.0) ** e, axis=1), one)


def weight_log_gradient(spec, x):
    """Gradient of log(weight density) at an interior point."""
    X, one = _rows(spec, x, interior=True)
    # sum over the faces of (kappa_i - 1/2) grad(b_i) / b_i, b = _margins
    b, e = _margins(spec, X), np.subtract(_face_kappa(spec), 0.5)
    if spec.lift.step == 1:
        out = (1.0 - 2.0 * spec.lift.kappa[-1]) * X / b
    else:
        out = e[:-1] / b[:, :-1] - (e[-1] / b[:, -1])[:, None]
    return _answer(out, one)


def _face_kappa(spec):
    """The half-exponents kappa_i of the faces, the last lifted coordinates."""
    return spec.lift.kappa[spec.lift.faces[0]:]


# ---------------------------------------------------------------------------
# chart lift and metric


def lift_rows(spec, points):
    """Lift of each row of an (m, n) array of domain points, unnormalized: on
    the hemisphere (x, sqrt(1 - |x|^2)), on the orthant sqrt(_margins / scale),
    so rho(x, y) = scale arccos(lift(x) . lift(y))."""
    pts = np.asarray(points, dtype=float)
    if spec.lift.step == 2:
        return np.sqrt(np.clip(_margins(spec, pts) / spec.lift.scale, 0, None))
    out = np.empty((len(pts), spec.n + 1))
    out[:, : spec.n] = pts
    np.sqrt(np.clip(1 - (pts * pts).sum(axis=1), 0, None), out=out[:, spec.n])
    return out


def interval_parameters(spec):
    """(alpha, beta) of the interval that a one-dimensional domain is:
    ball(1, g) is interval(g - 1/2, g - 1/2), the same measure and distance;
    simplex(1, k) is interval(k_2 - 1/2, k_1 - 1/2) at x = 2u - 1, with
    half its distances and 2^-(alpha + beta + 1) times its measure."""
    if spec.kind == INTERVAL:
        return spec.alpha, spec.beta
    if spec.kind == BALL:
        return spec.gamma - 0.5, spec.gamma - 0.5
    return spec.kappa[1] - 0.5, spec.kappa[0] - 0.5


def _chart(spec):
    """The spec whose lift has the angle rho, for the lift and the metric: the
    spec at scale 1; at scale 2 (n = 1) the doubled angle, the circle of ball(1)."""
    return spec if spec.lift.scale == 1 else _CIRCLE


def chart_lift(spec, x):
    """Lift x to the unit sphere in R^(n+1): rho(x, y) is the angle between lifts."""
    y = lift_rows(_chart(spec), _require_inside(spec, x)[None, :])[0]
    return y / np.linalg.norm(y)


def metric_tensor(spec, x):
    """Chart metric g(x); symmetric positive definite at interior points."""
    X, one = _rows(spec, x, interior=True)
    i = np.arange(spec.n)
    if _chart(spec).lift.step == 2:
        g = np.zeros((len(X), spec.n, spec.n)) + (0.25 / (1 - X.sum(axis=1)))[:, None, None]
        g[:, i, i] += 0.25 / X
    else:
        g = X[:, :, None] * X[:, None, :] / (1 - _sqnorm(X))[:, None, None]
        g[:, i, i] += 1.0
    return _answer(g, one)


def inverse_metric(spec, x):
    """Closed-form inverse of the chart metric: I - x x^T on the hemisphere,
    4 (diag x - x x^T) on the orthant."""
    X, one = _rows(spec, x, interior=True)
    step = _chart(spec).lift.step
    G = np.zeros((len(X), spec.n, spec.n))
    i = np.arange(spec.n)
    G[:, i, i] = X if step == 2 else 1.0
    G -= X[:, :, None] * X[:, None, :]
    return _answer(4.0 * G if step == 2 else G, one)


def metric_det(spec, x):
    """Closed-form determinant of the chart metric."""
    X, one = _rows(spec, x, interior=True)
    if _chart(spec).lift.step == 2:
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


def mass_of_log(log_mass, what):
    """exp(log_mass), the weighted mass of ``what``, refused where it leaves
    the range of a double: every rule and density built on it would too."""
    try:
        return exp(log_mass)
    except OverflowError:
        raise CapacityError(f"the weighted mass of {what} is e^{log_mass:.6g}, beyond the range "
                            "of a double; lower the weight exponents") from None


def total_mass(spec):
    """Total weighted mass: prod Gamma(kappa_i + 1/2) / Gamma(|kappa| + N/2)
    times scale^(n + sum over the faces of (kappa_i - 1/2)), 2^(alpha+beta+1)."""
    lift = spec.lift
    log_c = (spec.n + sum(k - 0.5 for k in _face_kappa(spec))) * log(lift.scale)
    logs = sum(lgamma(k + 0.5) for k in lift.kappa)
    return mass_of_log(log_c + logs - lgamma(sum(lift.kappa) + 0.5 * (spec.n + 1)),
                       spec.label())


_CIRCLE = DomainSpec.ball(1, 0.0)   # the interval's chart
