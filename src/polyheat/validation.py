"""Empirical certification of the kernel bounds and geometric identities.

Every operation here returns a structured report (deterministic given the
configuration and seed) rather than a bare boolean: residuals, fitted
constants, measured intervals, and a verdict.  Points that truncation
cannot certify are excluded and counted, never silently absorbed; an
apparent violation of a lower bound is a hard error.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, field
from math import comb, pi, sqrt

import numpy as np

from .basis import build_basis, eigenvalue, graded_monomials
from .domains import (
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    _chart,
    _face_kappa,
    _rows,
    chart_lift,
    distance_matrix,
    inverse_metric,
    lift_rows,
    rho_to_boundary,
    weight_density,
    weight_log_gradient,
)
from .errors import CapacityError, DomainError, ParameterError, PrecisionError
from .heat import (DEFAULT_EPSILON, HeatKernelEvaluator, MultiplierSpec, TruncationPolicy,
                   default_t_min)
from .polynomials import monomial_vandermonde, operator_matrix, partial_matrix
from .quadrature import build_quadrature, gauss_jacobi, sphere_rule
from .volumes import MAX_REL_STDERR, refuse_imprecise, volume_surrogate

BOUNDARY_MARGIN = 0.05


# ---------------------------------------------------------------------------
# the gate table: the bound of every verdict


def doubling_cap(spec):
    """Cap on V(x, 2r)/V(x, r) from the surrogate form, with a 2x margin:
    2^(n+1) 4^(sum |kappa_i|) over the lifted coordinates."""
    return 2.0 ** (spec.n + 1) * 4.0 ** sum(abs(k) for k in spec.lift.kappa)


# One row per bound: a suite passes when each quantity it measures lies on
# the side of its bound, a number or a function of the spec, that the row
# names.  A scan with a verdict of its own applies its rows there.
Gate = namedtuple("Gate", "suite quantity bound direction")
GATES = (
    Gate("ops", "max", lambda spec: 1e-9 if spec.kind == INTERVAL else 1e-8, "<="),
    Gate("basis", "gram_residual", lambda spec: 1e-10 if spec.kind == INTERVAL else 1e-8, "<="),
    Gate("kernel", "mass_error", 1e-6, "<="),
    Gate("kernel", "semigroup_gap", 1e-6, "<="),
    Gate("kernel", "selfadjoint_gap", 1e-8, "<="),
    Gate("gauss", "e_max/e_min", 25.0, "<="),
    Gate("gauss", "n_hi/n_lo", 20.0, "<="),
    Gate("doubling", "max_ratio", doubling_cap, "<="),
    Gate("doubling", "comp_hi/comp_lo", 30.0, "<="),
    Gate("green", "max_residual", 1e-8, "<="),
    Gate("flux", "|fitted_slope - expected_slope|", 0.1, "<="),
    Gate("flux", "r2", 0.98, ">="),
    Gate("chart", "max_residual", 1e-8, "<="),
    Gate("correspondence", "residual", 1e-9, "<="),
    Gate("localize", "order - exponent", 0.5, "<="),
    Gate("localize", "r2", 0.98, ">="),
    Gate("localize", "max/min c_m_hat", 2.0, "<="),
    Gate("fsp", "max/min c_star_hat", 1.25, "<="),
)
_SIDES = {"<=": operator.le, ">=": operator.ge}
# the suites that run on one-dimensional domains only, and why
ONE_DIMENSIONAL = {"correspondence": "correspondence needs a one-dimensional domain",
                   "fsp": "finite-speed scan certified on one-dimensional domains"}


def bound(suite, quantity, spec):
    """The bound of the row (``suite``, ``quantity``) of GATES on ``spec``."""
    [b] = [g.bound for g in GATES if (g.suite, g.quantity) == (suite, quantity)]
    return b(spec) if callable(b) else b


def passes(suite, spec, measured):
    """The verdict of ``measured``, quantity -> value, on the rows of ``suite``
    that it names: each value on its side of its bound."""
    return all(_SIDES[g.direction](measured[g.quantity], bound(suite, g.quantity, spec))
               for g in GATES if g.suite == suite and g.quantity in measured)


# ---------------------------------------------------------------------------
# small utilities


def loglog_fit(xs, ys):
    """OLS fit of log(y) against log(x); returns (slope, intercept, r2)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def interior_points(spec, count, margin=BOUNDARY_MARGIN):
    """Deterministic interior sample clipped to rho-distance >= margin."""
    d = max(8, int(2 * np.ceil(np.sqrt(count))) + 6)
    rule = build_quadrature(spec, d)
    pts = rule.nodes[rho_to_boundary(spec, rule.nodes) >= margin]
    if len(pts) == 0:
        raise DomainError("no interior points survive the boundary margin")
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    idx = np.unique(np.linspace(0, len(pts) - 1, count).round().astype(int))
    return pts[idx]


def geodesic_ray(spec, anchor, s_values):
    """Points at exact intrinsic distances ``s_values`` from ``anchor``.

    Walks the great circle of ``chart_lift`` from the anchor toward the
    domain center, so that rho(anchor, point) = s exactly.  Targets with a
    face coordinate <= 1e-9 are dropped; returns (distances, points).
    """
    anchor = np.atleast_1d(np.asarray(anchor, float))
    return _ray(spec, chart_lift(spec, anchor), _center_lift(spec),
                np.asarray(s_values, dtype=float))


def _center_lift(spec):
    """``chart_lift`` of the center: the pole of the hemisphere, x_i = 1/N on
    the orthant."""
    step = _chart(spec).lift.step
    return chart_lift(spec, np.full(spec.n, 1.0 / (spec.n + 1) if step == 2 else 0.0))


def _ray(spec, y0, ya, s):
    """``geodesic_ray`` from the anchor's unit lift y0 toward the center's ya
    at the distances s."""
    lift = _chart(spec).lift
    u = ya - (ya @ y0) * y0
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        # anchor coincides with the center: fall back to a coordinate direction
        u = np.zeros_like(y0)
        u[0] = 1.0
        u = u - (u @ y0) * y0
        nu = np.linalg.norm(u)
    u = u / nu
    Y = np.outer(np.cos(s), y0) + np.outer(np.sin(s), u)
    keep = Y[:, lift.faces[0]:].min(axis=1) > 1e-9
    if not keep.any():
        raise DomainError("no ray targets stay inside the chart")
    X = Y[keep, : spec.n]
    return s[keep], X if lift.step == 1 else X ** 2


def _rays(spec, anchors, s_values):
    """``geodesic_ray`` from each anchor, bit for bit: the anchors are checked
    and lifted in one ``lift_rows`` call and the center once; each anchor
    keeps its own norm, dot products and outer products."""
    Y = lift_rows(_chart(spec), _rows(spec, anchors)[0])
    ya, s = _center_lift(spec), np.asarray(s_values, dtype=float)
    return [_ray(spec, y / np.linalg.norm(y), ya, s) for y in Y]


def _ray_pairs(ev, phi, delta, anchors, s_values):
    """The multiplier kernel from each anchor along its geodesic ray.

    One ``multiplier_grid`` call pairs every anchor with the targets of all
    rays, and each anchor reads its own block.  Returns flat arrays in
    anchor-major order: anchor index, distance, target, value and tail.
    """
    rays = _rays(ev.spec, anchors, s_values)
    dists, targets = (np.concatenate(parts) for parts in zip(*rays))
    vals, tails = ev.multiplier_grid(phi, delta, anchors, targets)
    idx = np.repeat(np.arange(len(anchors)), [len(d) for d, _ in rays])
    cols = np.arange(len(dists))
    return idx, dists, targets, vals[idx, cols], tails[idx, cols]


def _suffix_max(a):
    """max(a[i:]) at each i: the right-to-left upper envelope."""
    return np.maximum.accumulate(a[::-1])[::-1]


# ---------------------------------------------------------------------------
# test polynomials as coefficient vectors over graded_monomials(n, degree)


def _coefficients(n, f):
    """(degree, ``f`` as a float vector): the length of the coefficient vector
    ``f`` over graded_monomials(n, degree) fixes its degree."""
    try:
        coef = np.asarray(f, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"a test polynomial is a coefficient vector over graded monomials, "
                          f"not a {type(f).__name__}") from None
    degree = 0
    while coef.ndim == 1 and comb(n + degree, n) < len(coef):
        degree += 1
    if coef.ndim != 1 or comb(n + degree, n) != len(coef):
        raise DomainError(f"{coef.shape} coefficients are not a full graded basis in {n} variables")
    return degree, coef


class _MonomialFrame:
    """Test polynomials of degree <= ``degree`` evaluated at fixed points.

    For a coefficient vector c over the frame's monomials (``pad``), the
    values of f, L f and d_i f at the points are ``V @ c``, ``VL @ c`` and
    ``VD[i] @ c``; ``partials[i]`` is the exponent shift of d_i and ``G``
    the inverse metric at the points.
    """

    def __init__(self, spec, points, degree):
        self.spec, self.degree = spec, degree
        self.points = np.array(points, dtype=float)
        monomials = graded_monomials(spec.n, degree)
        self.V = monomial_vandermonde(self.points, monomials)
        self.VL = self.V @ operator_matrix(spec, monomials).T
        self.partials = [partial_matrix(monomials, i) for i in range(spec.n)]
        self.VD = np.stack([self.V @ D.T for D in self.partials])
        self.G = inverse_metric(spec, self.points)

    def pad(self, coef):
        """``coef`` over the frame's monomials (graded order: zeros appended)."""
        out = np.zeros(self.V.shape[1])
        out[:len(coef)] = coef
        return out

    def covers(self, spec, points, degree):
        return (self.spec == spec and self.degree >= degree
                and self.points.shape == points.shape and np.array_equal(self.points, points))


# the frame of the last check: repeated checks on one point set, such as the
# Green pairs of a suite on one quadrature, share its Vandermonde
_last_frame = None


def _frame(spec, points, degree):
    global _last_frame
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if _last_frame is None or not _last_frame.covers(spec, points, degree):
        _last_frame = _MonomialFrame(spec, points, degree)
    return _last_frame


def _metric_divergence(spec, pts):
    """sum_i d_i G_ij at each point, (m, n), on the chart: -(n+1) x_j on the
    hemisphere, 4 (1 - (n+1) x_j) on the orthant."""
    if _chart(spec).lift.step == 2:
        return 4.0 * (1.0 - (spec.n + 1.0) * pts)
    return -(spec.n + 1.0) * pts


class PolyField:
    """Polynomial test function with exact value and gradient, from its
    coefficient vector ``coef`` over graded_monomials(n, degree)."""

    def __init__(self, coef, n):
        self.n = int(n)
        self.degree, self.coef = _coefficients(self.n, coef)
        self.monomials = graded_monomials(self.n, self.degree)
        # row i: the coefficients of d_i of the field
        self._grad = np.stack([self.coef @ partial_matrix(self.monomials, i)
                               for i in range(self.n)])

    def values(self, pts):
        return monomial_vandermonde(pts, self.monomials) @ self.coef

    def gradients(self, pts):
        return monomial_vandermonde(pts, self.monomials) @ self._grad.T


class GaussianBump:
    """Smooth bounded test function exp(-sum ((x_i - c_i)/s_i)^2) with gradient.

    ``scale`` may be a scalar or per-axis; an infinite scale makes the bump
    constant along that axis (a ridge profile, useful for probing one
    boundary face while staying insensitive to the others).
    """

    def __init__(self, center, scale=0.5):
        self.center = np.atleast_1d(np.asarray(center, float))
        scale = np.asarray(scale, dtype=float)
        if scale.ndim == 0:
            scale = np.full(self.center.size, float(scale))
        self.scale = scale
        self._inv2 = np.where(np.isinf(scale), 0.0, 1.0 / scale ** 2)

    def values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        d2 = np.sum((pts - self.center) ** 2 * self._inv2, axis=1)
        return np.exp(-d2)

    def gradients(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        v = self.values(pts)
        return -2.0 * (pts - self.center) * self._inv2 * v[:, None]


def _require_field(h):
    """Refuse a test field ``h`` without vectorized values and gradients."""
    if not (callable(getattr(h, "values", None)) and callable(getattr(h, "gradients", None))):
        raise DomainError(f"a test field has values and gradients (PolyField, GaussianBump), "
                          f"not a {type(h).__name__}")


def random_coefficients(n, degree, rng):
    """Uniform coefficients in [-1, 1] over graded_monomials(n, degree), drawn
    in that order."""
    return rng.uniform(-1.0, 1.0, comb(n + degree, n))


# ---------------------------------------------------------------------------
# Gaussian-bound certification


@dataclass
class GaussBoundReport:
    spec: str
    threshold: float
    rows: list
    e_min: float
    e_max: float
    c2_hat: float
    c4_hat: float
    n_lo: float
    n_hi: float
    excluded: int
    admissible: int
    diagonal: int
    verdict: bool


# far-field band [GAUSS_THRESHOLD, GAUSS_BAND_HI] and near-diagonal band
# [0, GAUSS_DIAG_BAND] of rho^2/t; a threshold of 4 suppresses the constants
GAUSS_THRESHOLD = 4.0
GAUSS_BAND_HI = 25.0
GAUSS_DIAG_BAND = 0.25
GAUSS_ROW_KEYS = ("x", "y", "rho", "V_x", "V_y", "kernel", "tail", "N")


def gauss_ratio_scan(ev: HeatKernelEvaluator, vol, points, times):
    """Scan N = kernel * sqrt(V(x, sqrt t) V(y, sqrt t)) over a grid.

    Far-field pairs (rho^2/t in [GAUSS_THRESHOLD, GAUSS_BAND_HI]) contribute
    exponent statistics E = -t log(N) / rho^2; near-diagonal pairs
    (rho^2/t <= GAUSS_DIAG_BAND) contribute the on-diagonal comparability
    interval [n_lo, n_hi].  The pairs are i <= j of the points, in row-major
    order.  A far pair whose kernel value plus its truncation bound is
    non-positive contradicts the lower bound and raises PrecisionError.
    The volumes V(x, sqrt t) of every point and time are one
    ``vol.estimates`` call, made before the first kernel grid; an estimate
    whose stderr exceeds MAX_REL_STDERR of its value raises PrecisionError.
    """
    spec = ev.spec
    pts = np.atleast_2d(np.asarray(points, float))
    I, J = np.triu_indices(len(pts))
    rho = distance_matrix(spec, pts, pts)[I, J]
    rows, e_vals, n_diag = [], [], []
    excluded = violations = 0
    grid = ev.point_set(pts)
    X, R = np.tile(pts, (len(times), 1)), np.repeat([sqrt(t) for t in times], len(pts))
    V, stderrs = vol.estimates(X, R)
    refuse_imprecise(spec, X, R, V, stderrs, MAX_REL_STDERR)
    for t, vols in zip(times, V.reshape(len(times), len(pts))):
        vals, tails = ev.heat_kernel_grid(t, grid, grid)
        k, b = vals[I, J], tails[I, J]
        ratio = rho * rho / t
        far = (GAUSS_THRESHOLD <= ratio) & (ratio <= GAUSS_BAND_HI)
        violating = far & (k + b <= 0.0)
        violations += int(np.count_nonzero(violating))
        scanned = (far | (ratio <= GAUSS_DIAG_BAND)) & ~violating
        short = scanned & (k <= b)
        excluded += int(np.count_nonzero(short))
        kept = np.flatnonzero(scanned & ~short)
        i, j, r, far = I[kept], J[kept], rho[kept], far[kept]
        N = k[kept] * np.sqrt(vols[i] * vols[j])
        E = np.full(len(kept), np.nan)
        E[far] = -t * np.log(N[far]) / (r[far] * r[far])
        e_vals += E[far].tolist()
        n_diag += N[~far].tolist()
        columns = zip(pts[i].tolist(), pts[j].tolist(), r.tolist(), vols[i].tolist(),
                      vols[j].tolist(), k[kept].tolist(), b[kept].tolist(), N.tolist())
        for values, is_far, e in zip(columns, far, E.tolist()):
            row = dict(zip(GAUSS_ROW_KEYS, values), t=t)
            if is_far:
                row["E"] = e
            rows.append(row)
    if violations:
        raise PrecisionError(
            f"{violations} admissible grid points have kernel + tail <= 0, "
            "contradicting the lower Gaussian bound"
        )
    if not e_vals or not n_diag:
        raise DomainError("grid produced no admissible far-field or diagonal points")
    e_min, e_max = float(min(e_vals)), float(max(e_vals))
    n_lo, n_hi = float(min(n_diag)), float(max(n_diag))
    verdict = 0.0 < e_min <= e_max < np.inf and 0.0 < n_lo <= n_hi < np.inf
    return GaussBoundReport(spec.label(), GAUSS_THRESHOLD, rows, e_min, e_max,
                            1.0 / e_max, 1.0 / e_min, n_lo, n_hi,
                            excluded, len(e_vals), len(n_diag), verdict)


# ---------------------------------------------------------------------------
# doubling


@dataclass
class DoublingReport:
    spec: str
    max_ratio: float
    cap: float
    comp_lo: float
    comp_hi: float
    rows: list
    verdict: bool


def surrogate_comparability_range(spec):
    """Largest radius for which the closed-form surrogate claim applies."""
    return 1.0 if spec.kind == SIMPLEX else pi


def doubling_scan(spec, vol, points, radii):
    """Max of V(x, 2r)/V(x, r) and the V / surrogate comparability range.

    The comparability rows are restricted to the surrogate's validity range
    (r <= 1 on the simplex, r <= pi otherwise); the doubling ratio itself is
    taken over all requested radii in (0, pi/2].  Every point at every
    distinct radius of r and 2r is one row of a single ``vol.estimates``
    call, the rows ordered by radius, then by point; an estimate whose
    stderr exceeds MAX_REL_STDERR of its value raises PrecisionError.  A
    scan with no radius, or none in the surrogate's range, would check
    nothing and raises DomainError.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if not all(0 < r <= pi / 2 for r in radii):
        raise DomainError("doubling radii must lie in (0, pi/2]")
    comp_max_r = surrogate_comparability_range(spec)
    if not radii:
        raise DomainError("no doubling radius lies in (0, pi/2]")
    if min(radii) > comp_max_r:
        raise DomainError(f"no doubling radius lies in the surrogate's range r <= {comp_max_r:g}")
    distinct = sorted(set(radii) | {2 * r for r in radii})
    X, R = np.tile(pts, (len(distinct), 1)), np.repeat(distinct, len(pts))
    values, stderrs = vol.estimates(X, R)
    refuse_imprecise(spec, X, R, values, stderrs, MAX_REL_STDERR)
    vols = dict(zip(distinct, values.reshape(len(distinct), len(pts)).tolist()))
    rows = []
    for i, x in enumerate(pts):
        for r in radii:
            v1, v2 = vols[r][i], vols[2 * r][i]
            rows.append({"x": x.tolist(), "r": r, "V_r": v1, "V_2r": v2, "ratio": v2 / v1})
            if r <= comp_max_r:
                rows[-1]["surrogate_comp"] = v1 / volume_surrogate(spec, x, r)
    max_ratio = max(row["ratio"] for row in rows)
    comps = [row["surrogate_comp"] for row in rows if "surrogate_comp" in row]
    return DoublingReport(spec.label(), max_ratio, bound("doubling", "max_ratio", spec),
                          min(comps), max(comps), rows,
                          passes("doubling", spec, {"max_ratio": max_ratio}))


# ---------------------------------------------------------------------------
# Green's identity and boundary flux


def green_identity_check(spec, f, h, quad=None):
    """|int h Lw f dmu + int <grad f, grad h>_g dmu| / max(|lhs|, |rhs|, 1).

    ``f`` is a coefficient vector over graded monomials; ``h`` provides
    vectorized values and gradients (PolyField, GaussianBump).
    The weighted Laplacian on the chart equals the polynomial operator up to
    the chart factor step^2 (4 on the simplex).  Checks on one quadrature
    share its monomial Vandermonde.
    """
    deg, cf = _coefficients(spec.n, f)
    _require_field(h)
    poly_h = isinstance(h, PolyField)
    if quad is None:
        quad = build_quadrature(spec, deg + (h.degree if poly_h else 0) + 4)
    pts, w = quad.nodes, quad.weights
    fr = _frame(spec, pts, max(deg, h.degree) if poly_h else deg)
    if poly_h:
        ch = fr.pad(h.coef)
        hv, gh = fr.V @ ch, fr.VD @ ch
    else:
        hv, gh = h.values(pts), h.gradients(pts).T
    cf = fr.pad(cf)
    lf = _chart(spec).lift.step ** 2 * (fr.VL @ cf)
    lhs = float(w @ (hv * lf))
    gf = fr.VD @ cf
    rhs = -float(w @ np.einsum("im,mij,jm->m", gf, fr.G, gh))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@dataclass
class FluxReport:
    spec: str
    epsilons: list
    faces: dict           # name -> {"J": [...], "slope", "r2", "expected"}
    fitted_slope: float | None
    expected_slope: float | None
    r2: float | None
    zero_flux: bool


def _ball_flux(spec, f, h, eps):
    n = spec.n
    R = sqrt(1 - eps)
    theta, wts = sphere_rule(n, max(f.degree + 6, 32))
    pts = R * theta
    radial = np.einsum("mi,mi->m", theta, f.gradients(pts))
    integral = float(wts @ (radial * h.values(pts)))
    return R ** (n - 1) * eps ** (spec.gamma + 0.5) * integral


# Legendre nodes per half of a face segment, and the grading power
FACE_NODES = 32
FACE_GRADING = 4


def _face_rule(eps):
    """Nodes and weights for the segment [eps, 1 - 2 eps] of a simplex(2) face.

    The weight factors of the two faces that meet each end become nearly
    singular there as eps shrinks; each half of the segment is graded toward
    its end, u = end -+ L ((1 + t)/2)^4, with Gauss-Legendre nodes t.
    """
    t, wt = gauss_jacobi(FACE_NODES, 0.0, 0.0)
    s = (1.0 + t) / 2
    lo, hi = eps, 1.0 - 2.0 * eps
    L = (hi - lo) / 2
    off = L * s ** FACE_GRADING
    w = wt * L * FACE_GRADING / 2 * s ** (FACE_GRADING - 1)
    return np.concatenate([lo + off, hi - off]), np.concatenate([w, w])


def _simplex_face_flux(spec, f, h, eps, face):
    """Signed flux through one face of the shrunken simplex.

    face i < n: the hyperplane x_i = eps; face n: the slanted face
    |x| = 1 - eps.  Supported for n in {1, 2}.  The slanted face's outward
    normal (1,..,1)/sqrt(n) against its area element sqrt(n) dx' leaves the
    plain sum of the field's components.
    """
    n = spec.n
    if n == 1:
        x = np.array([[eps if face == 0 else 1 - eps]])
        w = np.ones(1)
    elif n == 2:
        u, w = _face_rule(eps)
        x = np.empty((u.size, 2))
        if face < n:
            x[:, face] = eps
            x[:, 1 - face] = u
        else:
            x[:, 0] = u
            x[:, 1] = 1 - eps - u
    else:
        raise CapacityError("simplex flux faces implemented for n in {1, 2}")
    # the field 4 x_i (d_i f - sum_j x_j d_j f); every node is interior
    g = f.gradients(x)
    field = 4.0 * x * (g - np.einsum("mi,mi->m", x, g)[:, None])
    density = weight_density(spec, x)
    if face < n:
        return -float(w @ (h.values(x) * density * field[:, face]))
    return float(w @ (h.values(x) * density * field.sum(axis=1)))


def boundary_flux_decay(spec, f, h, epsilons):
    """Boundary flux magnitudes J_eps and their fitted log-log decay rates.

    Each face of the lift has the expected rate kappa_i + 1/2: the ball has
    a single spherical face, rate gamma + 1/2; the simplex is decomposed into
    its n + 1 faces, the smallest rate that carries flux dominating the
    total.  ``f`` is a coefficient vector over graded monomials, ``h``
    provides vectorized values (PolyField, GaussianBump).
    """
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(eps) < 4 or not all(0 < e < 0.5 for e in eps):
        raise DomainError("need at least 4 epsilons in (0, 1/2)")
    if spec.kind == INTERVAL:
        raise DomainError(
            "boundary flux is defined on the ball and simplex; map the interval "
            "to the n=1 simplex first"
        )
    _require_field(h)
    faces = {}
    f = PolyField(f, spec.n)
    if spec.lift.step == 1:
        names = ["sphere"]
        J = {"sphere": [_ball_flux(spec, f, h, e) for e in eps]}
    else:
        names = [f"F{i + 1}" for i in range(spec.n)] + ["H"]
        J = {nm: [_simplex_face_flux(spec, f, h, e, i) for e in eps]
             for i, nm in enumerate(names)}
    expected = {nm: k + 0.5 for nm, k in zip(names, _face_kappa(spec))}
    for nm in names:
        vals = np.abs(np.array(J[nm]))
        entry = {"J": [float(v) for v in J[nm]], "expected": expected[nm],
                 "slope": None, "r2": None, "zero": bool(np.all(vals < 1e-14))}
        if not entry["zero"]:
            entry["slope"], _, entry["r2"] = loglog_fit(eps, vals)
        faces[nm] = entry
    live = [nm for nm in names if not faces[nm]["zero"]]
    if not live:
        return FluxReport(spec.label(), eps, faces, None, None, None, True)
    dom = min(live, key=expected.get)
    return FluxReport(spec.label(), eps, faces, faces[dom]["slope"],
                      expected[dom], faces[dom]["r2"], False)


# ---------------------------------------------------------------------------
# chart correspondence


def chart_laplacian_check(spec, f, points):
    """Max relative gap between the chart-side weighted Laplacian and the
    polynomial operator (times 4 on the simplex) over the sample points.

    The chart side is sum_ij G^ij d_i d_j f + sum_j (sum_i d_i G^ij
    + sum_i G^ij d_i log w) d_j f, with the inverse metric G, its divergence
    and the log-weight gradient in closed form at the points.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    deg, c = _coefficients(spec.n, f)
    fr = _frame(spec, pts, deg)
    c = fr.pad(c)
    first = [c @ D for D in fr.partials]        # coefficients of d_i f
    chart = sum(fr.G[:, i, j] * (fr.V @ (first[i] @ D))
                for i in range(spec.n) for j, D in enumerate(fr.partials))
    logw = weight_log_gradient(spec, pts)
    drift = _metric_divergence(spec, pts) + np.einsum("mij,mi->mj", fr.G, logw)
    chart = chart + np.einsum("mj,jm->m", drift, fr.VD @ c)
    op = _chart(spec).lift.step ** 2 * (fr.VL @ c)
    num = float(np.max(np.abs(chart - op)))
    den = float(np.max(np.maximum(np.abs(chart), np.abs(op))))
    return num / den if den > 0 else num


# ---------------------------------------------------------------------------
# interval <-> n=1 simplex transfer


@dataclass
class CorrespondenceReport:
    alpha: float
    beta: float
    max_k: int
    checks: list  # {"name", "residual", "tolerance", "pass"} per check

    @property
    def verdict(self):
        return all(c["pass"] for c in self.checks)


# the largest max_k whose binomials C(r, j) are exact in doubles (below 2^53)
SUBSTITUTION_MAX_K = 56


def _substitution_matrix(max_k):
    """A[r, j] = C(r, j) 2^j (-1)^(r-j): the coefficients of p(2x - 1) are c @ A.

    The binomials are Pascal's rows in int64, exact integers; below 2^53
    (r <= SUBSTITUTION_MAX_K) they are exact in doubles, and so are their
    products with powers of two.
    """
    C = np.zeros((max_k + 1, max_k + 1), dtype=np.int64)
    C[:, 0] = 1
    for r in range(1, max_k + 1):
        C[r, 1:] = C[r - 1, 1:] + C[r - 1, :-1]
    r, j = np.indices(C.shape)
    return C * np.ldexp(np.where((r - j) % 2, -1.0, 1.0), j)


# grid points of (iii) and (iv), heat times of (iv)
CORRESPONDENCE_GRID = 20
CORRESPONDENCE_TIMES = (0.2, 1.0)


def jacobi_simplex_correspondence(alpha, beta, max_k, seed=0, basis=None):
    """Four residuals tying the interval operator to the n=1 simplex:

    (i) operator conjugation under x -> (x+1)/2 on a random polynomial,
    (ii) eigenfunction matching up to sign with the 2^(-(a+b+1)/2) scaling,
    (iii) distance halving on a grid,
    (iv) heat-kernel scaling by 2^(-(a+b+1)).

    (i) and (ii) work on ascending coefficient arrays: the substitution
    x -> 2x - 1 is one product with the exact matrix of
    ``_substitution_matrix`` and each operator one product with its dense
    matrix from ``operator_matrix``.

    ``basis``, an interval(alpha, beta) basis of degree >= max_k such as a
    ``validate`` run's own, is read through max_k in place of building the
    interval basis: its levels 0..max_k are those of the K = max_k basis,
    bit for bit, and (iv) sums them with the policy that basis gets by
    default.
    """
    if not 0 <= max_k <= SUBSTITUTION_MAX_K:
        raise DomainError(f"max_k {max_k} outside [0, {SUBSTITUTION_MAX_K}], where the "
                          "substitution matrix is exact in doubles")
    ispec = DomainSpec.interval(alpha, beta)
    if basis is None:
        basis = build_basis(ispec, max_k)
    elif basis.spec != ispec or basis.max_degree < max_k:
        raise ParameterError(f"a basis of {basis.spec.label()} to degree {basis.max_degree} "
                             f"cannot serve {ispec.label()} at max_k {max_k}")
    sspec = DomainSpec.simplex(1, ispec.lift.kappa)
    rng = np.random.default_rng(seed)
    A = _substitution_matrix(max_k)
    checks = []

    monomials = graded_monomials(1, max_k)    # (0,), (1,), ..., (max_k,)
    f = random_coefficients(1, max_k, rng)
    lhs = (f @ A) @ operator_matrix(sspec, monomials)
    rhs = (f @ operator_matrix(ispec, monomials)) @ A
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    checks.append(("operator_conjugation", np.abs(lhs - rhs).max() / scale))

    sb = build_basis(sspec, max_k)
    Q = (basis.coefficients[: max_k + 1, : max_k + 1] @ A) * 2.0 ** ((alpha + beta + 1) / 2.0)
    S = sb.coefficients * np.where(np.diag(Q) * np.diag(sb.coefficients) < 0, -1.0, 1.0)[:, None]
    scale = np.maximum(np.abs(Q).max(axis=1), np.abs(S).max(axis=1))
    checks.append(("eigenfunction_match", (np.abs(Q - S).max(axis=1) / scale).max()))

    X = np.cos(np.linspace(0.15, pi - 0.15, CORRESPONDENCE_GRID))[:, None]
    X1 = (X + 1) / 2
    gap = distance_matrix(sspec, X1, X1) - distance_matrix(ispec, X, X) / 2.0
    checks.append(("distance_halving", np.abs(gap).max()))

    evi = HeatKernelEvaluator(basis, TruncationPolicy(DEFAULT_EPSILON,
                                                      default_t_min(ispec, max_k), max_k))
    evs = HeatKernelEvaluator(sb)
    # one basis evaluation of the grid per basis serves every time
    Pi, Ps = evi.point_set(X), evs.point_set(X1)
    kscale = 2.0 ** (-(alpha + beta + 1))
    worst = 0.0
    for t in CORRESPONDENCE_TIMES:
        ki, _ = evi.heat_kernel_grid(t, Pi, Pi)
        ks, _ = evs.heat_kernel_grid(t, Ps, Ps)
        gap = np.abs(ki - kscale * ks).max()
        worst = max(worst, gap / np.abs(ki).max())
    checks.append(("kernel_scaling", worst))

    return CorrespondenceReport(alpha, beta, max_k, [
        {"name": name, "residual": float(res),
         "tolerance": bound("correspondence", "residual", ispec),
         "pass": passes("correspondence", ispec, {"residual": res})} for name, res in checks])


# ---------------------------------------------------------------------------
# multiplier localization and finite-speed surrogate


@dataclass
class LocalizationReport:
    spec: str
    delta: float
    order: int
    c_m_hat: float
    exponent: float
    r2: float
    excluded: int
    used: int
    verdict: bool


# anchors, fit window in rho/delta, radii in the window, spectral support
LOCALIZE_ANCHORS = 5
LOCALIZE_WINDOW = (2.0, 20.0)
LOCALIZE_RADII = 40
LOCALIZE_SUPPORT = 2.0


def localization_check(ev, delta, m, vol):
    """Decay of the smooth-bump multiplier kernel in units of rho/delta.

    c_m_hat bounds D = |kernel| sqrt(V(x, delta) V(y, delta)) (1 + rho/delta)^m,
    and the exponent of D without the power, fitted against 1 + rho/delta
    over the window, is held to order m by the "localize" rows of GATES.
    Pairs lie along chart geodesics so rho/delta covers the window densely;
    the spectral support 2 pushes the flat head of the profile transform
    (scale ~ 1/support) out of it.  The fit runs on the upper envelope
    (right-to-left record maxima): the transform of a compactly supported
    profile oscillates through zeros that carry no rate information.

    ``smooth_bump`` has no tail past the cap (a support past it is a
    CapacityError), and its levels of weight below 2^-106 of the largest are
    far below rounding, so ``excluded`` is always 0.  The volumes are one
    ``vol.estimates`` call, the anchors' rows, then the targets'; an estimate
    whose stderr exceeds MAX_REL_STDERR of its value raises PrecisionError.
    """
    spec = ev.spec
    if m < spec.n + 1:
        raise DomainError("smoothness order must be at least n + 1")
    phi = MultiplierSpec("smooth_bump", support=LOCALIZE_SUPPORT, order=m)
    anchors = interior_points(spec, LOCALIZE_ANCHORS, margin=0.1)
    lo, hi = LOCALIZE_WINDOW
    xis = np.concatenate([[0.0, 0.5, 1.0, 2.0, 3.0], np.geomspace(0.9 * lo, hi, LOCALIZE_RADII)])
    idx, dists, targets, vals, _ = _ray_pairs(ev, phi, delta, anchors, delta * xis)
    k = np.abs(vals)
    xi = dists / delta
    X = np.concatenate([anchors, targets])
    V, stderrs = vol.estimates(X, delta)
    refuse_imprecise(spec, X, np.full(len(X), delta), V, stderrs, MAX_REL_STDERR)
    base = k * np.sqrt(V[:len(anchors)][idx] * V[len(anchors):])
    cm = float(np.max(base * (1.0 + xi) ** m))
    fit = (lo <= xi) & (xi <= hi) & (base > 0)
    if np.count_nonzero(fit) < 4:
        raise DomainError("localization window needs more grid coverage")
    rows_x = 1.0 + xi[fit]
    order = np.argsort(rows_x)
    rows_x, rows_y = rows_x[order], base[fit][order]
    # fit the decay envelope: right-to-left record maxima keep the
    # oscillation peaks and the monotone shoulder, dropping the transform's
    # zero dips, which carry no rate information
    records = rows_y >= _suffix_max(rows_y)
    bx, by = rows_x[records], rows_y[records]
    if len(bx) < 4:
        raise DomainError("need at least 4 envelope points for the fit")
    slope, _, r2 = loglog_fit(bx, by)
    exponent = -slope
    verdict = (passes("localize", spec, {"order - exponent": m - exponent, "r2": r2})
               and bool(np.isfinite(cm)))
    return LocalizationReport(spec.label(), delta, m, cm, exponent, r2, 0, len(bx), verdict)


@dataclass
class FiniteSpeedReport:
    spec: str
    delta: float
    order: int
    band: float
    r_star: float | None
    c_star_hat: float | None
    max_beyond: float | None
    degenerate: bool


# anchors, the |kernel| level that bounds the support, the largest tail
# accepted, radii per ray
FSP_ANCHORS = 4
FSP_THRESHOLD = 1e-8
FSP_TAIL_CAP = 1e-12
FSP_RADII = 80


def finite_speed_scan(ev, delta, m, A):
    """Empirical support radius of the band-limited sinc-power multiplier.

    Finds the smallest r* with max |kernel| <= FSP_THRESHOLD over pairs with
    rho > r*, and reports c*_hat = r* / R against the expected support radius
    R = delta m A scale / step (simplex(1) halves distances, and so R).
    Degenerate when the band passes only level zero (kernel nearly constant).
    """
    spec = ev.spec
    phi = MultiplierSpec("sinc_power", order=m, band=A)
    lam1 = eigenvalue(spec, 1)
    if phi.phi(np.array([delta * sqrt(lam1)]))[0] < 1e-12:
        return FiniteSpeedReport(spec.label(), delta, m, A, None, None, None, True)
    R = delta * m * A * spec.lift.scale / spec.lift.step
    anchors = interior_points(spec, FSP_ANCHORS, margin=0.1)
    s_values = np.linspace(0.02 * R, min(pi, 3.0 * R), FSP_RADII)
    _, rhos, _, vals, tails = _ray_pairs(ev, phi, delta, anchors, s_values)
    worst_tail = float(tails.max())
    if worst_tail > FSP_TAIL_CAP:
        raise PrecisionError(
            f"multiplier truncation tail {worst_tail:.2e} exceeds {FSP_TAIL_CAP:g}; "
            "raise the basis cap"
        )
    order = np.argsort(rhos)
    rhos, mags = rhos[order], np.abs(vals)[order]
    if rhos[-1] < R:
        raise DomainError("rays too short to bracket the expected support radius")
    suffix = _suffix_max(mags)
    ok = np.concatenate([suffix[1:] <= FSP_THRESHOLD, [True]])
    idx = int(np.argmax(ok))
    r_star = float(rhos[idx])
    beyond = float(suffix[idx + 1]) if idx + 1 < len(suffix) else 0.0
    return FiniteSpeedReport(spec.label(), delta, m, A, r_star,
                             r_star / R, beyond, False)


# ---------------------------------------------------------------------------
# symmetry / self-adjointness


def operator_symmetry_residual(spec, quad, f, h):
    """(relative symmetry gap of the bilinear form, -int f Lf dmu).

    ``f`` and ``h`` are coefficient vectors over graded monomials.
    """
    pts, w = quad.nodes, quad.weights
    (df, cf), (dh, ch) = _coefficients(spec.n, f), _coefficients(spec.n, h)
    fr = _frame(spec, pts, max(df, dh))
    cf, ch = fr.pad(cf), fr.pad(ch)
    fv, lf, hv, lh = fr.V @ cf, fr.VL @ cf, fr.V @ ch, fr.VL @ ch
    a = float(w @ (lf * hv))
    b = float(w @ (fv * lh))
    gap = abs(a - b) / max(abs(a), abs(b), 1.0)
    dirichlet = -float(w @ (fv * lf))
    return gap, dirichlet


def kernel_selfadjointness_residual(ev, t, f, h):
    """Relative gap of int (e^{tL} f) h dmu against int f (e^{tL} h) dmu.

    ``f`` and ``h`` are coefficient vectors over graded monomials; the
    integrals run over the basis quadrature.
    """
    quad, V = ev.basis.quad, ev._nodes()
    w = quad.weights
    n = ev.spec.n
    (df, cf), (dh, ch) = _coefficients(n, f), _coefficients(n, h)
    M = monomial_vandermonde(quad.nodes, graded_monomials(n, max(df, dh)))
    fv = M[:, :len(cf)] @ cf
    hv = M[:, :len(ch)] @ ch
    coef_f = V.T @ (w * fv)
    coef_h = V.T @ (w * hv)
    damp = ev._per_member(np.exp(-ev.lambdas * t))
    etf = V @ (damp * coef_f)
    eth = V @ (damp * coef_h)
    a = float(w @ (etf * hv))
    b = float(w @ (fv * eth))
    return abs(a - b) / max(abs(a), abs(b), 1.0)
