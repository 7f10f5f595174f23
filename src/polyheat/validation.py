"""Empirical certification of the kernel bounds and geometric identities.

Every operation here returns a structured report (deterministic given the
configuration and seed) rather than a bare boolean: residuals, fitted
constants, measured intervals, and a verdict.  Points that truncation
cannot certify are excluded and counted, never silently absorbed; an
apparent violation of a lower bound is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, pi, sqrt

import numpy as np
from scipy.integrate import quad as scipy_quad

from .basis import build_basis, eigenvalue, graded_monomials
from .domains import (
    BALL,
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    distance_matrix,
    rho_to_boundary,
    weight_density,
    weight_log_gradient,
)
from .errors import CapacityError, DomainError, PrecisionError
from .heat import HeatKernelEvaluator, MultiplierSpec
from .polynomials import MultiPoly, monomial_vandermonde, operator_matrix, partial_matrix
from .quadrature import build_quadrature, _angular_rule

BOUNDARY_MARGIN = 0.05


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
    pts = rule.nodes
    keep = np.array([rho_to_boundary(spec, p) >= margin for p in pts])
    pts = pts[keep]
    if len(pts) == 0:
        raise DomainError("no interior points survive the boundary margin")
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    idx = np.unique(np.linspace(0, len(pts) - 1, count).round().astype(int))
    return pts[idx]


def geodesic_ray(spec, anchor, s_values, aim=None):
    """Points at exact intrinsic distances ``s_values`` from ``anchor``.

    Walks the great circle through the lifted anchor on the chart sphere
    (toward the lifted ``aim`` point, default the domain center), so that
    rho(anchor, point) = s exactly.  Targets that leave the chart are
    dropped; returns (distances, points).
    """
    from .domains import chart_lift

    anchor = np.atleast_1d(np.asarray(anchor, float))
    y0 = chart_lift(spec, anchor)
    if aim is None:
        if spec.kind == SIMPLEX:
            aim = np.full(spec.n, 1.0 / (spec.n + 1))
        else:
            aim = np.zeros(spec.n)
    ya = chart_lift(spec, np.asarray(aim, float))
    u = ya - (ya @ y0) * y0
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        # anchor coincides with the aim: fall back to a coordinate direction
        u = np.zeros_like(y0)
        u[0] = 1.0
        u = u - (u @ y0) * y0
        nu = np.linalg.norm(u)
    u = u / nu
    dists, pts = [], []
    for s in s_values:
        y = np.cos(s) * y0 + np.sin(s) * u
        if spec.kind == SIMPLEX:
            if np.any(y <= 1e-9):
                continue
            x = y[: spec.n] ** 2
        else:
            if y[spec.n] <= 1e-9:
                continue
            x = y[: spec.n]
        dists.append(float(s))
        pts.append(x)
    if not pts:
        raise DomainError("no ray targets stay inside the chart")
    return np.array(dists), np.array(pts)


# ---------------------------------------------------------------------------
# test polynomials as coefficient vectors over graded_monomials(n, degree)


def _coefficients(n, f):
    """(degree, coefficient vector over graded_monomials(n, degree)) of ``f``.

    ``f`` is a MultiPoly (read in one pass over its terms) or a coefficient
    vector, whose length fixes its degree.
    """
    if isinstance(f, MultiPoly):
        if f.dimension != n:
            raise DomainError(f"polynomial in {f.dimension} variables on a domain of dimension {n}")
        degree = max(f.degree(), 0)
        index = {e: j for j, e in enumerate(graded_monomials(n, degree))}
        coef = np.zeros(len(index))
        for e, c in f.items():
            coef[index[e]] = c
        return degree, coef
    coef = np.asarray(f, dtype=float)
    degree = 0
    while comb(n + degree, n) < len(coef):
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
        self.G = _inverse_metric_at(spec, self.points)

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


def _inverse_metric_at(spec, pts):
    """Chart inverse metric at each point, (m, n, n): I - x x^T, 4 (diag x - x x^T)."""
    G = -pts[:, :, None] * pts[:, None, :]
    i = np.arange(spec.n)
    G[:, i, i] += pts if spec.kind == SIMPLEX else 1.0
    return 4.0 * G if spec.kind == SIMPLEX else G


def _metric_divergence(spec, pts):
    """sum_i d_i G_ij at each point, (m, n): -(n+1) x_j, 4 (1 - (n+1) x_j)."""
    if spec.kind == SIMPLEX:
        return 4.0 * (1.0 - (spec.n + 1.0) * pts)
    return -(spec.n + 1.0) * pts


class PolyField:
    """Polynomial test function with exact value and gradient.

    Kept as a coefficient vector ``coef`` over graded_monomials(n, degree);
    built from a MultiPoly, or from such a vector with its dimension ``n``.
    """

    def __init__(self, poly, n=None):
        self.n = poly.dimension if isinstance(poly, MultiPoly) else int(n)
        self.degree, self.coef = _coefficients(self.n, poly)
        self.monomials = graded_monomials(self.n, self.degree)
        self._exponents = np.array(self.monomials).reshape(len(self.coef), self.n)
        # row i: the coefficients of d_i of the field
        self._grad = np.stack([self.coef @ partial_matrix(self.monomials, i)
                               for i in range(self.n)])

    def values(self, pts):
        return monomial_vandermonde(pts, self.monomials) @ self.coef

    def gradients(self, pts):
        return monomial_vandermonde(pts, self.monomials) @ self._grad.T

    def gradient_at(self, x):
        """(n,) gradient at one point, for scalar integrands."""
        return self._grad @ np.prod(x ** self._exponents, axis=1)


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


def random_coefficients(n, degree, rng, scale=1.0):
    """Uniform coefficients over graded_monomials(n, degree), drawn in that order."""
    return rng.uniform(-scale, scale, comb(n + degree, n))


def random_poly(n, degree, rng, scale=1.0):
    """The MultiPoly of ``random_coefficients``, from the same draws."""
    coef = random_coefficients(n, degree, rng, scale)
    return MultiPoly(n, dict(zip(graded_monomials(n, degree), coef)))


# ---------------------------------------------------------------------------
# Gaussian-bound certification


@dataclass
class GaussBoundReport:
    spec_label: str
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

    def to_json_obj(self):
        return {
            "spec": self.spec_label,
            "threshold": self.threshold,
            "e_min": self.e_min,
            "e_max": self.e_max,
            "c2_hat": self.c2_hat,
            "c4_hat": self.c4_hat,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "excluded": self.excluded,
            "admissible": self.admissible,
            "diagonal": self.diagonal,
            "verdict": self.verdict,
            "rows": self.rows,
        }


def gauss_ratio_scan(ev: HeatKernelEvaluator, vol, points, times,
                     threshold=4.0, band_hi=25.0, diag_band=0.25):
    """Scan N = kernel * sqrt(V(x, sqrt t) V(y, sqrt t)) over a grid.

    Far-field points (rho^2/t in [threshold, band_hi]) contribute exponent
    statistics E = -t log(N) / rho^2; near-diagonal points (rho^2/t <=
    diag_band) contribute the on-diagonal comparability interval [n_lo, n_hi].
    A point whose kernel value plus its truncation bound is non-positive
    contradicts the lower bound and raises PrecisionError.
    """
    spec = ev.spec
    if threshold < 4.0:
        raise DomainError("threshold must be >= 4 to suppress the constants")
    pts = np.atleast_2d(np.asarray(points, float))
    rows = []
    e_vals, n_diag = [], []
    excluded = violations = 0
    rhos = distance_matrix(spec, pts, pts)
    grid = ev.point_set(pts)
    for t in times:
        vals, tails = ev.heat_kernel_grid(t, grid, grid)
        vols = vol.values(pts, sqrt(t))
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                rho = float(rhos[i, j])
                ratio = rho * rho / t
                far = threshold <= ratio <= band_hi
                near = ratio <= diag_band
                if not (far or near):
                    continue
                k, b = float(vals[i, j]), float(tails[i, j])
                if k + b <= 0.0 and far:
                    violations += 1
                    continue
                if k <= b:
                    excluded += 1
                    continue
                N = k * sqrt(vols[i] * vols[j])
                row = {"x": pts[i].tolist(), "y": pts[j].tolist(), "t": t,
                       "rho": rho, "V_x": vols[i], "V_y": vols[j],
                       "kernel": k, "tail": b, "N": N}
                if far:
                    E = -t * np.log(N) / (rho * rho)
                    row["E"] = E
                    e_vals.append(E)
                else:
                    n_diag.append(N)
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
    return GaussBoundReport(spec.label(), threshold, rows, e_min, e_max,
                            1.0 / e_max, 1.0 / e_min, n_lo, n_hi,
                            excluded, len(e_vals), len(n_diag), verdict)


# ---------------------------------------------------------------------------
# doubling


def doubling_cap(spec):
    """Cap on V(x, 2r)/V(x, r) from the surrogate form, with a 2x margin."""
    if spec.kind == BALL:
        return 2.0 ** (spec.n + 1) * 4.0 ** abs(spec.gamma)
    if spec.kind == SIMPLEX:
        return 2.0 ** (spec.n + 1) * 4.0 ** sum(abs(k) for k in spec.kappa)
    return 4.0 * 4.0 ** (abs(spec.alpha + 0.5) + abs(spec.beta + 0.5))


@dataclass
class DoublingReport:
    spec_label: str
    max_ratio: float
    cap: float
    comp_lo: float
    comp_hi: float
    rows: list
    verdict: bool

    def to_json_obj(self):
        return {"spec": self.spec_label, "max_ratio": self.max_ratio,
                "cap": self.cap, "comp_lo": self.comp_lo, "comp_hi": self.comp_hi,
                "verdict": self.verdict, "rows": self.rows}


def surrogate_comparability_range(spec):
    """Largest radius for which the closed-form surrogate claim applies."""
    return 1.0 if spec.kind == SIMPLEX else pi


def doubling_scan(spec, vol, points, radii):
    """Max of V(x, 2r)/V(x, r) and the V / surrogate comparability range.

    The comparability rows are restricted to the surrogate's validity range
    (r <= 1 on the simplex, r <= pi otherwise); the doubling ratio itself is
    taken over all requested radii in (0, pi/2].
    """
    from .volumes import volume_surrogate

    rows = []
    max_ratio = 0.0
    comp_lo, comp_hi = np.inf, 0.0
    comp_max_r = surrogate_comparability_range(spec)
    for x in np.atleast_2d(np.asarray(points, float)):
        for r in radii:
            if not 0 < r <= pi / 2:
                raise DomainError("doubling radii must lie in (0, pi/2]")
            v1 = vol(x, r)
            v2 = vol(x, 2 * r)
            for est in (v1, v2):
                if est.value > 0 and est.stderr > 0.05 * est.value:
                    raise PrecisionError(
                        f"MC stderr {est.stderr:.2e} exceeds 5% of V={est.value:.2e}; "
                        "raise the sample budget"
                    )
            ratio = v2.value / v1.value
            max_ratio = max(max_ratio, ratio)
            row = {"x": x.tolist(), "r": r, "V_r": v1.value, "V_2r": v2.value,
                   "ratio": ratio}
            if r <= comp_max_r:
                comp = v1.value / volume_surrogate(spec, x, r)
                comp_lo, comp_hi = min(comp_lo, comp), max(comp_hi, comp)
                row["surrogate_comp"] = comp
            rows.append(row)
    cap = doubling_cap(spec)
    return DoublingReport(spec.label(), max_ratio, cap, float(comp_lo),
                          float(comp_hi), rows, max_ratio <= cap)


# ---------------------------------------------------------------------------
# Green's identity and boundary flux


def _chart_factor(spec):
    return 4.0 if spec.kind == SIMPLEX else 1.0


def green_identity_check(spec, f, h, quad=None):
    """|int h Lw f dmu + int <grad f, grad h>_g dmu| / max(|lhs|, |rhs|, 1).

    ``f`` is a MultiPoly or a coefficient vector over graded monomials;
    ``h`` provides vectorized values and gradients (PolyField, GaussianBump).
    The weighted Laplacian on the chart equals the polynomial operator up to
    the fixed chart factor (4 on the simplex).  Checks on one quadrature
    share its monomial Vandermonde.
    """
    deg, cf = _coefficients(spec.n, f)
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
    lf = _chart_factor(spec) * (fr.VL @ cf)
    lhs = float(w @ (hv * lf))
    gf = fr.VD @ cf
    rhs = -float(w @ np.einsum("im,mij,jm->m", gf, fr.G, gh))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@dataclass
class FluxReport:
    spec_label: str
    epsilons: list
    faces: dict           # name -> {"J": [...], "slope", "r2", "expected"}
    fitted_slope: float | None
    expected_slope: float | None
    r2: float | None
    zero_flux: bool

    def to_json_obj(self):
        return {"spec": self.spec_label, "epsilons": list(self.epsilons),
                "faces": self.faces, "fitted_slope": self.fitted_slope,
                "expected_slope": self.expected_slope, "r2": self.r2,
                "zero_flux": self.zero_flux}


def _ball_flux(spec, f, h, eps):
    n = spec.n
    R = sqrt(1 - eps)
    if n == 1:
        xv = np.array([[R], [-R]])
        total = float(np.array([1.0, -1.0]) @ (f.gradients(xv)[:, 0] * h.values(xv)))
        return eps ** (spec.gamma + 0.5) * total
    theta, wts = _angular_rule(n, max(f.degree + 6, 32))
    pts = R * theta
    radial = np.einsum("mi,mi->m", theta, f.gradients(pts))
    integral = float(wts @ (radial * h.values(pts)))
    return R ** (n - 1) * eps ** (spec.gamma + 0.5) * integral


def _simplex_face_flux(spec, f, h, eps, face):
    """Signed flux through one face of the shrunken simplex.

    face i < n: the hyperplane x_i = eps; face n: the slanted face
    |x| = 1 - eps.  Supported for n in {1, 2}.
    """
    n = spec.n

    def X(x):
        # the field 4 x_i (d_i f - sum_j x_j d_j f) at one point
        g = f.gradient_at(x)
        return 4.0 * x * (g - x @ g)

    def wbr(x):
        return weight_density(spec, x)

    if n == 1:
        if face == 0:
            x = np.array([eps])
            return -h.values(x[None, :])[0] * wbr(x) * X(x)[0]
        x = np.array([1 - eps])
        return h.values(x[None, :])[0] * wbr(x) * X(x)[0]
    if n != 2:
        raise CapacityError("simplex flux faces implemented for n in {1, 2}")
    if face < n:
        other = 1 - face

        def integrand(u):
            x = np.empty(2)
            x[face] = eps
            x[other] = u
            return -h.values(x[None, :])[0] * wbr(x) * X(x)[face]

        val, _ = scipy_quad(integrand, eps, 1 - 2 * eps, limit=200)
        return val

    # slanted face: outward normal (1,..,1)/sqrt(n) against area element
    # sqrt(n) dx', so the two sqrt(n) factors cancel
    def integrand(u):
        x = np.array([u, 1 - eps - u])
        return h.values(x[None, :])[0] * wbr(x) * X(x).sum()

    val, _ = scipy_quad(integrand, eps, 1 - 2 * eps, limit=200)
    return val


def boundary_flux_decay(spec, f, h, epsilons):
    """Boundary flux magnitudes J_eps and their fitted log-log decay rates.

    The ball has a single spherical face with expected rate gamma + 1/2; the
    simplex is decomposed into its n + 1 faces with per-face rates
    kappa_i + 1/2, the smallest kappa dominating the total.  ``f`` is a
    MultiPoly or a coefficient vector over graded monomials, ``h`` provides
    vectorized values (PolyField, GaussianBump).
    """
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(eps) < 4 or not all(0 < e < 0.5 for e in eps):
        raise DomainError("need at least 4 epsilons in (0, 1/2)")
    if spec.kind == INTERVAL:
        raise DomainError(
            "boundary flux is defined on the ball and simplex; map the interval "
            "to the n=1 simplex first"
        )
    faces = {}
    f = PolyField(f, spec.n)
    if spec.kind == BALL:
        names = ["sphere"]
        expected = {"sphere": spec.gamma + 0.5}
        J = {"sphere": [_ball_flux(spec, f, h, e) for e in eps]}
    else:
        names = [f"F{i + 1}" for i in range(spec.n)] + ["H"]
        expected = {f"F{i + 1}": spec.kappa[i] + 0.5 for i in range(spec.n)}
        expected["H"] = spec.kappa[spec.n] + 0.5
        J = {nm: [_simplex_face_flux(spec, f, h, e, i) for e in eps]
             for i, nm in enumerate(names)}
    zero = True
    for nm in names:
        vals = np.abs(np.array(J[nm]))
        entry = {"J": [float(v) for v in J[nm]], "expected": expected[nm],
                 "slope": None, "r2": None}
        if np.all(vals < 1e-14):
            entry["zero"] = True
        else:
            zero = False
            slope, _, r2 = loglog_fit(eps, vals)
            entry["slope"], entry["r2"] = slope, r2
            entry["zero"] = False
        faces[nm] = entry
    if zero:
        return FluxReport(spec.label(), eps, faces, None, None, None, True)
    if spec.kind == BALL:
        dom = "sphere"
    else:
        idx = int(np.argmin(spec.kappa))
        dom = "H" if idx == spec.n else f"F{idx + 1}"
        if faces[dom]["zero"]:
            dom = min((nm for nm in names if not faces[nm]["zero"]),
                      key=lambda nm: expected[nm])
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
    logw = np.stack([weight_log_gradient(spec, p) for p in pts], axis=0)
    drift = _metric_divergence(spec, pts) + np.einsum("mij,mi->mj", fr.G, logw)
    chart = chart + np.einsum("mj,jm->m", drift, fr.VD @ c)
    op = _chart_factor(spec) * (fr.VL @ c)
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
    checks: list  # (name, residual, tolerance, passed)

    def to_json_obj(self):
        return {"alpha": self.alpha, "beta": self.beta, "max_k": self.max_k,
                "checks": [{"name": n, "residual": r, "tolerance": tol,
                            "pass": ok} for n, r, tol, ok in self.checks]}

    @property
    def verdict(self):
        return all(ok for *_, ok in self.checks)


def _substitution_matrix(max_k):
    """A[r, j] = C(r, j) 2^j (-1)^(r-j): the coefficients of p(2x - 1) are c @ A.

    Binomials times powers of two are exact in doubles through r = 56.
    """
    return np.array([[float(comb(r, j) * 2 ** j * (-1) ** (r - j)) for j in range(max_k + 1)]
                     for r in range(max_k + 1)])


def jacobi_simplex_correspondence(alpha, beta, max_k, grid_size=20,
                                  times=(0.2, 1.0), tol=1e-9, seed=0):
    """Four residuals tying the interval operator to the n=1 simplex:

    (i) operator conjugation under x -> (x+1)/2 on a random polynomial,
    (ii) eigenfunction matching up to sign with the 2^(-(a+b+1)/2) scaling,
    (iii) distance halving on a grid,
    (iv) heat-kernel scaling by 2^(-(a+b+1)).

    (i) and (ii) work on ascending coefficient arrays: the substitution
    x -> 2x - 1 is one product with the exact matrix of
    ``_substitution_matrix`` and each operator one product with its dense
    matrix from ``operator_matrix``.
    """
    kappa = (beta + 0.5, alpha + 0.5)
    ispec = DomainSpec.interval(alpha, beta)
    sspec = DomainSpec.simplex(1, kappa)
    rng = np.random.default_rng(seed)
    A = _substitution_matrix(max_k)
    checks = []

    monomials = graded_monomials(1, max_k)    # (0,), (1,), ..., (max_k,)
    f = random_coefficients(1, max_k, rng)
    lhs = (f @ A) @ operator_matrix(sspec, monomials)
    rhs = (f @ operator_matrix(ispec, monomials)) @ A
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    checks.append(("operator_conjugation", np.abs(lhs - rhs).max() / scale))

    ib = build_basis(ispec, max_k)
    sb = build_basis(sspec, max_k)
    Q = (ib.coefficients @ A) * 2.0 ** ((alpha + beta + 1) / 2.0)
    S = sb.coefficients * np.where(np.diag(Q) * np.diag(sb.coefficients) < 0, -1.0, 1.0)[:, None]
    scale = np.maximum(np.abs(Q).max(axis=1), np.abs(S).max(axis=1))
    checks.append(("eigenfunction_match", (np.abs(Q - S).max(axis=1) / scale).max()))

    X = np.cos(np.linspace(0.15, pi - 0.15, grid_size))[:, None]
    X1 = (X + 1) / 2
    gap = distance_matrix(sspec, X1, X1) - distance_matrix(ispec, X, X) / 2.0
    checks.append(("distance_halving", np.abs(gap).max()))

    evi = HeatKernelEvaluator(ib)
    evs = HeatKernelEvaluator(sb)
    kscale = 2.0 ** (-(alpha + beta + 1))
    worst = 0.0
    for t in times:
        ki, _ = evi.heat_kernel_grid(t, X, X)
        ks, _ = evs.heat_kernel_grid(t, X1, X1)
        gap = np.abs(ki - kscale * ks).max()
        worst = max(worst, gap / np.abs(ki).max())
    checks.append(("kernel_scaling", worst))

    rows = [(name, float(res), tol, bool(res <= tol)) for name, res in checks]
    return CorrespondenceReport(alpha, beta, max_k, rows)


# ---------------------------------------------------------------------------
# multiplier localization and finite-speed surrogate


@dataclass
class LocalizationReport:
    spec_label: str
    delta: float
    order: int
    c_m_hat: float
    exponent: float
    r2: float
    excluded: int
    used: int
    verdict: bool

    def to_json_obj(self):
        return {"spec": self.spec_label, "delta": self.delta, "order": self.order,
                "c_m_hat": self.c_m_hat, "exponent": self.exponent, "r2": self.r2,
                "excluded": self.excluded, "used": self.used, "verdict": self.verdict}


def localization_check(ev, delta, m, vol, anchors=None, window=(2.0, 20.0),
                       n_radii=40, support=2.0):
    """Decay of the smooth-bump multiplier kernel in units of rho/delta.

    D = |kernel| * sqrt(V(x, delta) V(y, delta)) * (1 + rho/delta)^m must stay
    bounded; the fitted exponent of |kernel| * sqrt(VV) against (1 + rho/delta)
    over the window certifies at least order-m localization.  Pairs are laid
    out along chart geodesics so rho/delta covers the window densely.  The
    default spectral support 2 pushes the flat head of the profile transform
    (scale ~ 1/support) out of the fit window; the fit itself runs on the
    upper envelope (right-to-left record maxima), because the transform of a
    compactly supported profile oscillates through zeros that carry no rate
    information.
    """
    spec = ev.spec
    if m < spec.n + 1:
        raise DomainError("smoothness order must be at least n + 1")
    phi = MultiplierSpec("smooth_bump", support=support, order=m)
    if anchors is None:
        anchors = interior_points(spec, 5, margin=0.1)
    anchors = np.atleast_2d(np.asarray(anchors, float))
    xis = np.concatenate([[0.0, 0.5, 1.0, 2.0, 3.0],
                          np.geomspace(0.9 * window[0], window[1], n_radii)])
    rays = [geodesic_ray(spec, a, delta * xis) for a in anchors]
    # one grid per delta: every anchor against all rays, each reads its block
    vals, tails = ev.multiplier_grid(phi, delta, anchors,
                                     np.concatenate([targets for _, targets in rays]))
    rows_x, rows_y = [], []
    excluded = used = 0
    cm = 0.0
    va = vol.values(anchors, delta)
    for i, (dists, targets) in enumerate(rays):
        cols = slice(used, used + len(targets))
        used += len(targets)
        k, b = np.abs(vals[i, cols]), tails[i, cols]
        keep = ~((k > 0) & (b > 0.1 * k))
        excluded += int(np.count_nonzero(~keep))
        if not keep.any():
            continue
        xi = dists[keep] / delta
        base = k[keep] * np.sqrt(va[i] * vol.values(targets[keep], delta))
        cm = max(cm, float(np.max(base * (1.0 + xi) ** m)))
        fit = (window[0] <= xi) & (xi <= window[1]) & (base > 0)
        rows_x.extend((1.0 + xi[fit]).tolist())
        rows_y.extend(base[fit].tolist())
    if excluded > 0.2 * used:
        raise PrecisionError(
            f"{excluded}/{used} grid points dominated by truncation; "
            "raise the basis cap or delta"
        )
    if len(rows_x) < 4:
        raise DomainError("localization window needs more grid coverage")
    order = np.argsort(rows_x)
    rows_x = np.asarray(rows_x)[order]
    rows_y = np.asarray(rows_y)[order]
    # fit the decay envelope: right-to-left record maxima keep the
    # oscillation peaks and the monotone shoulder, dropping the transform's
    # zero dips, which carry no rate information
    suffix = np.maximum.accumulate(rows_y[::-1])[::-1]
    records = rows_y >= suffix
    bx, by = rows_x[records], rows_y[records]
    if len(bx) < 4:
        raise DomainError("need at least 4 envelope points for the fit")
    slope, _, r2 = loglog_fit(bx, by)
    exponent = -slope
    verdict = exponent >= m - 0.5 and r2 >= 0.98 and np.isfinite(cm)
    return LocalizationReport(spec.label(), delta, m, cm, exponent, r2,
                              excluded, len(bx), verdict)


@dataclass
class FiniteSpeedReport:
    spec_label: str
    delta: float
    order: int
    band: float
    r_star: float | None
    c_star_hat: float | None
    max_beyond: float | None
    degenerate: bool

    def to_json_obj(self):
        return {"spec": self.spec_label, "delta": self.delta, "order": self.order,
                "band": self.band, "r_star": self.r_star,
                "c_star_hat": self.c_star_hat, "max_beyond": self.max_beyond,
                "degenerate": self.degenerate}


def finite_speed_scan(ev, delta, m, A, anchors=None, threshold=1e-8,
                      tail_cap=1e-12, n_radii=80):
    """Empirical support radius of the band-limited sinc-power multiplier.

    Finds the smallest r* with max |kernel| <= threshold over pairs with
    rho > r*, and reports c*_hat = r* / (delta * m * A).  Degenerate when the
    band passes only level zero (kernel nearly constant).
    """
    spec = ev.spec
    phi = MultiplierSpec("sinc_power", order=m, band=A)
    lam1 = eigenvalue(spec, 1)
    if phi.phi(np.array([delta * sqrt(lam1)]))[0] < 1e-12:
        return FiniteSpeedReport(spec.label(), delta, m, A, None, None, None, True)
    if anchors is None:
        anchors = interior_points(spec, 4, margin=0.1)
    anchors = np.atleast_2d(np.asarray(anchors, float))
    smax = min(pi, 3.0 * delta * m * A)
    targets_s = np.linspace(0.02 * delta * m * A, smax, n_radii)
    rays = [geodesic_ray(spec, a, targets_s) for a in anchors]
    rhos = np.concatenate([dists for dists, _ in rays])
    # one grid per delta: every anchor against all rays, each reads its block
    vals, tails = ev.multiplier_grid(phi, delta, anchors,
                                     np.concatenate([targets for _, targets in rays]))
    block = np.repeat(np.arange(len(anchors)), [len(dists) for dists, _ in rays])
    cols = np.arange(len(rhos))
    mags = np.abs(vals[block, cols])
    worst_tail = float(tails[block, cols].max())
    if worst_tail > tail_cap:
        raise PrecisionError(
            f"multiplier truncation tail {worst_tail:.2e} exceeds {tail_cap:g}; "
            "raise the basis cap"
        )
    order = np.argsort(rhos)
    rhos = rhos[order]
    mags = mags[order]
    if rhos[-1] < delta * m * A:
        raise DomainError("rays too short to bracket the expected support radius")
    suffix = np.maximum.accumulate(mags[::-1])[::-1]
    ok = np.concatenate([suffix[1:] <= threshold, [True]])
    if not ok.any():
        raise PrecisionError("no radius inside the domain bounds the kernel below threshold")
    idx = int(np.argmax(ok))
    r_star = float(rhos[idx])
    beyond = float(suffix[idx + 1]) if idx + 1 < len(suffix) else 0.0
    return FiniteSpeedReport(spec.label(), delta, m, A, r_star,
                             r_star / (delta * m * A), beyond, False)


# ---------------------------------------------------------------------------
# symmetry / self-adjointness


def operator_symmetry_residual(spec, quad, f, h):
    """(relative symmetry gap of the bilinear form, -int f Lf dmu).

    ``f`` and ``h`` are MultiPolys or coefficient vectors over graded monomials.
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


def kernel_selfadjointness_residual(ev, t, f, h, quad=None):
    """Relative gap of int (e^{tL} f) h dmu against int f (e^{tL} h) dmu.

    ``f`` and ``h`` are MultiPolys or coefficient vectors over graded monomials.
    """
    basis = ev.basis
    if quad is None:
        quad = basis.quad
        V = basis.node_values
    else:
        V = basis.evaluate(quad.nodes)
    w = quad.weights
    n = basis.spec.n
    (df, cf), (dh, ch) = _coefficients(n, f), _coefficients(n, h)
    M = monomial_vandermonde(quad.nodes, graded_monomials(n, max(df, dh)))
    fv = M[:, :len(cf)] @ cf
    hv = M[:, :len(ch)] @ ch
    coef_f = V.T @ (w * fv)
    coef_h = V.T @ (w * hv)
    damp = np.concatenate([
        np.full(basis.level_slice(k).stop - basis.level_slice(k).start,
                np.exp(-ev.lambdas[k] * t))
        for k in range(ev.policy.hard_cap + 1)
    ])
    etf = V @ (damp * coef_f)
    eth = V @ (damp * coef_h)
    a = float(w @ (etf * hv))
    b = float(w @ (fv * eth))
    return abs(a - b) / max(abs(a), abs(b), 1.0)
