"""Independent oracles used by the test suite.

Everything here is computed through a different route than the library code
it checks: sympy symbolic calculus for the operators, closed-form Gamma
integrals for monomial moments, the classical cosine series for the
equilibrium-weight heat kernel, LAPACK determinants, a member-by-member
Gram-Schmidt build of the ball and simplex bases, the interval/simplex
correspondence through sparse polynomial arithmetic and scalar distances,
and the Green, chart and flux checks through ``MultiPoly`` arithmetic (the
operator applied term by term, the inverse metric as exact polynomials,
every evaluation through ``eval_many``).
"""

from math import exp, lgamma, pi, sqrt

import numpy as np
import sympy as sp
from scipy.integrate import quad as scipy_quad

from polyheat.basis import build_basis, level_dimension
from polyheat.domains import (
    BALL,
    DomainSpec,
    distance,
    inverse_metric_polys,
    weight_density,
    weight_log_gradient,
)
from polyheat.errors import DomainError, PrecisionError
from polyheat.polynomials import (
    MultiPoly,
    apply_jacobi_operator,
    apply_simplex_operator,
    poly_partial,
)
from polyheat.quadrature import _angular_rule
from polyheat.validation import loglog_fit, random_poly


def poly_to_sympy(p, symbols):
    expr = sp.Integer(0)
    for e, c in p.items():
        term = sp.Float(c, 30)
        for s, k in zip(symbols, e):
            term *= s ** k
        expr += term
    return sp.expand(expr)


def sympy_to_poly(expr, symbols):
    expr = sp.expand(expr)
    poly = sp.Poly(expr, *symbols)
    terms = {}
    for monom, coeff in poly.terms():
        terms[tuple(int(m) for m in monom)] = float(coeff)
    return MultiPoly(len(symbols), terms)


def sympy_jacobi_apply(p, alpha, beta):
    x = sp.symbols("x")
    f = poly_to_sympy(p, [x])
    lf = (1 - x ** 2) * sp.diff(f, x, 2) + (beta - alpha) * sp.diff(f, x) \
        - (alpha + beta + 2) * x * sp.diff(f, x)
    return sympy_to_poly(lf, [x])


def sympy_ball_apply(p, gamma):
    n = p.dimension
    xs = sp.symbols(f"x0:{n}")
    f = poly_to_sympy(p, xs)
    lf = sum(sp.diff(f, xi, 2) for xi in xs)
    lf -= sum(xi * xj * sp.diff(f, xi, xj) for xi in xs for xj in xs)
    lf -= (n + 2 * gamma) * sum(xi * sp.diff(f, xi) for xi in xs)
    return sympy_to_poly(lf, xs)


def sympy_simplex_apply(p, kappa):
    n = p.dimension
    xs = sp.symbols(f"x0:{n}")
    f = poly_to_sympy(p, xs)
    ktot = sum(kappa)
    lf = sum(xi * sp.diff(f, xi, 2) for xi in xs)
    lf -= sum(xi * xj * sp.diff(f, xi, xj) for xi in xs for xj in xs)
    lf += sum(
        (kappa[i] + sp.Rational(1, 2) - (ktot + sp.Rational(n + 1, 2)) * xs[i])
        * sp.diff(f, xs[i])
        for i in range(n)
    )
    return sympy_to_poly(lf, xs)


def _log_gamma_ratio(nums, dens):
    return exp(sum(lgamma(v) for v in nums) - sum(lgamma(v) for v in dens))


def interval_monomial_moment(k, alpha, beta):
    """int_(-1)^1 x^k (1-x)^a (1+x)^b dx through the shifted Beta expansion.

    The alternating binomial sum cancels catastrophically in doubles from
    k ~ 14, so it is evaluated in 60-digit arithmetic.
    """
    import mpmath as mp

    with mp.workdps(60):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        total = mp.mpf(0)
        for j in range(k + 1):
            total += (
                (-1) ** (k - j)
                * mp.binomial(k, j)
                * mp.mpf(2) ** j
                * mp.beta(b + j + 1, a + 1)
            )
        return float(mp.mpf(2) ** (a + b + 1) * total)


def ball_monomial_moment(exponents, gamma):
    """int_B x^a (1 - |x|^2)^(gamma - 1/2) dx; zero unless all a_i even."""
    if any(e % 2 for e in exponents):
        return 0.0
    n = len(exponents)
    tot = sum(exponents)
    return _log_gamma_ratio(
        [((e + 1) / 2.0) for e in exponents] + [gamma + 0.5],
        [(tot + n) / 2.0 + gamma + 0.5],
    )


def simplex_monomial_moment(exponents, kappa):
    """Dirichlet integral of x^a against the simplex weight."""
    n = len(exponents)
    nums = [kappa[i] + 0.5 + exponents[i] for i in range(n)] + [kappa[n] + 0.5]
    return _log_gamma_ratio(nums, [sum(kappa) + (n + 1) / 2.0 + sum(exponents)])


def chebyshev_heat_kernel(t, x, y, terms=600):
    """Equilibrium-weight interval heat kernel as a cosine series."""
    th, ph = np.arccos(np.clip(x, -1, 1)), np.arccos(np.clip(y, -1, 1))
    k = np.arange(1, terms + 1)
    return float((1.0 + 2.0 * np.sum(np.exp(-k * k * t) * np.cos(k * th) * np.cos(k * ph))) / pi)


def dense_perturbed_det(a):
    """LAPACK determinant of diag(a) + ones."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.det(np.diag(a) + np.ones((a.size, a.size))))


def arc_volume_chebyshev(x, r):
    """Arc-length volume on the interval at alpha = beta = -1/2."""
    th = np.arccos(np.clip(x, -1, 1))
    return float(min(pi, th + r) - max(0.0, th - r))


def member_gram_schmidt(spec, K, quad):
    """Node values (quad.size, D) of the ball or simplex basis, one member at a time.

    Level k is generated from the candidates x_i P_(k-1, j), orthogonalized
    twice against every accepted member; the members are then taken one by
    one, each the surviving candidate of largest residual norm, cleaned twice
    more against everything accepted and normalized, and the other survivors
    are orthogonalized against it.
    """
    n = spec.n
    dims = [level_dimension(n, k) for k in range(K + 1)]
    nodes, w = quad.nodes, quad.weights
    V = np.zeros((quad.size, sum(dims)))
    V[:, 0] = 1.0 / sqrt(w.sum())
    pos = 1
    for k in range(1, K + 1):
        prev = np.arange(pos - dims[k - 1], pos)
        cand = np.concatenate([nodes[:, [i]] * V[:, prev] for i in range(n)], axis=1)
        orig_norm = np.sqrt(np.einsum("ij,ij->j", cand, w[:, None] * cand))
        for _ in range(2):
            cand -= V[:, :pos] @ (V[:, :pos].T @ (w[:, None] * cand))
        alive = list(range(cand.shape[1]))
        for _ in range(dims[k]):
            norms = np.sqrt(np.einsum("ij,ij->j", cand[:, alive], w[:, None] * cand[:, alive]))
            best = alive[int(np.argmax(norms))]
            v = cand[:, best]
            for _ in range(2):
                v = v - V[:, :pos] @ (V[:, :pos].T @ (w * v))
            nrm = sqrt(v @ (w * v))
            if nrm < 1e-8 * orig_norm[best]:
                raise PrecisionError(f"member Gram-Schmidt lost level {k}")
            V[:, pos] = v / nrm
            alive.remove(best)
            if alive:
                proj = V[:, pos] @ (w[:, None] * cand[:, alive])
                cand[:, alive] -= np.outer(V[:, pos], proj)
            pos += 1
    return V


def poly_affine_univariate(p, a, b):
    """Exact composition p(a*x + b) for univariate p, by Horner."""
    if p.dimension != 1:
        raise DomainError("affine composition implemented for univariate polynomials")
    lin = MultiPoly(1, {(1,): a, (0,): b})
    out = MultiPoly.zero(1)
    coeffs = {e[0]: c for e, c in p.items()}
    for k in range(p.degree(), -1, -1):
        out = out * lin + coeffs.get(k, 0.0)
    return out


def reference_correspondence(alpha, beta, max_k, grid_size=20, seed=0):
    """Residuals (i)-(iii) of ``jacobi_simplex_correspondence`` through MultiPoly.

    The random polynomial and the basis members are composed with x -> 2x - 1
    by Horner, the operators applied term by term, the members read from
    ``OrthonormalBasis.levels``, and the distances taken one pair at a time.
    """
    kappa = (beta + 0.5, alpha + 0.5)
    ispec = DomainSpec.interval(alpha, beta)
    sspec = DomainSpec.simplex(1, kappa)
    out = {}

    f = random_poly(1, max_k, np.random.default_rng(seed))
    lhs = apply_simplex_operator(poly_affine_univariate(f, 2.0, -1.0), kappa)
    rhs = poly_affine_univariate(apply_jacobi_operator(f, alpha, beta), 2.0, -1.0)
    scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1e-300)
    out["operator_conjugation"] = lhs.coeff_distance(rhs) / scale

    ib, sb = build_basis(ispec, max_k), build_basis(sspec, max_k)
    factor = 2.0 ** ((alpha + beta + 1) / 2.0)
    worst = 0.0
    for k in range(max_k + 1):
        q = poly_affine_univariate(ib.levels[k][0], 2.0, -1.0) * factor
        s = sb.levels[k][0]
        if q.coeff((k,)) * s.coeff((k,)) < 0:
            s = -1.0 * s
        worst = max(worst, q.coeff_distance(s) / max(q.max_abs_coeff(), s.max_abs_coeff()))
    out["eigenfunction_match"] = worst

    xs = np.cos(np.linspace(0.15, pi - 0.15, grid_size))
    out["distance_halving"] = max(
        abs(distance(sspec, [(x + 1) / 2], [(y + 1) / 2]) - distance(ispec, [x], [y]) / 2.0)
        for x in xs for y in xs)
    return out


# ---------------------------------------------------------------------------
# Green, chart and flux through MultiPoly arithmetic


class ReferenceField:
    """A MultiPoly test function evaluated term by term."""

    def __init__(self, poly):
        self.poly = poly
        self._grads = [poly_partial(poly, i) for i in range(poly.dimension)]

    def values(self, pts):
        return self.poly.eval_many(pts)

    def gradients(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        return np.stack([g.eval_many(pts) for g in self._grads], axis=1)


def _chart_factor(spec):
    return 4.0 if spec.kind == "simplex" else 1.0


def reference_green(spec, f, h, quad):
    """``green_identity_check`` through MultiPoly; ``h`` a ReferenceField or bump."""
    pts, w = quad.nodes, quad.weights
    lf = _chart_factor(spec) * spec.apply_operator(f).eval_many(pts)
    lhs = float(w @ (h.values(pts) * lf))
    ginv = inverse_metric_polys(spec)
    gf = np.stack([poly_partial(f, i).eval_many(pts) for i in range(spec.n)], axis=1)
    gh = h.gradients(pts)
    inner = np.zeros(len(pts))
    for i in range(spec.n):
        for j in range(spec.n):
            inner += ginv[i][j].eval_many(pts) * gf[:, i] * gh[:, j]
    rhs = -float(w @ inner)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def reference_chart(spec, f, points):
    """``chart_laplacian_check`` through MultiPoly: the metric divergence too."""
    pts = np.atleast_2d(np.asarray(points, float))
    n = spec.n
    ginv = inverse_metric_polys(spec)
    div_j = []
    for j in range(n):
        s = MultiPoly.zero(n)
        for i in range(n):
            s = s + poly_partial(ginv[i][j], i)
        div_j.append(s)
    f_i = [poly_partial(f, i) for i in range(n)]
    f_ij = [[poly_partial(f_i[i], j) for j in range(n)] for i in range(n)]
    chart = np.zeros(len(pts))
    for i in range(n):
        for j in range(n):
            chart += ginv[i][j].eval_many(pts) * f_ij[i][j].eval_many(pts)
    for j in range(n):
        chart += div_j[j].eval_many(pts) * f_i[j].eval_many(pts)
    logw = np.stack([weight_log_gradient(spec, p) for p in pts], axis=0)
    for j in range(n):
        coef = np.zeros(len(pts))
        for i in range(n):
            coef += ginv[i][j].eval_many(pts) * logw[:, i]
        chart += coef * f_i[j].eval_many(pts)
    op = _chart_factor(spec) * spec.apply_operator(f).eval_many(pts)
    num = float(np.max(np.abs(chart - op)))
    den = float(np.max(np.maximum(np.abs(chart), np.abs(op))))
    return num / den if den > 0 else num


def _reference_ball_flux(spec, f, h, eps):
    n = spec.n
    R = sqrt(1 - eps)
    grads = [poly_partial(f, i) for i in range(n)]
    if n == 1:
        total = 0.0
        for s in (R, -R):
            xv = np.array([[s]])
            total += float((s / R) * grads[0].eval_many(xv)[0] * h.values(xv)[0])
        return eps ** (spec.gamma + 0.5) * total
    theta, wts = _angular_rule(n, max(f.degree() + 6, 32))
    pts = R * theta
    radial = np.zeros(len(pts))
    for i in range(n):
        radial += theta[:, i] * grads[i].eval_many(pts)
    integral = float(wts @ (radial * h.values(pts)))
    return R ** (n - 1) * eps ** (spec.gamma + 0.5) * integral


def _reference_simplex_face_flux(spec, f, h, eps, face):
    n = spec.n
    grads = [poly_partial(f, i) for i in range(n)]

    def X_comp(x, i):
        g = grads[i].eval_many(x[None, :])[0]
        s = sum(x[j] * grads[j].eval_many(x[None, :])[0] for j in range(n))
        return 4.0 * x[i] * (g - s)

    def wbr(x):
        return weight_density(spec, x)

    if n == 1:
        x = np.array([eps if face == 0 else 1 - eps])
        sign = -1.0 if face == 0 else 1.0
        return sign * h.values(x[None, :])[0] * wbr(x) * X_comp(x, 0)
    if face < n:
        other = 1 - face

        def integrand(u):
            x = np.empty(2)
            x[face] = eps
            x[other] = u
            return -h.values(x[None, :])[0] * wbr(x) * X_comp(x, face)
    else:
        def integrand(u):
            x = np.array([u, 1 - eps - u])
            return h.values(x[None, :])[0] * wbr(x) * (X_comp(x, 0) + X_comp(x, 1))

    val, _ = scipy_quad(integrand, eps, 1 - 2 * eps, limit=200)
    return val


def reference_flux(spec, f, h, epsilons):
    """Per face (J values in decreasing epsilon, fitted slope or None) through MultiPoly."""
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    if spec.kind == BALL:
        faces = {"sphere": [_reference_ball_flux(spec, f, h, e) for e in eps]}
    else:
        names = [f"F{i + 1}" for i in range(spec.n)] + ["H"]
        faces = {nm: [_reference_simplex_face_flux(spec, f, h, e, i) for e in eps]
                 for i, nm in enumerate(names)}
    out = {}
    for nm, J in faces.items():
        vals = np.abs(np.array(J))
        slope = None if np.all(vals < 1e-14) else loglog_fit(eps, vals)[0]
        out[nm] = (J, slope)
    return out
