"""Independent oracles used by the test suite.

Everything here is computed through a different route than the library code
it checks: sympy symbolic calculus for the operators, closed-form Gamma
integrals for monomial moments, the classical cosine series for the
equilibrium-weight heat kernel, LAPACK determinants, and a member-by-member
Gram-Schmidt build of the ball and simplex bases.
"""

from math import exp, lgamma, pi, sqrt

import numpy as np
import sympy as sp

from polyheat.basis import level_dimension
from polyheat.errors import PrecisionError
from polyheat.polynomials import MultiPoly


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
