"""Independent oracles used by the test suite.

Everything here is computed through a different route than the library code
it checks: sympy symbolic calculus for the operators, closed-form Gamma
integrals for monomial moments, the classical cosine series for the
equilibrium-weight heat kernel, LAPACK determinants, plain Monte Carlo for
the metric-ball volumes and scalar distances to the points of
``sample_measure`` (a sampler of the weighted measure written here) as a
second estimate, mpmath's incomplete Beta for the interval volumes, the
kernel tails from per-level diagonals at fully evaluated points (and the
level-by-level window maximum they majorize), the mass and semigroup checks
through kernel rows to every quadrature node, the interval basis from
hand-written value and coefficient recurrences, the eigenrelation and Gram
checks in their gather/scatter and identity-matrix forms, the coefficient
rows by the level recurrence over every column from the Jacobi data alone,
the one-dimensional family in Python floats one point at a time, the
sphere rules of n <= 3 written out by hand and the closed-form sphere
monomial moments, a
member-by-member Gram-Schmidt build of the ball and simplex bases, the
interval/simplex correspondence through sparse polynomial arithmetic and
scalar distances, the Green, chart and flux checks through ``MultiPoly``
arithmetic (the operator applied term by term, the inverse metric as exact
polynomials, every evaluation through ``eval_many``), and the Gaussian and
localization scans as per-pair and per-anchor loops.

The package takes test polynomials as coefficient vectors over
``graded_monomials``; ``as_coefficients`` and ``poly_of`` convert between
those and ``MultiPoly``.
"""

from math import exp, lgamma, pi, sqrt

import numpy as np
import sympy as sp
from scipy.integrate import quad as scipy_quad

from polyheat.basis import (_jacobi_parameters, _scales, build_basis, eigenvalue,
                           graded_monomials, level_dimension)
from polyheat.domains import (
    BALL,
    INTERVAL,
    SIMPLEX,
    DomainSpec,
    distance,
    distance_matrix,
    total_mass,
    weight_density,
    weight_log_gradient,
)
from polyheat.errors import DomainError, PrecisionError
from polyheat.polynomials import (
    MultiPoly,
    apply_ball_operator,
    apply_jacobi_operator,
    apply_simplex_operator,
    monomial_operator,
    poly_partial,
)
from polyheat.quadrature import gauss_jacobi, jacobi_recurrence
from polyheat.heat import MultiplierSpec
from polyheat.validation import (
    GAUSS_BAND_HI,
    GAUSS_DIAG_BAND,
    GAUSS_THRESHOLD,
    LOCALIZE_ANCHORS,
    LOCALIZE_RADII,
    LOCALIZE_SUPPORT,
    LOCALIZE_WINDOW,
    GaussBoundReport,
    LocalizationReport,
    geodesic_ray,
    interior_points,
    loglog_fit,
    random_coefficients,
)


# ---------------------------------------------------------------------------
# MultiPoly and coefficient vectors over graded monomials


def as_coefficients(p, monomials=None):
    """The coefficients of ``p`` over ``monomials``, by default
    graded_monomials(n, degree of p): the vector the package takes."""
    if monomials is None:
        monomials = graded_monomials(p.dimension, max(p.degree(), 0))
    return np.array([p.coeff(e) for e in monomials])


def poly_of(n, coef):
    """The MultiPoly of a coefficient vector over graded monomials."""
    degree = 0
    while len(graded_monomials(n, degree)) < len(coef):
        degree += 1
    return MultiPoly(n, dict(zip(graded_monomials(n, degree), coef)))


def random_poly(n, degree, rng):
    """The MultiPoly of ``random_coefficients``, from the same draws."""
    return poly_of(n, random_coefficients(n, degree, rng))


def apply_operator(spec, p):
    """The second-order operator of ``spec`` applied to a MultiPoly."""
    if spec.kind == INTERVAL:
        return apply_jacobi_operator(p, spec.alpha, spec.beta)
    if spec.kind == BALL:
        return apply_ball_operator(p, spec.gamma)
    return apply_simplex_operator(p, spec.kappa)


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


def _window_roots(ev, X):
    """sqrt(C_k(x)) for the last six levels k up to the cap: (levels, npoints)."""
    basis, K = ev.basis, ev.policy.hard_cap
    V = basis.evaluate(X)
    return np.array([np.sqrt(np.sum(V[:, basis.level_slice(k)] ** 2, axis=1))
                     for k in range(max(K - 5, 0), K + 1)])


def _heat_tail_factor(ev, t):
    K = ev.policy.hard_cap
    gap = eigenvalue(ev.spec, K + 1) - ev.lambdas[K]
    q = np.exp(-gap * t)
    return 2.0 * np.exp(-(ev.lambdas[K] + gap) * t) / (1.0 - q)


def levels_read(g):
    """L: the last level whose weight is at least 2^-106 (u^2) of the largest."""
    return max(k for k in range(len(g)) if g[k] >= 2.0 ** -106 * max(g))


def dropped_roots(ev, g, X):
    """d(x) = sqrt(sum_(k>L) g_k C_k(x)) over the levels past ``levels_read``,
    level by level: (npoints,)."""
    basis, K = ev.basis, ev.policy.hard_cap
    V = basis.evaluate(X)
    d2 = np.zeros(len(V))
    for k in range(levels_read(g) + 1, K + 1):
        d2 += g[k] * np.sum(V[:, basis.level_slice(k)] ** 2, axis=1)
    return np.sqrt(d2)


def reference_heat_tail(ev, t, X, Y):
    """Heat-kernel tails on the grid X x Y in two-part rank-one form: the
    outer product of E(x) = hypot(s e(x), d(x)) and E(y), with e(x) the
    maximum of sqrt(C_k(x)) over the last six levels, s the square root of
    the post-cap factor and d the ``dropped_roots`` of the levels that the
    product leaves out."""
    s, g = sqrt(_heat_tail_factor(ev, t)), np.exp(-ev.lambdas * t)
    return np.outer(*(np.hypot(s * _window_roots(ev, Z).max(axis=0), dropped_roots(ev, g, Z))
                      for Z in (X, Y)))


def window_heat_tail(ev, t, X, Y):
    """The post-cap factor times the maximum of sqrt(C_k(x) C_k(y)) over the
    last six levels, taken level by level over the whole grid: the per-pair
    window that the rank-one tail majorizes."""
    window = None
    for a, b in zip(_window_roots(ev, X), _window_roots(ev, Y)):
        level = np.multiply.outer(a, b)
        window = level if window is None else np.maximum(window, level)
    return window * _heat_tail_factor(ev, t)


def _kernel(ev, t, X, Y):
    """Heat-kernel values sum_k exp(-lambda_k t) K_k(x, y) on X x Y, no tail."""
    basis, K = ev.basis, ev.policy.hard_cap
    members = int(basis.offsets[K + 1])
    g = np.repeat(np.exp(-ev.lambdas * t), np.diff(basis.offsets[: K + 2]))
    return (basis.evaluate(X)[:, :members] * g) @ basis.evaluate(Y)[:, :members].T


def reference_mass_grid(ev, t, X):
    """``mass_grid`` as the quadrature of whole kernel rows over the nodes."""
    return _kernel(ev, t, X, ev.basis.quad.nodes) @ ev.basis.quad.weights


def reference_semigroup_gap(ev, s, t, x, z):
    """``semigroup_check`` through the kernel rows of x at s and of z at t."""
    nodes = ev.basis.quad.nodes
    row_s, row_t = _kernel(ev, s, x, nodes)[0], _kernel(ev, t, z, nodes)[0]
    return abs(float(_kernel(ev, s + t, x, z)[0, 0])
               - float((row_s * row_t) @ ev.basis.quad.weights))


def dense_perturbed_det(a):
    """LAPACK determinant of diag(a) + ones."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.det(np.diag(a) + np.ones((a.size, a.size))))


def arc_volume_chebyshev(x, r):
    """Arc-length volume on the interval at alpha = beta = -1/2."""
    th = np.arccos(np.clip(x, -1, 1))
    return float(min(pi, th + r) - max(0.0, th - r))


def interval_volume_mp(alpha, beta, x, r, dps=50):
    """V(x, r) on interval(alpha, beta) as mpmath's incomplete Beta between the arc ends.

    The arc is [theta - r, theta + r] within [0, pi], theta = acos x.  In
    v = sin^2(t/2) = (1 - cos t)/2 its mass is 2^(alpha+beta+1)
    B(v_lo, v_hi; alpha+1, beta+1); for theta > pi/2 the mirrored form in
    u = cos^2(t/2) = 1 - v is taken, so that the small end of the Beta sits
    at the nearer end of the interval and a short arc there does not cancel.
    An arc end at 0 or pi is exactly 0 or 1.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, b, r = mp.mpf(alpha), mp.mpf(beta), mp.mpf(r)
        theta = mp.acos(mp.mpf(x))
        if theta <= mp.pi / 2:
            ends = [0 if theta <= r else mp.sin((theta - r) / 2) ** 2,
                    1 if theta + r >= mp.pi else mp.sin((theta + r) / 2) ** 2]
            p, q = a + 1, b + 1
        else:
            ends = [0 if theta + r >= mp.pi else mp.cos((theta + r) / 2) ** 2,
                    1 if theta <= r else mp.cos((theta - r) / 2) ** 2]
            p, q = b + 1, a + 1
        return float(2 ** (a + b + 1) * mp.betainc(p, q, *ends))


def sample_measure(spec, count, rng):
    """Draw ``count`` points of ball(n) or simplex(n) from the normalized
    weighted measure: a uniform direction times the square root of a
    Beta(n/2, gamma + 1/2) squared radius, or the first n coordinates of a
    Dirichlet(kappa + 1/2) draw."""
    if spec.kind == BALL:
        n, g = spec.n, spec.gamma
        dirs = rng.standard_normal((count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        v = rng.beta(n / 2.0, g + 0.5, size=count)
        return np.sqrt(v)[:, None] * dirs
    if spec.kind == SIMPLEX:
        pts = rng.dirichlet(np.asarray(spec.kappa) + 0.5, size=count)
        return pts[:, : spec.n]
    raise DomainError("direct sampling implemented for ball and simplex")


def monte_carlo_volumes(spec, points, radii, samples=1_000_000, seed=0):
    """V(x, r) and its standard error for each point and radius, by plain Monte Carlo.

    One sample of the normalized measure (Beta radial law on the ball,
    Dirichlet on the simplex, drawn here), lifted to the chart sphere,
    where rho(x, y) < r means lift(x) . lift(y) > cos r.  Returns two
    (len(points), len(radii)) arrays.
    """
    rng = np.random.default_rng(seed)
    if spec.kind == BALL:
        dirs = rng.standard_normal((samples, spec.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        v = rng.beta(spec.n / 2.0, spec.gamma + 0.5, size=samples)
        cloud = np.hstack([np.sqrt(v)[:, None] * dirs, np.sqrt(1 - v)[:, None]])
        pts = np.asarray(points, float)
        lifts = np.hstack([pts, np.sqrt(np.clip(1 - (pts ** 2).sum(axis=1), 0, None))[:, None]])
    else:
        cloud = np.sqrt(rng.dirichlet(np.asarray(spec.kappa) + 0.5, size=samples))
        pts = np.asarray(points, float)
        lifts = np.sqrt(np.clip(np.hstack([pts, 1 - pts.sum(axis=1, keepdims=True)]), 0, None))
    lifts /= np.linalg.norm(lifts, axis=1, keepdims=True)
    mass = total_mass(spec)
    cosines = cloud @ lifts.T
    p = np.stack([(cosines > np.cos(r)).mean(axis=0) for r in radii], axis=1)
    return mass * p, mass * np.sqrt(p * (1 - p) / samples)


def reference_interval_basis(spec, K):
    """The interval basis from two hand-written three-term recurrences.

    Returns ``(values, C)``: ``values(points)`` gives (npoints, K + 1), and C
    holds the ascending monomial coefficients of p_0..p_K, one row a member.
    """
    a, sqb, mass = jacobi_recurrence(K + 1, spec.alpha, spec.beta)

    def values(pts):
        x = np.asarray(pts, dtype=float).reshape(-1)
        U = np.empty((K + 1, x.size))
        U[0] = 1.0 / sqrt(mass)
        if K >= 1:
            U[1] = (x - a[0]) * U[0] / sqb[1]
        for k in range(1, K):
            U[k + 1] = ((x - a[k]) * U[k] - sqb[k] * U[k - 1]) / sqb[k + 1]
        return U.T

    C = np.zeros((K + 1, K + 1))
    C[0, 0] = 1.0 / sqrt(mass)
    if K >= 1:
        C[1, 1] = C[0, 0] / sqb[1]
        C[1, 0] = -a[0] * C[0, 0] / sqb[1]
    for k in range(1, K):
        shifted = np.roll(C[k], 1)
        shifted[0] = 0.0
        C[k + 1] = (shifted - a[k] * C[k] - sqb[k] * C[k - 1]) / sqb[k + 1]
    return values, C


def untrimmed_coefficient_rows(basis):
    """The coefficient rows of ``basis`` by the level recurrence of its
    closed-form product, over every graded-monomial column at every level.

    The recurrence data come from ``jacobi_recurrence`` and
    ``_jacobi_parameters``, one axis and inner degree at a time, and the
    member order from the level dimensions, none of it from the basis.  The
    scales and operations are those of ``basis._members``, but every member
    is its own row update over the whole width, the families are built
    innermost first, products by x^e go through index arrays built from the
    exponents, and a scale of 1 returns its row unpadded.
    """
    spec, n, K = basis.spec, basis.spec.n, basis.max_degree
    monomials = basis._monomials
    index = {e: c for c, e in enumerate(monomials)}
    width = len(monomials)

    def terms(p):
        if p is None:
            return None
        return [(c, np.array([index[tuple(a + b for a, b in zip(e, exps))]
                              for e in monomials if sum(e) <= K - sum(exps)], dtype=np.int64))
                for exps, c in p.items()]

    def mul(e, Z, out):
        if e is None:
            return Z
        out[...] = 0.0
        for c, dst in e:
            out[..., dst] += c * Z[..., : dst.size]
        return out

    def lin(u, s, a, Z, out):
        z = mul(u, Z, out)
        if a is not None:
            z -= a * mul(s, Z, np.empty_like(Z))
        return z

    scales = [[terms(e) for e in axis]
              for axis in _scales(spec.kind, [MultiPoly.variable(n, i) for i in range(n)])]
    w = np.empty(width)
    inner = np.zeros((1, width))
    inner[0, 0] = 1.0
    inner_deg = [0]    # degree of each member of the family one dimension down
    for d in range(1, n + 1):
        u, s, s2 = scales[n - d]
        data = []
        for j in range(inner_deg[-1] + 1):
            alpha, beta, c = _jacobi_parameters(spec, d, j)
            a, sqb, mass = jacobi_recurrence(K - j, alpha, beta)
            data.append((a, sqb, c / sqrt(mass)))
        symmetric = not any(a.any() for a, _, _ in data)
        rows, row = np.empty((sum(level_dimension(d, k) for k in range(K + 1)), width)), {}
        # level t: member (t - j, nu) for each inner member nu, of degree j <= t, in order
        for t in range(K + 1):
            for nu, j in enumerate(inner_deg):
                if j > t:
                    break
                a, sqb, p0 = data[j]
                m, z = t - j, rows[len(row)]
                row[t, nu] = len(row)
                if m == 0:
                    np.multiply(p0, inner[nu], out=z)
                    continue
                lin(u, s, None if symmetric else a[m - 1], rows[row[t - 1, nu]], z)
                if m >= 2:
                    z -= np.multiply(sqb[m - 1], mul(s2, rows[row[t - 2, nu]], w), out=w)
                z /= sqb[m]
        inner, inner_deg = rows, [t for t, _ in row]
    return inner


def gather_scatter_eigenrelation(basis):
    """``verify_eigenrelation`` with every lowering term as an index gather
    of its source columns and an index scatter into its target columns."""
    K = basis.max_degree
    D = int(basis.offsets[K + 1])
    C = basis._coeff[:D, :D]
    diag, lowering = monomial_operator(basis.spec, basis._monomials[:D])
    lam = np.repeat(basis.lambdas[: K + 1], np.diff(basis.offsets[: K + 2]))
    R = (lam[:, None] + diag) * C
    for src, dst, coef in lowering:
        R[:, dst] += coef * C[:, src]
    scale = np.where(lam > 0, lam * np.abs(C).max(axis=1), 1.0)
    return np.maximum.reduceat(np.abs(R).max(axis=1) / scale, basis.offsets[: K + 1])


def identity_gap_gram_residual(basis):
    """``gram_residual`` as max |G - I| with I a new identity matrix."""
    V = basis.node_values
    G = V.T @ (basis.quad.weights[:, None] * V)
    return float(np.abs(G - np.eye(G.shape[0])).max())


def innermost_family(basis, points):
    """The one-dimensional family on the innermost axis of ``basis`` (the
    interval, ball(1), simplex(1), or the inner factor of ball(2) and
    simplex(2)), in Python floats, one point and one coefficient at a time.

    q_0 = p_0 and q_(m+1) = ((u - a_m s) q_m - b_m s^2 q_(m-1)) / b_(m+1),
    with a_m, b_m and p_0 from ``jacobi_recurrence`` and
    ``_jacobi_parameters``; at a point, u, s and s^2 are written out here
    (s = 1 and s^2 = 1 where the axis has no scale).  On coefficients, u q,
    s q and s^2 q are sparse products over the terms of the scales of
    ``_scales``, in their order, and (u - a s) q is u q - a (s q), as
    ``basis._members`` forms it.  Returns (values, rows, p0): values[i][m]
    is q_m at point i, rows[m] the coefficient row of q_m over
    ``basis._monomials``, and p0[m] the factor of the member of level m
    whose inner factor is q_m (1 in one dimension).
    """
    spec, n, K = basis.spec, basis.spec.n, basis.max_degree
    if n > 2:
        raise ValueError("innermost_family covers n <= 2")
    alpha, beta, c = _jacobi_parameters(spec, 1, 0)
    a, b, mass = jacobi_recurrence(K, alpha, beta)
    a, b, q0 = a.tolist(), b.tolist(), c / sqrt(mass)
    p0 = [1.0] * (K + 1)
    if n == 2:
        for j in range(K + 1):
            alpha2, beta2, c = _jacobi_parameters(spec, 2, j)
            p0[j] = c / sqrt(jacobi_recurrence(K - j, alpha2, beta2)[2])

    def scales(x):
        if n == 1:
            return (2 * x[0] - 1.0 if spec.kind == SIMPLEX else x[0]), 1.0, 1.0
        if spec.kind == BALL:
            return x[1], 1.0, 1.0 - x[0] * x[0]
        s = 1.0 - x[0]
        return 2 * x[1] - s, s, s * s

    values = []
    for x in np.asarray(points, dtype=float).tolist():
        u, s, s2 = scales(x)
        q = [q0]
        for m in range(K):
            q.append(((u - a[m] * s) * q[m] - b[m] * (s2 * (q[m - 1] if m else 0.0))) / b[m + 1])
        values.append(q)

    def times(p, q):
        if p is None:
            return q
        out = {}
        for exps, c in p.items():
            for e, v in q.items():
                key = tuple(i + j for i, j in zip(e, exps))
                out[key] = out.get(key, 0.0) + (v if c == 1.0 else c * v)
        return out

    def minus(z, coef, q):
        for e, v in q.items():
            z[e] = z.get(e, 0.0) - coef * v
        return z

    u, s, s2 = _scales(spec.kind, [MultiPoly.variable(n, i) for i in range(n)])[-1]
    polys = [{(0,) * n: q0}]
    for m in range(K):
        z = minus(times(u, polys[m]), a[m], times(s, polys[m]))
        if m:
            z = minus(z, b[m], times(s2, polys[m - 1]))
        polys.append({e: v / b[m + 1] for e, v in z.items()})
    index = {e: c for c, e in enumerate(basis._monomials)}
    rows = np.zeros((K + 1, len(index)))
    for m, poly in enumerate(polys):
        for e, v in poly.items():
            rows[m, index[e]] = v
    return values, rows, p0


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
    lf = _chart_factor(spec) * apply_operator(spec, f).eval_many(pts)
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
    op = _chart_factor(spec) * apply_operator(spec, f).eval_many(pts)
    num = float(np.max(np.abs(chart - op)))
    den = float(np.max(np.maximum(np.abs(chart), np.abs(op))))
    return num / den if den > 0 else num


def hand_written_sphere_rule(n, degree):
    """The S^(n-1) rules of n <= 3 written out by hand: the points -1, 1;
    the midpoint trapezoid rule of degree + 1 nodes; Gauss-Legendre in z
    times that circle, filled one z node at a time."""
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = degree + 1
        phi = 2 * pi * (np.arange(m) + 0.5) / m
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return pts, np.full(m, 2 * pi / m)
    if n != 3:
        raise ValueError(f"the hand-written sphere rules stop at n = 3, got {n}")
    mu = degree // 2 + 1
    u, wu = gauss_jacobi(mu, 0.0, 0.0)
    m = degree + 1
    phi = 2 * pi * (np.arange(m) + 0.5) / m
    s = np.sqrt(1 - u ** 2)
    pts = np.empty((mu * m, 3))
    wts = np.empty(mu * m)
    idx = 0
    for i in range(mu):
        pts[idx : idx + m, 0] = s[i] * np.cos(phi)
        pts[idx : idx + m, 1] = s[i] * np.sin(phi)
        pts[idx : idx + m, 2] = u[i]
        wts[idx : idx + m] = wu[i] * 2 * pi / m
        idx += m
    return pts, wts


def sphere_monomial_moment(exponents):
    """The integral of prod x_i^(a_i) over S^(n-1): 2 prod Gamma((a_i + 1)/2)
    / Gamma((|a| + n)/2), and 0 when any a_i is odd."""
    if any(a % 2 for a in exponents):
        return 0.0
    return 2.0 * exp(sum(lgamma((a + 1) / 2) for a in exponents)
                     - lgamma((sum(exponents) + len(exponents)) / 2))


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
    theta, wts = hand_written_sphere_rule(n, max(f.degree() + 6, 32))
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

    # a pure relative tolerance near the double-precision floor
    val, _ = scipy_quad(integrand, eps, 1 - 2 * eps, limit=200, epsabs=0, epsrel=1e-13)
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


# ---------------------------------------------------------------------------
# Gaussian and localization scans, one pair and one anchor at a time


def reference_gauss_ratio_scan(ev, vol, points, times):
    """``gauss_ratio_scan`` as a loop over the pairs i <= j of each time."""
    spec = ev.spec
    pts = np.atleast_2d(np.asarray(points, float))
    rows, e_vals, n_diag = [], [], []
    excluded = violations = 0
    rhos = distance_matrix(spec, pts, pts)
    grid = ev.point_set(pts)
    for t in times:
        vals, tails = ev.heat_kernel_grid(t, grid, grid)
        vols = vol.estimates(pts, sqrt(t))[0]
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                rho = float(rhos[i, j])
                ratio = rho * rho / t
                far = GAUSS_THRESHOLD <= ratio <= GAUSS_BAND_HI
                if not (far or ratio <= GAUSS_DIAG_BAND):
                    continue
                k, b = float(vals[i, j]), float(tails[i, j])
                if k + b <= 0.0 and far:
                    violations += 1
                    continue
                if k <= b:
                    excluded += 1
                    continue
                N = k * sqrt(vols[i] * vols[j])
                row = {"x": pts[i].tolist(), "y": pts[j].tolist(), "t": t, "rho": rho,
                       "V_x": vols[i], "V_y": vols[j], "kernel": k, "tail": b, "N": N}
                if far:
                    row["E"] = -t * np.log(N) / (rho * rho)
                    e_vals.append(row["E"])
                else:
                    n_diag.append(N)
                rows.append(row)
    if violations:
        raise PrecisionError(f"{violations} violations")
    e_min, e_max = float(min(e_vals)), float(max(e_vals))
    n_lo, n_hi = float(min(n_diag)), float(max(n_diag))
    verdict = 0.0 < e_min <= e_max < np.inf and 0.0 < n_lo <= n_hi < np.inf
    return GaussBoundReport(spec.label(), GAUSS_THRESHOLD, rows, e_min, e_max,
                            1.0 / e_max, 1.0 / e_min, n_lo, n_hi,
                            excluded, len(e_vals), len(n_diag), verdict)


def reference_localization_check(ev, delta, m, vol):
    """``localization_check`` reading one block and making one volume call per anchor."""
    spec = ev.spec
    phi = MultiplierSpec("smooth_bump", support=LOCALIZE_SUPPORT, order=m)
    anchors = interior_points(spec, LOCALIZE_ANCHORS, margin=0.1)
    lo, hi = LOCALIZE_WINDOW
    xis = np.concatenate([[0.0, 0.5, 1.0, 2.0, 3.0], np.geomspace(0.9 * lo, hi, LOCALIZE_RADII)])
    rays = [geodesic_ray(spec, a, delta * xis) for a in anchors]
    vals, tails = ev.multiplier_grid(phi, delta, anchors,
                                     np.concatenate([targets for _, targets in rays]))
    rows_x, rows_y = [], []
    excluded = used = 0
    cm = 0.0
    va = vol.estimates(anchors, delta)[0]
    for i, (dists, targets) in enumerate(rays):
        cols = slice(used, used + len(targets))
        used += len(targets)
        k, b = np.abs(vals[i, cols]), tails[i, cols]
        keep = ~((k > 0) & (b > 0.1 * k))
        excluded += int(np.count_nonzero(~keep))
        if not keep.any():
            continue
        xi = dists[keep] / delta
        base = k[keep] * np.sqrt(va[i] * vol.estimates(targets[keep], delta)[0])
        cm = max(cm, float(np.max(base * (1.0 + xi) ** m)))
        fit = (lo <= xi) & (xi <= hi) & (base > 0)
        rows_x.extend((1.0 + xi[fit]).tolist())
        rows_y.extend(base[fit].tolist())
    if excluded > 0.2 * used:
        raise PrecisionError(f"{excluded}/{used} excluded")
    order = np.argsort(rows_x)
    rows_x = np.asarray(rows_x)[order]
    rows_y = np.asarray(rows_y)[order]
    records = rows_y >= np.maximum.accumulate(rows_y[::-1])[::-1]
    bx, by = rows_x[records], rows_y[records]
    slope, _, r2 = loglog_fit(bx, by)
    verdict = -slope >= m - 0.5 and r2 >= 0.98 and np.isfinite(cm)
    return LocalizationReport(spec.label(), delta, m, cm, -slope, r2,
                              excluded, len(bx), verdict)
