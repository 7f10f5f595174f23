"""Quadrature rules exact for polynomials against the weighted measures.

Interval: Gauss-Jacobi.  Ball: tensor product of a radial Gauss-Jacobi rule
in r^2 with a rule on the sphere S^(n-1), one recursion for every n: S^0 is
the points -1, 1, S^1 the midpoint trapezoid rule, and S^(n-1) above that
Gauss-Jacobi((n-3)/2, (n-3)/2) in the last coordinate z times the S^(n-2)
rule scaled by sqrt(1 - z^2), the surface measure being (1 - z^2)^((n-3)/2)
dz dS^(n-2).  The sphere rules are symmetric, so odd monomials integrate to
zero exactly.  Simplex: iterated Gauss-Jacobi in the nested coordinates
x_i = u_i * prod_(j<i) (1 - u_j), whose per-axis weights are again Jacobi
weights, so polynomial integrands are integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log, pi, sqrt

import numpy as np

from .domains import BALL, INTERVAL, DomainSpec, log_beta, mass_of_log
from .errors import CapacityError, DomainError

MAX_NODES = 5_000_000
# nodes of one Gauss-Jacobi rule, whose Jacobi matrix is dense: about 24 m^2
# bytes with the recurrence sweep at the nodes
MAX_RULE_NODES = 2048


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (m, n), positive weights (m,), and the exactness degree."""

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int

    @property
    def size(self):
        return self.weights.size

    def total(self):
        return float(self.weights.sum())


def jacobi_recurrence(max_degree, alpha, beta):
    """Recurrence data for orthonormal polynomials of (1-x)^a (1+x)^b on [-1,1].

    Returns (a_k, sqrt_b_k, mass): the orthonormal family satisfies
    p_(k+1) = ((x - a_k) p_k - sqrt_b_k * p_(k-1)) / sqrt_b_(k+1) with
    p_0 = 1/sqrt(mass).  sqrt_b_k is indexed 0..max_degree with entry 0 unused.
    """
    K = int(max_degree)
    ab = alpha + beta
    mass = mass_of_log((ab + 1) * log(2.0) + log_beta(alpha + 1, beta + 1),
                       f"the Jacobi weight (1 - x)^{alpha:g} (1 + x)^{beta:g}")
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    a[0] = (beta - alpha) / (ab + 2)
    if K >= 1:
        b[1] = 4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))
    for k in range(1, K + 1):
        den = (2 * k + ab) * (2 * k + ab + 2)
        a[k] = (beta ** 2 - alpha ** 2) / den
        if k >= 2:
            b[k] = (
                4.0 * k * (k + alpha) * (k + beta) * (k + ab)
                / ((2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1))
            )
    return a, np.sqrt(b), mass


def gauss_jacobi(m, alpha, beta):
    """m-point Gauss rule for (1-x)^alpha (1+x)^beta on [-1, 1], read-only arrays."""
    if m > MAX_RULE_NODES:
        raise CapacityError(f"a Gauss-Jacobi rule of {m} nodes exceeds the budget of "
                            f"{MAX_RULE_NODES}; lower the degree")
    return _gauss_jacobi(int(m), float(alpha), float(beta))


@lru_cache(maxsize=64)
def _gauss_jacobi(m, alpha, beta):
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    # jacobi_recurrence.  One recurrence sweep at those nodes gives p_k and
    # p_k' for k <= m; a Newton step dx = -p_m / p_m' polishes each node, and
    # the Christoffel weight 1 / sum_(k<m) p_k^2 is taken at the polished
    # node to first order, 1 / (S + 2 dx sum_(k<m) p_k p_k').
    a, sqb, mass = jacobi_recurrence(m, alpha, beta)
    x = np.linalg.eigvalsh(np.diag(a[:m]) + np.diag(sqb[1:m], 1), UPLO="U")
    # P[k] = (p_k, p_k') at the nodes, k = 0..m; sqb[0] = 0 drops P[-1] at k = 0
    P = np.zeros((m + 1, 2, m))
    P[0, 0] = 1.0 / sqrt(mass)
    for k in range(m):
        P[k + 1] = (x - a[k]) * P[k] - sqb[k] * P[k - 1]
        P[k + 1, 1] += P[k, 0]
        P[k + 1] /= sqb[k + 1]
    p, dp = P[:m, 0], P[:m, 1]
    step = -P[m, 0] / P[m, 1]
    x = x + step
    w = 1.0 / (np.einsum("km,km->m", p, p) + 2.0 * step * np.einsum("km,km->m", p, dp))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_jacobi_01(m, a, b):
    """Nodes/weights on (0, 1) for the weight u^b (1-u)^a."""
    t, w = gauss_jacobi(m, a, b)
    return (1 + t) / 2, w * 0.5 ** (a + b + 1)


def _sphere_size(n, degree):
    """The number of nodes of ``sphere_rule(n, degree)``."""
    return 2 if n == 1 else (degree + 1) * (degree // 2 + 1) ** (n - 2)


def sphere_rule(n, degree):
    """Symmetric rule on the unit sphere S^(n-1), exact for monomials of
    degree <= degree; z-major above S^1, as the ball rule is radius-major."""
    if _sphere_size(n, degree) > MAX_NODES:
        raise CapacityError(f"a rule on S^{n - 1} of degree {degree} exceeds the node budget "
                            f"of {MAX_NODES}; lower the degree")
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = degree + 1
        phi = 2 * pi * (np.arange(m) + 0.5) / m
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(m, 2 * pi / m)
    z, wz = gauss_jacobi(degree // 2 + 1, (n - 3) / 2, (n - 3) / 2)
    theta, w = sphere_rule(n - 1, degree)
    nodes = np.empty((z.size, w.size, n))
    nodes[:, :, :-1] = np.sqrt(1 - z ** 2)[:, None, None] * theta
    nodes[:, :, -1] = z[:, None]
    return nodes.reshape(-1, n), (wz[:, None] * w).reshape(-1)


def build_quadrature(spec: DomainSpec, exact_degree: int) -> QuadratureRule:
    """Rule integrating every polynomial of total degree <= exact_degree."""
    if exact_degree < 0:
        raise DomainError("exact_degree must be >= 0")
    d = int(exact_degree)

    if spec.kind == INTERVAL:
        m = d // 2 + 1
        x, w = gauss_jacobi(m, spec.alpha, spec.beta)
        return QuadratureRule(x[:, None], w, d)

    if spec.kind == BALL:
        n, g = spec.n, spec.gamma
        mr = d // 4 + 1
        if mr * _sphere_size(n, d) > MAX_NODES:
            raise CapacityError("ball quadrature exceeds the node budget; lower the degree")
        u, wr = gauss_jacobi_01(mr, g - 0.5, n / 2 - 1)
        wr = 0.5 * wr
        r = np.sqrt(u)
        theta, wa = sphere_rule(n, d)
        nodes = (r[:, None, None] * theta[None, :, :]).reshape(-1, n)
        weights = (wr[:, None] * wa[None, :]).reshape(-1)
        return QuadratureRule(nodes, weights, d)

    # simplex: iterated rule in nested coordinates
    n = spec.n
    kappa = spec.kappa
    m = d // 2 + 1
    if m ** n > MAX_NODES:
        raise CapacityError("simplex quadrature exceeds the node budget; lower the degree")
    axes = []
    for i in range(n):
        s_i = sum(k + 0.5 for k in kappa[i + 1 :])
        axes.append(gauss_jacobi_01(m, s_i - 1, kappa[i] - 0.5))
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    u = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.prod([g.reshape(-1) for g in wgrids], axis=0)
    nodes = np.empty_like(u)
    shrink = np.ones(u.shape[0])
    for i in range(n):
        nodes[:, i] = u[:, i] * shrink
        shrink = shrink * (1 - u[:, i])
    return QuadratureRule(nodes, weights, d)
