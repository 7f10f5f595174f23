"""Quadrature rules exact for polynomials against the weighted measures.

Interval: Gauss-Jacobi.  Ball: tensor product of a radial Gauss-Jacobi rule
in r^2 with a symmetric angular rule (exactness for odd angular monomials is
by symmetry).  Simplex: iterated Gauss-Jacobi in the nested coordinates
x_i = u_i * prod_(j<i) (1 - u_j), whose per-axis weights are again Jacobi
weights, so polynomial integrands are integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .domains import BALL, INTERVAL, DomainSpec
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
    from .domains import log_beta
    from math import exp, log

    K = int(max_degree)
    ab = alpha + beta
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    mass = exp((ab + 1) * log(2.0) + log_beta(alpha + 1, beta + 1))
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


def _angular_rule(n, degree):
    """Symmetric rule on the unit sphere S^(n-1), exact for monomials <= degree."""
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = degree + 1
        phi = 2 * pi * (np.arange(m) + 0.5) / m
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return pts, np.full(m, 2 * pi / m)
    if n == 3:
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
    raise CapacityError(
        f"ball quadrature supports n <= 3 (requested n={n}); "
        "reduce the dimension or extend the angular rules"
    )


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
        u, wr = gauss_jacobi_01(mr, g - 0.5, n / 2 - 1)
        wr = 0.5 * wr
        r = np.sqrt(u)
        theta, wa = _angular_rule(n, d)
        if mr * wa.size > MAX_NODES:
            raise CapacityError("ball quadrature exceeds the node budget; lower the degree")
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
