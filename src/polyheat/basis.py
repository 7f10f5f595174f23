"""Orthonormal polynomial bases of the eigenspaces of the three operators.

Each level k holds the orthonormal polynomials of exact degree k that are
orthogonal to all lower degrees in L^2(domain, weighted measure);
the operator acts on level k as multiplication by -lambda_k.

Construction.  On the interval the basis comes from the classical
three-term recurrence (stable to degree 200 and beyond) and doubles as an
independent cross-check of the general path.  On the ball and simplex the
basis is built one level at a time.  The candidates x_i P_(k-1, j) of level
k form one block, which is orthogonalized against every accepted member by
block classical Gram-Schmidt applied twice ("twice is enough"); modified
Gram-Schmidt inside the block then picks the level's members, pivoting on
the largest residual norm.  Inner products use a quadrature rule exact to
degree 2*max_degree + 2, so Gram entries are exact up to rounding.  The
orthogonalization coefficients are recorded as a replay plan, which
evaluates the basis at arbitrary points by the same well-conditioned
recursion instead of through the (exponentially ill-conditioned) monomial
coefficient form, in K steps of two matrix products each: one against
levels k-2 and k-1 (the three-term relation x_i P_k = A P_(k+1) + B P_k +
C P_(k-1) makes the coefficients against lower levels vanish) and one with
the inverse of the level's triangle.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np

from .domains import BALL, INTERVAL, SIMPLEX, DomainSpec
from .errors import CapacityError, DomainError, ParameterError, PrecisionError
from .polynomials import MultiPoly, monomial_operator
from .quadrature import build_quadrature, jacobi_recurrence

# Degree caps per (kind, dimension); extended precision doubles the GS caps.
_CAPS_DOUBLE = {(INTERVAL, 1): 200, (BALL, 1): 200, (SIMPLEX, 1): 200,
                (BALL, 2): 40, (SIMPLEX, 2): 40, (BALL, 3): 25, (SIMPLEX, 3): 25}
_CAPS_EXTENDED = {(INTERVAL, 1): 1000, (BALL, 1): 400, (SIMPLEX, 1): 400,
                  (BALL, 2): 80, (SIMPLEX, 2): 80, (BALL, 3): 50, (SIMPLEX, 3): 50}

# The extended caps need a longdouble with more mantissa than float64; on
# aarch64 macOS and on Windows it is float64.
LONGDOUBLE_EXTENDED = bool(np.finfo(np.longdouble).eps < 1e-18)


def eigenvalue(spec: DomainSpec, k: int) -> float:
    """Closed-form eigenvalue lambda_k >= 0 of level k (lambda_0 = 0)."""
    if k < 0:
        raise DomainError("level index must be >= 0")
    if spec.kind == INTERVAL:
        return k * (k + spec.alpha + spec.beta + 1)
    if spec.kind == BALL:
        return k * (k + spec.n + 2 * spec.gamma - 1)
    return k * (k + sum(spec.kappa) + (spec.n - 1) / 2.0)


def level_dimension(n: int, k: int) -> int:
    return 1 if k == 0 else comb(k + n - 1, k)


def graded_monomials(n, max_degree):
    """Exponent tuples of total degree <= max_degree in graded order."""
    out = []
    for deg in range(max_degree + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for e in range(remaining + 1):
                rec(prefix + (e,), remaining - e, slots - 1)

        rec((), deg, n)
        out.extend(sorted(level))
    return out


class OrthonormalBasis:
    """Graded orthonormal family with eigenvalues, values, and coefficients."""

    def __init__(self, spec, max_degree, quad, precision_mode, coeff_matrix,
                 monomials, node_values, eval_backend):
        self.spec = spec
        self.max_degree = int(max_degree)
        self.quad = quad
        self.precision_mode = precision_mode
        self._coeff = coeff_matrix          # (D, D) rows = basis members
        self._monomials = monomials         # graded exponent tuples
        self._node_values = node_values     # (quad.size, D)
        self._backend = eval_backend        # callable points -> (p, D)
        self.lambdas = np.array([eigenvalue(spec, k) for k in range(max_degree + 1)])
        if self.lambdas[0] != 0.0 or np.any(np.diff(self.lambdas) <= 0):
            raise ParameterError("eigenvalues must start at 0 and increase strictly")
        self._levels = None
        self._gram = None
        dims = [level_dimension(spec.n, k) for k in range(max_degree + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(dims)])

    # -- structure -------------------------------------------------------

    @property
    def size(self):
        return int(self.offsets[-1])

    def level_slice(self, k):
        if not 0 <= k <= self.max_degree:
            raise DomainError(f"level {k} outside [0, {self.max_degree}]")
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    @property
    def levels(self):
        """Per-level lists of MultiPoly (built lazily from coefficients)."""
        if self._levels is None:
            levels = []
            for k in range(self.max_degree + 1):
                sl = self.level_slice(k)
                members = []
                for row in self._coeff[sl]:
                    terms = {self._monomials[i]: float(row[i])
                             for i in np.nonzero(row)[0]}
                    members.append(MultiPoly(self.spec.n, terms))
                levels.append(members)
            self._levels = levels
        return self._levels

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points):
        """Values of every basis member: (npoints, size)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.spec.n == 1 else pts[None, :]
        if pts.shape[1] != self.spec.n:
            raise DomainError("points have the wrong dimension")
        return self._backend(pts)

    @property
    def node_values(self):
        return self._node_values

    def gram_residual(self):
        """max |G - I| over all members through max_degree."""
        if self._gram is None:
            V = self._node_values
            G = V.T @ (self.quad.weights[:, None] * V)
            self._gram = float(np.abs(G - np.eye(G.shape[0])).max())
        return self._gram

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        return {
            "spec": self.spec.to_json_obj(),
            "max_degree": self.max_degree,
            "precision_mode": self.precision_mode,
            "levels": [[p.to_json_obj() for p in lev] for lev in self.levels],
        }


def basis_from_json_obj(obj, coeff_tol=1e-8):
    """Import a basis exported by ``to_json_obj``.

    Construction is deterministic, so the basis is rebuilt from its spec and
    degree and the stored levels serve as an integrity check (relative max
    coefficient distance per member must stay below ``coeff_tol``).
    """
    spec = DomainSpec.from_json_obj(obj["spec"])
    basis = build_basis(spec, obj["max_degree"],
                        precision_mode=obj.get("precision_mode", "double"))
    for k, stored_level in enumerate(obj["levels"]):
        for j, stored in enumerate(stored_level):
            p = MultiPoly.from_json_obj(stored)
            q = basis.levels[k][j]
            scale = max(p.max_abs_coeff(), q.max_abs_coeff(), 1e-300)
            if p.coeff_distance(q) > coeff_tol * scale:
                raise PrecisionError(
                    f"stored basis member ({k},{j}) disagrees with the rebuild; "
                    "the export may come from an incompatible version"
                )
    return basis


def projection_kernel(basis, k, x, y):
    """Reproducing kernel of level k: sum_j P_kj(x) P_kj(y)."""
    sl = basis.level_slice(k)
    vx = basis.evaluate(np.atleast_2d(np.asarray(x, dtype=float)))[0, sl]
    vy = basis.evaluate(np.atleast_2d(np.asarray(y, dtype=float)))[0, sl]
    return float(vx @ vy)


def christoffel_diag(basis, k, x):
    """sum_j P_kj(x)^2 >= 0; equals projection_kernel(k, x, x)."""
    sl = basis.level_slice(k)
    vx = basis.evaluate(np.atleast_2d(np.asarray(x, dtype=float)))[0, sl]
    return float(vx @ vx)


def verify_eigenrelation(basis, max_level=None):
    """Per-level max relative coefficient residual of L P + lambda_k P = 0.

    Level 0 is reported as an absolute residual (lambda_0 = 0).  The norm is
    max |coeff| of the residual over max |coeff| of lambda_k P, which stays
    scale-free at high degree.  All members are checked at once on the
    coefficient matrix C (rows = members, columns = graded monomials):
    R = C * (lambda_k + diag) plus one column update per lowering term of
    ``monomial_operator``, whose diagonal comes from the operator, so a
    wrong eigenvalue shows.  Members through level K touch only the first
    D graded monomials.
    """
    K = basis.max_degree if max_level is None else min(max_level, basis.max_degree)
    D = int(basis.offsets[K + 1])
    C = basis._coeff[:D, :D]
    diag, lowering = monomial_operator(basis.spec, basis._monomials[:D])
    lam = np.repeat(basis.lambdas[: K + 1], np.diff(basis.offsets[: K + 2]))
    R = (lam[:, None] + diag) * C
    for src, dst, coef in lowering:
        R[:, dst] += coef * C[:, src]
    scale = np.where(lam > 0, lam * np.abs(C).max(axis=1), 1.0)
    return np.maximum.reduceat(np.abs(R).max(axis=1) / scale, basis.offsets[: K + 1])


# ---------------------------------------------------------------------------
# construction


def _degree_cap(spec, precision_mode):
    if precision_mode == "longdouble" and not LONGDOUBLE_EXTENDED:
        raise CapacityError("longdouble is float64 on this platform; use precision double")
    caps = _CAPS_EXTENDED if precision_mode == "longdouble" else _CAPS_DOUBLE
    key = (spec.kind, spec.n)
    if key not in caps:
        raise CapacityError(f"no basis support for {spec.kind} in dimension {spec.n}")
    return caps[key]


def build_basis(spec, max_degree, precision_mode="double", quad=None):
    """Construct the orthonormal eigenbasis up to ``max_degree``.

    Raises CapacityError beyond the per-domain degree caps and
    PrecisionError if orthogonalization loses a level to cancellations.
    """
    if precision_mode not in ("double", "longdouble"):
        raise ParameterError(f"unknown precision mode {precision_mode!r}")
    cap = _degree_cap(spec, precision_mode)
    if not 0 <= max_degree <= cap:
        raise CapacityError(
            f"max_degree {max_degree} exceeds the cap {cap} for {spec.label()} "
            f"in {precision_mode} precision; lower the degree or switch precision"
        )
    if quad is None:
        quad = build_quadrature(spec, 2 * max_degree + 2)
    if spec.kind == INTERVAL:
        return _build_interval(spec, max_degree, quad, precision_mode)
    return _build_generated(spec, max_degree, quad, precision_mode)


def _build_interval(spec, K, quad, precision_mode):
    a, sqb, mass = jacobi_recurrence(K + 1, spec.alpha, spec.beta)

    def eval_all(pts):
        x = pts[:, 0]
        V = np.empty((x.size, K + 1))
        V[:, 0] = 1.0 / sqrt(mass)
        if K >= 1:
            V[:, 1] = (x - a[0]) * V[:, 0] / sqb[1]
        for k in range(1, K):
            V[:, k + 1] = ((x - a[k]) * V[:, k] - sqb[k] * V[:, k - 1]) / sqb[k + 1]
        return V

    # coefficient recurrence (ascending powers)
    C = np.zeros((K + 1, K + 1))
    C[0, 0] = 1.0 / sqrt(mass)
    if K >= 1:
        C[1, 1] = C[0, 0] / sqb[1]
        C[1, 0] = -a[0] * C[0, 0] / sqb[1]
    for k in range(1, K):
        shifted = np.roll(C[k], 1)
        shifted[0] = 0.0
        C[k + 1] = (shifted - a[k] * C[k] - sqb[k] * C[k - 1]) / sqb[k + 1]

    monos = [(d,) for d in range(K + 1)]
    node_values = eval_all(quad.nodes)
    return OrthonormalBasis(spec, K, quad, precision_mode, C, monos, node_values, eval_all)


def _build_generated(spec, K, quad, precision_mode):
    """Gram-Schmidt build of the ball and simplex bases, one level at a time.

    Values are kept member-major: row r of U holds member r at the nodes.
    Level k starts from the candidate block X = [x_i P_(k-1, j)].  Block
    CGS2 removes its components along the s accepted members,
    X = R^T U[:s] + Q.  Pivoted MGS inside the block then takes dim_k
    members, each the surviving row of largest residual norm, so that
    X[sel] = R[:, sel]^T U[:s] + T^T U_k with T upper triangular, and the
    coefficient rows are C_k = T^-T (shift(C[parents]) - R[:, sel]^T C[:s]).
    """
    dtype = np.longdouble if precision_mode == "longdouble" else np.float64
    n = spec.n
    monos = graded_monomials(n, K)
    mono_index = {e: i for i, e in enumerate(monos)}
    D = len(monos)
    offsets = np.concatenate([[0], np.cumsum([level_dimension(n, k) for k in range(K + 1)])])
    coords = quad.nodes.T.astype(dtype)             # (n, nodes)
    w = quad.weights.astype(dtype)
    mass = w.sum()

    U = np.zeros((D, quad.size), dtype=dtype)       # member values at the nodes
    C = np.zeros((D, D), dtype=dtype)               # monomial coefficients
    U[0] = C[0, 0] = 1 / np.sqrt(mass)
    # shift[i, c]: column of x_i * monomial c, for monomials below degree K
    low = int(offsets[K])
    shift = np.array([[mono_index[e[:i] + (e[i] + 1,) + e[i + 1:]] for e in monos[:low]]
                      for i in range(n)], dtype=np.int64).reshape(n, low)
    steps = []
    for k in range(1, K + 1):
        s, e, prev = int(offsets[k]), int(offsets[k + 1]), int(offsets[k - 1])
        d, m = e - s, n * (s - prev)
        axes = np.repeat(np.arange(n), s - prev)
        parents = np.tile(np.arange(prev, s), n)
        Q = (coords[:, None] * U[prev:s]).reshape(m, -1)    # rows x_i P_(k-1, j)
        orig_norm = np.sqrt(np.einsum("ij,j,ij->i", Q, w, Q))
        R = np.zeros((s, m), dtype=dtype)
        buf = np.empty_like(Q)
        for _ in range(2):
            P = U[:s] @ np.multiply(Q, w, out=buf).T
            Q -= np.matmul(P.T, U[:s], out=buf)
            R += P
        del buf

        # pivoted MGS on the rows of Q; rows [j:] are the surviving candidates
        order = np.arange(m)
        T = np.zeros((d, m), dtype=dtype)   # in-level coefficients, by row of Q
        for j in range(d):
            b = j + int(np.argmax(np.einsum("ij,j,ij->i", Q[j:], w, Q[j:])))
            Q[[j, b]], T[:, [j, b]], order[[j, b]] = Q[[b, j]], T[:, [b, j]], order[[b, j]]
            q = Q[j]
            if j:   # second pass against the level's accepted members
                t = U[s:s + j] @ (w * q)
                q -= t @ U[s:s + j]
                T[:j, j] += t
            nrm = np.sqrt(q @ (w * q))
            if nrm < 1e-8 * orig_norm[order[j]]:
                raise PrecisionError(
                    f"orthogonalization lost level {k} of {spec.label()} "
                    f"(residual {float(nrm):.2e} of {float(orig_norm[order[j]]):.2e}); "
                    "raise the precision mode or lower the degree"
                )
            U[s + j] = q / nrm
            T[j, j] = nrm
            t = Q[j + 1:] @ (w * U[s + j])
            Q[j + 1:] -= t[:, None] * U[s + j]
            T[j, j + 1:] += t
        del Q, q    # the next level's block is allocated after this one is freed
        sel = order[:d]
        T = T[:, :d]
        R = R[:, sel]

        # L = T^-T by forward substitution; C_k = L (shift(C[parents]) - R^T C[:s])
        L = np.zeros((d, d), dtype=dtype)
        for j in range(d):
            L[j] = -(T[:j, j] @ L[:j])
            L[j, j] += 1
            L[j] /= T[j, j]
        rhs = np.zeros((d, e), dtype=dtype)
        rhs[np.arange(d)[:, None], shift[axes[sel], :s]] = C[parents[sel], :s]
        rhs -= R.T @ C[:s, :e]
        C[s:e, :e] = L @ rhs
        lo = int(offsets[max(k - 2, 0)])
        steps.append((axes[sel], parents[sel], lo, np.asarray(R[lo:], dtype=float),
                      np.asarray(L, dtype=float)))

    plan = _ReplayPlan(float(mass), offsets, steps)
    return OrthonormalBasis(spec, K, quad, precision_mode, np.asarray(C, dtype=float), monos,
                            np.asarray(U, dtype=float).T, plan.evaluate)


class _ReplayPlan:
    """Replays the level-blocked orthogonalization at arbitrary points.

    Level k needs its pivots' axes and parents, its coefficients R against
    levels k-2 and k-1 (by the three-term relation, those against lower
    levels vanish up to rounding) and L = T^-T: two matrix products per
    level, U_k = L (x_axes U_parents - R^T U_(k-2..k-1)), on member-major
    rows.
    """

    def __init__(self, mass, offsets, steps):
        self.mass = mass
        self.offsets = offsets
        self.steps = steps

    def evaluate(self, pts):
        U = np.empty((int(self.offsets[-1]), pts.shape[0]))
        U[0] = 1.0 / sqrt(self.mass)
        coords = pts.T
        for s, e, (axes, parents, lo, R, L) in zip(self.offsets[1:], self.offsets[2:],
                                                   self.steps):
            rhs = coords[axes] * U[parents]
            rhs -= R.T @ U[lo:s]
            U[s:e] = L @ rhs
        return U.T
