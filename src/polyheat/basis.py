"""Orthonormal polynomial bases of the eigenspaces of the three operators.

Each level k holds the orthonormal polynomials of exact degree k that are
orthogonal to all lower degrees in L^2(domain, weighted measure);
the operator acts on level k as multiplication by -lambda_k.

Construction.  On the interval the basis comes from the classical
three-term recurrence (stable to degree 200 and beyond) and doubles as an
independent cross-check of the general path.  On the ball and simplex each
level is generated from coordinate-times-previous-level candidates and
orthogonalized by modified Gram-Schmidt with a second clean-up pass
("twice is enough"), pivoting on the largest residual norm.  Inner products
use a quadrature rule exact to degree 2*max_degree + 2, so Gram entries are
exact up to rounding.  The sequence of orthogonalization coefficients is
recorded as a replay plan, which evaluates the basis at arbitrary points by
the same well-conditioned recursion instead of through the (exponentially
ill-conditioned) monomial coefficient form.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class EigenTable:
    """Eigenvalues lambda_0..lambda_K; strictly increasing with lambda_0 = 0."""

    spec: DomainSpec
    lambdas: np.ndarray

    def __post_init__(self):
        lam = self.lambdas
        if lam[0] != 0.0 or np.any(np.diff(lam) <= 0):
            raise ParameterError("eigenvalues must start at 0 and increase strictly")


def eigen_table(spec, max_degree) -> EigenTable:
    lam = np.array([eigenvalue(spec, k) for k in range(max_degree + 1)])
    return EigenTable(spec, lam)


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
    dtype = np.longdouble if precision_mode == "longdouble" else np.float64
    n = spec.n
    monos = graded_monomials(n, K)
    mono_index = {e: i for i, e in enumerate(monos)}
    D = len(monos)
    dims = [level_dimension(n, k) for k in range(K + 1)]
    total = sum(dims)
    if total != D:
        raise AssertionError("monomial count must match cumulative level dimensions")

    nodes = quad.nodes.astype(dtype)
    w = quad.weights.astype(dtype)
    mass = float(w.sum())

    V = np.zeros((quad.size, total), dtype=dtype)       # values at nodes
    C = np.zeros((total, D), dtype=dtype)               # monomial coefficients
    plan_axis = np.zeros(total, dtype=np.int64)
    plan_prev = np.zeros(total, dtype=np.int64)
    plan_norm = np.zeros(total)
    plan_coeff = [np.zeros(0)] * total

    V[:, 0] = 1.0 / sqrt(mass)
    C[0, 0] = 1.0 / sqrt(mass)

    # x_i * monomial index map for the coefficient side
    shift_map = []
    for i in range(n):
        row = np.full(D, -1, dtype=np.int64)
        for idx, e in enumerate(monos):
            if sum(e) < K:
                e2 = list(e)
                e2[i] += 1
                row[idx] = mono_index[tuple(e2)]
        shift_map.append(row)

    pos = 1
    level_start = [0, 1]
    for k in range(1, K + 1):
        prev_sl = slice(level_start[k - 1], level_start[k])
        prev_pos = np.arange(prev_sl.start, prev_sl.stop)
        cand_axis = []
        cand_prev = []
        for i in range(n):
            for j in prev_pos:
                cand_axis.append(i)
                cand_prev.append(j)
        cand_axis = np.array(cand_axis)
        cand_prev = np.array(cand_prev)
        ncand = cand_axis.size

        cand_vals = nodes[:, cand_axis] * V[:, cand_prev]
        orig_norm = np.sqrt(np.einsum("ij,ij->j", cand_vals, w[:, None] * cand_vals))
        dcoef = np.zeros((ncand, total), dtype=dtype)

        def subtract(cols, against):
            proj = V[:, against].T @ (w[:, None] * cand_vals[:, cols])
            cand_vals[:, cols] -= V[:, against] @ proj
            dcoef[np.ix_(cols, against)] += proj.T

        all_cols = np.arange(ncand)
        prior = np.arange(pos)
        subtract(all_cols, prior)
        subtract(all_cols, prior)

        alive = list(range(ncand))
        for _ in range(dims[k]):
            norms = np.sqrt(np.einsum("ij,ij->j", cand_vals[:, alive],
                                      w[:, None] * cand_vals[:, alive]))
            best = alive[int(np.argmax(norms))]
            # final clean-up passes against everything accepted so far
            accepted = np.arange(pos)
            for _ in range(2):
                proj = V[:, accepted].T @ (w * cand_vals[:, best])
                cand_vals[:, best] -= V[:, accepted] @ proj
                dcoef[best, accepted] += proj
            nrm = float(np.sqrt(cand_vals[:, best] @ (w * cand_vals[:, best])))
            if nrm < 1e-8 * float(orig_norm[best]):
                raise PrecisionError(
                    f"orthogonalization lost level {k} of {spec.label()} "
                    f"(residual {nrm:.2e} of {float(orig_norm[best]):.2e}); "
                    "raise the precision mode or lower the degree"
                )
            V[:, pos] = cand_vals[:, best] / nrm
            raw = np.zeros(D, dtype=dtype)
            src = C[cand_prev[best]]
            smap = shift_map[cand_axis[best]]
            nz = np.nonzero(src)[0]
            raw[smap[nz]] = src[nz]
            C[pos] = (raw - dcoef[best, :pos] @ C[:pos]) / nrm
            plan_axis[pos] = cand_axis[best]
            plan_prev[pos] = cand_prev[best]
            plan_norm[pos] = nrm
            plan_coeff[pos] = np.asarray(dcoef[best, :pos], dtype=float).copy()
            alive.remove(best)
            if alive:
                # keep the surviving candidates orthogonal to the new vector
                proj = V[:, pos] @ (w[:, None] * cand_vals[:, alive])
                cand_vals[:, alive] -= np.outer(V[:, pos], proj)
                dcoef[alive, pos] += proj
            pos += 1
        level_start.append(pos)

    plan = _ReplayPlan(mass, plan_axis, plan_prev, plan_norm, plan_coeff, total)
    node_values = np.asarray(V, dtype=float)
    coeff = np.asarray(C, dtype=float)
    return OrthonormalBasis(spec, K, quad, precision_mode, coeff, monos,
                            node_values, plan.evaluate)


class _ReplayPlan:
    """Replays the recorded orthogonalization at arbitrary points."""

    def __init__(self, mass, axes, prev, norms, coeffs, size):
        self.mass = mass
        self.axes = axes
        self.prev = prev
        self.norms = norms
        self.coeffs = coeffs
        self.size = size

    def evaluate(self, pts):
        p = pts.shape[0]
        V = np.empty((p, self.size))
        V[:, 0] = 1.0 / sqrt(self.mass)
        for pos in range(1, self.size):
            d = self.coeffs[pos]
            v = pts[:, self.axes[pos]] * V[:, self.prev[pos]]
            if d.size:
                v = v - V[:, : d.size] @ d
            V[:, pos] = v / self.norms[pos]
        return V
