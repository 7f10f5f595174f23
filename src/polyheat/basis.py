"""Orthonormal polynomial bases of the eigenspaces of the three operators.

Each level k holds the orthonormal polynomials of exact degree k that are
orthogonal to all lower degrees in L^2(domain, weighted measure);
the operator acts on level k as multiplication by -lambda_k.

Construction.  Every basis is a closed-form product of orthonormal Jacobi
polynomials (Dunkl & Xu, Orthogonal Polynomials of Several Variables, 2nd
ed. 2014, 5.2-5.3; Koornwinder 1975).  With x = (x1, x'), member (m, nu) of
level k = m + j is a Jacobi factor of degree m in x1 times member nu, of
degree j, of the same family one dimension down, on the section through x1:

  ball(n, g):    p_m^(l, l)(x1) r^j Q_nu(x'/r),  r^2 = 1 - x1^2,  l = j + g + (n-2)/2;
  simplex(n, k): c p_m^(A, a_1)(2 x1 - 1) h^j Q_nu(x'/h),  h = 1 - x1,  a_i = k_i - 1/2,
                 A = 2j + a_2 + ... + a_(n+1) + n - 1,  c = 2^((A + a_1 + 1)/2).

The dimension-0 basis is the constant 1, so n = 1 gives the interval,
ball(1) and simplex(1).  Every factor comes from the homogeneous form of the
recurrence of ``quadrature.jacobi_recurrence``,
q_(m+1) = ((u - a_m s) q_m - b_m s^2 q_(m-1)) / b_(m+1): u = x and s = 1 on
the interval, u = x1 and only s^2 on the ball (a_m = 0), u = 2 x1 - s on the
simplex; the family one dimension down runs at the scale s'^2 = s^2 - x1^2
(ball) or s' = s - x1 (simplex).  It never divides by a scale, so it is exact
on the boundary and at the vertices.  One code runs it on values at points
(``node_values``, ``evaluate``) and on rows of monomial coefficients, where
x_i shifts columns (``coefficients``, ``levels``, the export,
``verify_eigenrelation``).  The one-dimensional family of the innermost axis
runs first, as its own loop of three ufunc updates a level (times the
previous row, minus b times the one before, divided by b_t); the outer axes
follow, blocked per level and vectorized over its members.

Member order.  Level k holds one member (k - j, nu) for each member nu of
degree j <= k of the family one dimension down, in that family's order, so
j ascends across a level.  On the interval level k is p_k.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb, sqrt

import numpy as np

from .config import SCHEMA_VERSION
from .domains import BALL, INTERVAL, SIMPLEX, DomainSpec
from .errors import CapacityError, DomainError, ParameterError, PrecisionError
from .polynomials import MultiPoly, monomial_operator
from .quadrature import build_quadrature, jacobi_recurrence

# Degree caps per (kind, dimension).
_CAPS = {(INTERVAL, 1): 200, (BALL, 1): 200, (SIMPLEX, 1): 200,
         (BALL, 2): 40, (SIMPLEX, 2): 40, (BALL, 3): 25, (SIMPLEX, 3): 25}
# an imported member's largest coefficient gap to its rebuild, relative to its largest coefficient
COEFF_TOL = 1e-8


def eigenvalue(spec: DomainSpec, k: int) -> float:
    """Closed-form eigenvalue lambda_k >= 0 of level k (lambda_0 = 0):
    k (k + (2 |kappa| + n - 1) / step) over the lifted half-exponents."""
    if k < 0:
        raise DomainError("level index must be >= 0")
    lift = spec.lift
    return k * (k + (2 * sum(lift.kappa) + (spec.n - 1)) / lift.step)


def level_dimension(n: int, k: int) -> int:
    return 1 if k == 0 else comb(k + n - 1, k)


@lru_cache(maxsize=None)
def _offsets(n, K):
    """Start of each level 0..K, and the total, in an n-dimensional family
    (read-only, shared by every caller with the same n and K)."""
    o = np.concatenate([[0], np.cumsum([level_dimension(n, k) for k in range(K + 1)])])
    o.flags.writeable = False
    return o


def graded_monomials(n, max_degree):
    """Exponent tuples of total degree <= max_degree in graded order."""
    def exact(deg, slots):    # lexicographic
        return [(deg,)] if slots == 1 else [(e,) + rest for e in range(deg + 1)
                                            for rest in exact(deg - e, slots - 1)]
    return [e for deg in range(max_degree + 1) for e in exact(deg, n)]


class OrthonormalBasis:
    """Graded orthonormal family with eigenvalues, values, and coefficients."""

    def __init__(self, spec, max_degree, quad):
        self.spec = spec
        self.max_degree = K = int(max_degree)
        self.quad = quad
        self.lambdas = np.array([eigenvalue(spec, k) for k in range(K + 1)])
        if self.lambdas[0] != 0.0 or np.any(np.diff(self.lambdas) <= 0):
            raise ParameterError("eigenvalues must start at 0 and increase strictly")
        self.offsets = _offsets(spec.n, K)
        self._axes = [_Axis(spec, spec.n - i, K) for i in range(spec.n)]
        self._monomials = graded_monomials(spec.n, K)
        self._coeff = _members(_Coefficients(spec.n, K, self._monomials), spec.kind,
                               self._axes, np.zeros((self.size, self.size)), K)
        self._node_values = self._values(quad.nodes)
        self._levels = None
        self._gram = None

    # -- structure -------------------------------------------------------

    @property
    def size(self):
        return int(self.offsets[-1])

    def level_slice(self, k):
        if not 0 <= k <= self.max_degree:
            raise DomainError(f"level {k} outside [0, {self.max_degree}]")
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    @property
    def coefficients(self):
        """Monomial coefficients, read-only: row = member, column = graded monomial."""
        view = self._coeff.view()
        view.flags.writeable = False
        return view

    @property
    def levels(self):
        """Per-level lists of MultiPoly (built lazily from coefficients)."""
        if self._levels is None:
            def poly(row):
                return MultiPoly(self.spec.n, {self._monomials[i]: float(row[i])
                                               for i in np.nonzero(row)[0]})
            self._levels = [[poly(row) for row in self._coeff[self.level_slice(k)]]
                            for k in range(self.max_degree + 1)]
        return self._levels

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points):
        """Values of every basis member: (npoints, size), member-major in memory."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.spec.n == 1 else pts[None, :]
        if pts.shape[1] != self.spec.n:
            raise DomainError("points have the wrong dimension")
        return self._values(pts)

    def _values(self, pts, last=None):
        """Values at the checked points of evaluate, or at the nodes, of the
        members through level ``last`` (default max_degree); the columns of
        later levels are zero."""
        last = self.max_degree if last is None else last
        out = np.empty((self.size, pts.shape[0]))
        out[self.offsets[last + 1]:] = 0.0
        return _members(_Values(pts), self.spec.kind, self._axes, out, last).T

    @property
    def node_values(self):
        return self._node_values

    def gram_residual(self):
        """max |G - I| over all members through max_degree."""
        if self._gram is None:
            V = self._node_values
            G = V.T @ (self.quad.weights[:, None] * V)
            G.flat[:: len(G) + 1] -= 1.0
            self._gram = float(np.abs(G, out=G).max())
        return self._gram

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        """The export: spec, degree and the nonzero entries of ``coefficients``
        as three lists (member row, graded-monomial column, value)."""
        rows, cols = np.nonzero(self._coeff)
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec.to_json_obj(),
            "max_degree": self.max_degree,
            "entries": {"member": rows.tolist(), "monomial": cols.tolist(),
                        "value": self._coeff[rows, cols].tolist()},
        }


def basis_from_json_obj(obj):
    """Import a basis exported by ``to_json_obj``.

    Construction is deterministic, so the basis is rebuilt from its spec and
    degree and the stored entries serve as an integrity check: per member,
    the max coefficient distance to the rebuild, relative to the larger max
    |coefficient|, must stay below ``COEFF_TOL`` (PrecisionError naming the
    first bad member).  An export of another schema version, one missing a
    key, or entries that do not fit the basis raise ParameterError.
    """
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != SCHEMA_VERSION:
        raise ParameterError(f"basis export has schema_version {version!r}, "
                             f"expected {SCHEMA_VERSION}; build and export the basis again")
    try:
        spec, max_degree = DomainSpec.from_json_obj(obj["spec"]), obj["max_degree"]
        rows, cols, vals = (np.asarray(obj["entries"][key], dtype=float)
                            for key in ("member", "monomial", "value"))
    except KeyError as e:
        raise ParameterError(f"basis export lacks the key {e}") from None
    basis = build_basis(spec, max_degree)
    C = basis._coeff
    same_length = rows.ndim == 1 and rows.shape == cols.shape == vals.shape
    indices = all(np.array_equal(a, a.round()) and np.all((0 <= a) & (a < len(C)))
                  for a in (rows, cols))
    if not (same_length and indices):
        raise ParameterError("basis export entries are not three equal-length lists of "
                             f"member and monomial indices in [0, {len(C)}) and values")
    stored = np.zeros_like(C)
    stored[rows.astype(np.int64), cols.astype(np.int64)] = vals
    scale = np.maximum(np.abs(stored).max(axis=1), np.abs(C).max(axis=1))
    stored -= C
    gap = np.abs(stored, out=stored).max(axis=1)
    bad = np.flatnonzero(gap > COEFF_TOL * np.maximum(scale, 1e-300))
    if bad.size:
        k = int(np.searchsorted(basis.offsets, bad[0], side="right")) - 1
        raise PrecisionError(
            f"stored basis member ({k},{bad[0] - basis.offsets[k]}) disagrees with the "
            "rebuild; the export may come from an incompatible version"
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
    wrong eigenvalue shows; a term whose source and target columns are
    consecutive (every term on the interval) is one column-slice update.
    Members through level K touch only the first D graded monomials.
    """
    K = basis.max_degree if max_level is None else min(max_level, basis.max_degree)
    D = int(basis.offsets[K + 1])
    C = basis._coeff[:D, :D]
    diag, lowering = monomial_operator(basis.spec, basis._monomials[:D])
    lam = np.repeat(basis.lambdas[: K + 1], np.diff(basis.offsets[: K + 2]))
    R = (lam[:, None] + diag) * C
    for src, dst, coef in lowering:
        R[:, _span(dst)] += coef * C[:, _span(src)]
    scale = np.where(lam > 0, lam * np.abs(C).max(axis=1), 1.0)
    return np.maximum.reduceat(np.abs(R).max(axis=1) / scale, basis.offsets[: K + 1])


def _span(idx):
    """An index array as the slice of columns it names where they are
    consecutive and ascending (a view, not a gather), else itself."""
    if len(idx) and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


# ---------------------------------------------------------------------------
# construction


def build_basis(spec, max_degree, quad=None):
    """Construct the orthonormal eigenbasis up to ``max_degree``.

    Raises CapacityError beyond the per-domain degree caps.  ``quad``
    (default: exact to degree 2 max_degree + 2) carries the node values and
    the Gram residual.
    """
    key = (spec.kind, spec.n)
    if key not in _CAPS:
        raise CapacityError(f"no basis support for {spec.kind} in dimension {spec.n}")
    if max_degree < 0:
        raise ParameterError(f"max_degree {max_degree} is below 0")
    if max_degree > _CAPS[key]:
        raise CapacityError(f"max_degree {max_degree} exceeds the cap {_CAPS[key]} "
                            f"for {spec.label()}; lower the degree")
    if quad is None:
        quad = build_quadrature(spec, 2 * max_degree + 2)
    return OrthonormalBasis(spec, max_degree, quad)


def _jacobi_parameters(spec, d, j):
    """(alpha, beta, c) of the x1 factor of the d-dimensional family, inner degree j."""
    if spec.kind == INTERVAL:
        return spec.alpha, spec.beta, 1.0
    if spec.kind == BALL:
        lam = j + spec.gamma + (d - 2) / 2.0
        return lam, lam, 1.0
    a = [k - 0.5 for k in spec.kappa[spec.n - d:]]
    alpha, beta = 2 * j + sum(a[1:]) + d - 1, a[0]
    return alpha, beta, 2.0 ** ((alpha + beta + 1) / 2.0)


class _Axis:
    """What one coordinate's recurrence needs, whatever the algebra.

    A one-dimensional family (d = 1) keeps the flat arrays of
    ``jacobi_recurrence``: ``a[t]`` = a_t (None for a symmetric weight) and
    ``b[t]`` = b_t, a 0-d array (a ufunc takes one faster than a scalar),
    with ``p0`` its row 0.  For d >= 2, ``levels[t]`` builds level t of the
    family on this axis: its first rows (inner degree j < t, m = t - j) from
    levels t-1 and, for the ``head`` with m >= 2, t-2, with per-row columns
    a_(m-1) (None for a symmetric weight), b_(m-1) and b_m; its last rows
    (j = t) as the inner family's level t times p_0.  ``offsets`` holds the
    start of each level.
    """

    def __init__(self, spec, d, K):
        self.offsets = o = _offsets(d, K).tolist()
        self.size = o[-1]
        if d == 1:
            alpha, beta, c = _jacobi_parameters(spec, 1, 0)
            a, sqb, mass = jacobi_recurrence(K, alpha, beta)
            self.a, self.p0 = a if a.any() else None, c / sqrt(mass)
            self.b = [sqb[t, ...] for t in range(K + 1)]
            return
        # inner[t]: rows of inner degree < t, which is also the size of level t - 1
        inner = _offsets(d - 1, K)
        deg = np.repeat(np.arange(K + 1), np.diff(inner))
        A, B, p0 = np.zeros((K + 1, K + 1)), np.zeros((K + 1, K + 1)), np.zeros(K + 1)
        for j in range(int(deg[-1]) + 1):
            alpha, beta, c = _jacobi_parameters(spec, d, j)
            a, sqb, mass = jacobi_recurrence(K - j, alpha, beta)
            A[j, : K - j + 1], B[j, : K - j + 1], p0[j] = a, sqb, c / sqrt(mass)
        symmetric = not A.any()
        self.head, self.levels = max(int(inner[K - 1]), 1), []
        for t in range(K + 1):
            hi, lo = int(inner[t]), int(inner[t - 1]) if t else 0
            g, m = deg[:hi], t - deg[:hi]
            self.levels.append((
                slice(o[t - 2], o[t - 1]) if lo else None, slice(o[t - 1], o[t]) if hi else None,
                slice(o[t], o[t] + hi), slice(0, lo) if lo else None, slice(0, lo),
                None if symmetric else A[g, m - 1][:, None], B[g[:lo], m[:lo] - 1][:, None],
                B[g, m][:, None], slice(o[t] + hi, o[t + 1]), slice(inner[t], inner[t + 1]),
                p0[t]))


def _scales(kind, coords):
    """(u, s, s2) of each axis, outermost first; None stands for the scale 1."""
    s = s2 = None
    out = []
    for x in coords:
        if kind == SIMPLEX:
            one = 1.0 if s is None else s
            out.append((2 * x - one, s, None if s is None else s * s))
            s = one - x
        elif kind == BALL:
            out.append((x, None, s2))
            s2 = (1.0 if s2 is None else s2) - x * x
        else:
            out.append((x, None, None))
    return out


def _members(alg, kind, axes, out, last):
    """Every member through level ``last`` as rows of ``out``: the
    one-dimensional family of the innermost axis first, by ``alg.line``,
    then level t of every outer axis, innermost first.  ``alg.lin`` and
    ``alg.sub`` take t, for the columns that levels t, t-1 and t-2 fill."""
    width = alg.one.shape[1]
    family = [out] + [alg.new_rows((ax.size, width)) for ax in axes[1:]] + [alg.one]
    tmp = np.empty((max([ax.head for ax in axes[:-1]], default=0), width))
    scales = [[alg.prepare(e) for e in axis] for axis in _scales(kind, alg.coords)]
    line_rows = family[-2]
    np.multiply(axes[-1].p0, alg.one[0], out=line_rows[0])
    alg.line(*scales[-1], axes[-1], line_rows, last)
    work = list(zip(scales, family, family[1:]))[-2::-1]
    lin, sub = alg.lin, alg.sub
    levels = islice(zip(*[axis.levels for axis in axes[-2::-1]]), last + 1)
    # q_m = ((u - a_(m-1) s) q_(m-1) - b_(m-1) s^2 q_(m-2)) / b_m on each level's rows
    for t, level_t in enumerate(levels):
        for ((u, s, s2), rows, inner), level in zip(work, level_t):
            prev2, prev, cur, head, th, a, b, bn, new, inner_t, p0 = level
            if prev is not None:
                z = lin(u, s, a, rows[prev], rows[cur], t)
                if head is not None:
                    sub(z[head], b, s2, rows[prev2], tmp[th], t)
                z /= bn
            np.multiply(p0, inner[inner_t], out=rows[new])
    return out


class _Values:
    """Rows of values at points; the coordinates are arrays over the points."""

    # every level fills every row it is given: the values at every point
    new_rows = staticmethod(np.empty)

    def __init__(self, pts):
        self.coords = [np.ascontiguousarray(x) for x in pts.T]
        self.one = np.ones((1, pts.shape[0]))

    @staticmethod
    def prepare(e):
        return e

    @staticmethod
    def line(u, s, s2, ax, rows, last):
        """Rows 1..last of a one-dimensional family whose row 0 is set: row t
        first holds f_t = u - a_(t-1) s, all rows in one pass (a s formed
        first, as ``lin`` forms it; f_t = u for a symmetric weight), then
        r_t = (f_t r_(t-1) - b_(t-1) s^2 r_(t-2)) / b_t row by row.  No call
        of the loop writes to an array it reads: NumPy takes about twice as
        long for that on the one-element rows of a one-point sweep."""
        r, a, b = list(rows[: last + 1]), ax.a, ax.b
        # out goes by position: the call then parses no keywords
        mul, sub, div = np.multiply, np.subtract, np.divide
        if a is not None:
            a, f = a[:last, None], rows[1: last + 1]
            sub(u, a if s is None else mul(a, s, f), f)
        x, y, z = np.empty((3, rows.shape[1]))
        for t in range(1, last + 1):
            p = mul(u if a is None else r[t], r[t - 1], x)
            if t >= 2:
                q = r[t - 2] if s2 is None else mul(s2, r[t - 2], y)
                p = sub(p, mul(b[t - 1], q, z), y)
            div(p, b[t], r[t])

    @staticmethod
    def lin(u, s, a, Z, out, t):
        """(u - a s) Z into out."""
        if a is None:
            return np.multiply(u, Z, out=out)
        np.subtract(u, a if s is None else np.multiply(a, s, out=out), out=out)
        out *= Z
        return out

    @staticmethod
    def sub(zh, b, s2, Z, w, t):
        """zh -= b s^2 Z, with w as scratch."""
        zh -= np.multiply(b, Z if s2 is None else np.multiply(s2, Z, out=w), out=w)


class _Coefficients:
    """Rows of coefficients over the graded monomials, where x_i shifts columns.

    A member of degree t fills only the monomials of degree <= t, so level t
    works on the first ``offsets[t + 1]`` columns of rows that start at zero
    (``new_rows``), and ``lin`` adds into them."""

    new_rows = staticmethod(np.zeros)

    def __init__(self, n, K, monomials):
        self.coords = [MultiPoly.variable(n, i) for i in range(n)]
        self.one = np.zeros((1, len(monomials)))
        self.one[0, 0] = 1.0
        index = {e: c for c, e in enumerate(monomials)}
        low = len(monomials) - level_dimension(n, K)
        # _unit[i][c]: column of x_i times monomial c, for c below degree K
        self._unit = [np.array([index[e[:i] + (e[i] + 1,) + e[i + 1:]] for e in monomials[:low]],
                               dtype=np.int64) for i in range(n)]
        self._offsets = _offsets(n, K).tolist()

    def prepare(self, e):
        """Terms (c, dst) of a polynomial: dst takes the monomials of degree
        <= K - |e| to their products with x^e, as an index array, or as the
        first column where the products are consecutive columns."""
        if e is None:
            return None
        terms = []
        for exps, c in e.items():
            dst = np.arange(self._offsets[max(len(self._offsets) - 1 - sum(exps), 0)])
            for i, p in enumerate(exps):
                for _ in range(p):
                    dst = self._unit[i][dst]
            consecutive = len(dst) and dst[-1] - dst[0] == len(dst) - 1
            terms.append((c, int(dst[0]) if consecutive else dst))
        return terms

    def line(self, u, s, s2, ax, rows, last):
        """Rows 1..last of a one-dimensional family whose row 0 is set, by
        ``lin`` and ``sub``."""
        r, a, b, w = list(rows[: last + 1]), ax.a, ax.b, np.empty(rows.shape[1])
        for t in range(1, last + 1):
            z = self.lin(u, s, None if a is None else a[t - 1], r[t - 1], r[t], t)
            if t >= 2:
                self.sub(z, b[t - 1], s2, r[t - 2], w, t)
            z /= b[t]

    @staticmethod
    def mul(e, Z, out):
        """Add x^e Z to out, which has the columns of the product; Z may
        have fewer."""
        n = Z.shape[-1]
        for c, dst in e:
            cZ = Z if c == 1.0 else c * Z    # 1.0 Z is Z, bit for bit
            if type(dst) is int:
                o = out[..., dst: dst + n]
                o += cZ
            else:
                out[..., dst[:n]] += cZ
        return out

    def lin(self, u, s, a, Z, out, t):
        """(u - a s) Z = u Z - a (s Z) into the columns of level t of out, rows
        not yet written (zero); Z, of level t - 1, is read on its own."""
        Z, out = Z[..., : self._offsets[t]], out[..., : self._offsets[t + 1]]
        self.mul(u, Z, out)
        if a is not None:
            sZ = Z if s is None else self.mul(s, Z, np.zeros_like(out))
            z = out[..., : sZ.shape[-1]]
            z -= a * sZ
        return out

    def sub(self, zh, b, s2, Z, w, t):
        """zh -= b s^2 Z over the columns of s^2 Z, Z of level t - 2 read on
        its own columns, with w as scratch."""
        Z, w = Z[..., : self._offsets[t - 1]], w[..., : zh.shape[-1]]
        if s2 is not None:
            w[...] = 0.0
            Z = self.mul(s2, Z, w)
        n = Z.shape[-1]
        zh = zh[..., :n]
        zh -= np.multiply(b, Z, out=w[..., :n])
