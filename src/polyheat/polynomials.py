"""Exact multivariate polynomial arithmetic and the three model operators.

Polynomials are stored sparsely as a mapping from exponent tuples to float
coefficients.  All arithmetic is exact at coefficient level (up to float
rounding of the coefficients themselves), which lets eigen-relations be
certified without sampling.  Terms are kept and serialized in graded order
with a lexicographic tie-break, so iteration and JSON dumps are
deterministic across platforms.

The verification and validation paths do not use ``MultiPoly``: they hold a
polynomial as a coefficient vector over graded monomials and act on it with
dense matrices (``operator_matrix``, ``partial_matrix``), evaluated through
one ``monomial_vandermonde``.  ``MultiPoly`` and ``apply_*_operator`` stay
the exact public reference.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParameterError

# Coefficients below this magnitude are true zeros produced by cancellation
# of exactly representable values; no epsilon-pruning beyond it.
ZERO_PRUNE = 1e-300


def graded_key(exponents):
    return (sum(exponents), exponents)


class MultiPoly:
    """Immutable sparse polynomial in ``dimension`` variables.

    ``terms`` maps exponent tuples (length = dimension, non-negative ints)
    to float coefficients.  Zero coefficients are pruned on construction.
    """

    __slots__ = ("dimension", "_terms")

    def __init__(self, dimension, terms=None):
        if dimension < 1:
            raise DomainError("dimension must be a positive integer")
        self.dimension = int(dimension)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dimension:
                raise DomainError(
                    f"exponent tuple {exps} does not match dimension {self.dimension}"
                )
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            c = float(coeff)
            if abs(c) >= ZERO_PRUNE:
                clean[exps] = clean.get(exps, 0.0) + c
        self._terms = {e: c for e, c in clean.items() if abs(c) >= ZERO_PRUNE}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dimension):
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension, value):
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def monomial(cls, exponents, coeff=1.0):
        exponents = tuple(int(e) for e in exponents)
        return cls(len(exponents), {exponents: coeff})

    @classmethod
    def variable(cls, dimension, axis):
        exps = [0] * dimension
        exps[axis] = 1
        return cls.monomial(tuple(exps))

    # -- inspection ----------------------------------------------------

    def items(self):
        """Terms in graded order (degree, then lexicographic)."""
        return [(e, self._terms[e]) for e in sorted(self._terms, key=graded_key)]

    def coeff(self, exponents):
        return self._terms.get(tuple(exponents), 0.0)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def num_terms(self):
        return len(self._terms)

    def is_zero(self):
        return not self._terms

    def max_abs_coeff(self):
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    # -- arithmetic ----------------------------------------------------

    def _check_same_dim(self, other):
        if self.dimension != other.dimension:
            raise DomainError("polynomial dimensions differ")

    def __add__(self, other):
        if np.isscalar(other):
            other = MultiPoly.constant(self.dimension, other)
        self._check_same_dim(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return MultiPoly(self.dimension, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.dimension, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = MultiPoly.constant(self.dimension, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            return MultiPoly(self.dimension, {e: c * v for e, v in self._terms.items()})
        self._check_same_dim(other)
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return MultiPoly(self.dimension, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dimension == other.dimension and self._terms == other._terms

    def __hash__(self):
        return hash((self.dimension, tuple(sorted(self._terms.items()))))

    def __repr__(self):
        if not self._terms:
            return f"MultiPoly({self.dimension}, 0)"
        parts = [f"{c:g}*x^{list(e)}" for e, c in self.items()]
        return "MultiPoly(" + " + ".join(parts) + ")"

    def coeff_distance(self, other):
        """Max absolute coefficient difference."""
        self._check_same_dim(other)
        keys = set(self._terms) | set(other._terms)
        if not keys:
            return 0.0
        return max(abs(self._terms.get(e, 0.0) - other._terms.get(e, 0.0)) for e in keys)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        return poly_eval(self, x)

    def eval_many(self, points):
        """Evaluate at an (m, dimension) array of points; returns (m,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dimension:
            raise DomainError("point dimension mismatch")
        out = np.zeros(pts.shape[0])
        for e, c in self.items():
            term = np.full(pts.shape[0], c)
            for i, p in enumerate(e):
                if p:
                    term = term * pts[:, i] ** p
            out += term
        return out

    # -- serialization ---------------------------------------------------

    def to_json_obj(self):
        return {
            "dimension": self.dimension,
            "terms": [[list(e), c] for e, c in self.items()],
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj["dimension"], {tuple(e): c for e, c in obj["terms"]})


def poly_eval(p, x):
    """Evaluate ``p`` at point ``x``, accumulating in graded term order."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p.dimension,):
        raise DomainError(f"point has shape {x.shape}, expected ({p.dimension},)")
    total = 0.0
    for e, c in p.items():
        term = c
        for i, power in enumerate(e):
            if power:
                term *= x[i] ** power
        total += term
    return total


def poly_partial(p, axis):
    """Exact partial derivative along ``axis`` (0-based)."""
    if not 0 <= axis < p.dimension:
        raise DomainError(f"axis {axis} out of range for dimension {p.dimension}")
    terms = {}
    for e, c in p._terms.items():
        k = e[axis]
        if k == 0:
            continue
        e2 = list(e)
        e2[axis] = k - 1
        e2 = tuple(e2)
        terms[e2] = terms.get(e2, 0.0) + k * c
    return MultiPoly(p.dimension, terms)


def _shift(p, axis):
    """Multiply by the coordinate x_axis (exponent shift)."""
    terms = {}
    for e, c in p._terms.items():
        e2 = list(e)
        e2[axis] += 1
        terms[tuple(e2)] = c
    return MultiPoly(p.dimension, terms)


def apply_jacobi_operator(p, alpha, beta):
    """(1-x^2) p'' + (beta-alpha) p' - (alpha+beta+2) x p' for univariate p."""
    if p.dimension != 1:
        raise DomainError("the interval operator acts on univariate polynomials")
    if alpha <= -1 or beta <= -1:
        raise ParameterError("interval weight requires alpha > -1 and beta > -1")
    d1 = poly_partial(p, 0)
    d2 = poly_partial(d1, 0)
    out = d2 - _shift(_shift(d2, 0), 0)
    out = out + (beta - alpha) * d1
    out = out - (alpha + beta + 2.0) * _shift(d1, 0)
    return out


def apply_ball_operator(p, gamma):
    """sum_i d_i^2 p - sum_ij x_i x_j d_i d_j p - (n+2*gamma) sum_i x_i d_i p."""
    if gamma <= -0.5:
        raise ParameterError("ball weight requires gamma > -1/2")
    n = p.dimension
    firsts = [poly_partial(p, i) for i in range(n)]
    out = MultiPoly.zero(n)
    for i in range(n):
        out = out + poly_partial(firsts[i], i)
    for i in range(n):
        for j in range(n):
            out = out - _shift(_shift(poly_partial(firsts[i], j), i), j)
    c = n + 2.0 * gamma
    for i in range(n):
        out = out - c * _shift(firsts[i], i)
    return out


def apply_simplex_operator(p, kappa):
    """sum_i x_i d_i^2 p - sum_ij x_i x_j d_i d_j p
    + sum_i (kappa_i + 1/2 - (|kappa| + (n+1)/2) x_i) d_i p."""
    n = p.dimension
    kappa = tuple(float(k) for k in kappa)
    if len(kappa) != n + 1:
        raise ParameterError(f"expected {n + 1} weight exponents, got {len(kappa)}")
    if any(k <= -0.5 for k in kappa):
        raise ParameterError("simplex weight requires every kappa_i > -1/2")
    ksum = sum(kappa)
    firsts = [poly_partial(p, i) for i in range(n)]
    out = MultiPoly.zero(n)
    for i in range(n):
        out = out + _shift(poly_partial(firsts[i], i), i)
    for i in range(n):
        for j in range(n):
            out = out - _shift(_shift(poly_partial(firsts[i], j), i), j)
    drift = ksum + (n + 1) / 2.0
    for i in range(n):
        out = out + (kappa[i] + 0.5) * firsts[i] - drift * _shift(firsts[i], i)
    return out


def monomial_operator(spec, monomials):
    """The operator of ``spec`` on each monomial x^e, in closed form.

    L x^e = -(|e|(|e|-1) + c|e|) x^e plus lowering terms: m(m-1) x^(m-2) and
    (beta-alpha) m x^(m-1) on the interval, e_i(e_i-1) x^(e-2d_i) on the
    ball, e_i(e_i+kappa_i-1/2) x^(e-d_i) on the simplex; the drift c is as in
    ``apply_*_operator``.  Returns (diag, [(src, dst, coef), ...]): coef[t] is
    the coefficient of monomials[dst[t]] in L monomials[src[t]], and each
    src -> dst map is injective.  ``monomials`` must be closed under lowering.
    """
    E = np.array(monomials, dtype=np.int64).reshape(len(monomials), -1)
    if spec.kind == "interval":
        drift = spec.alpha + spec.beta + 2.0
        terms = [(0, 2, E[:, 0] - 1.0), (0, 1, spec.beta - spec.alpha)]
    elif spec.kind == "ball":
        drift = spec.n + 2.0 * spec.gamma
        terms = [(i, 2, E[:, i] - 1.0) for i in range(spec.n)]
    else:
        drift = sum(spec.kappa) + (spec.n + 1) / 2.0
        terms = [(i, 1, E[:, i] + spec.kappa[i] - 0.5) for i in range(spec.n)]
    index = {e: j for j, e in enumerate(map(tuple, E.tolist()))}
    lowering = []
    for axis, shift, factor in terms:
        src = np.nonzero(E[:, axis] >= shift)[0]
        low = E[src]
        low[:, axis] -= shift
        dst = np.array([index[e] for e in map(tuple, low.tolist())], dtype=np.int64)
        lowering.append((src, dst, (E[:, axis] * factor)[src]))
    deg = E.sum(axis=1).astype(float)
    return -(deg * (deg - 1.0) + drift * deg), lowering


# ---------------------------------------------------------------------------
# dense coefficient arrays: a polynomial is a row vector c over ``monomials``


def operator_matrix(spec, monomials):
    """Dense M with (L p) = c @ M for p of coefficients c over ``monomials``."""
    diag, lowering = monomial_operator(spec, monomials)
    M = np.diag(diag)
    for src, dst, coef in lowering:
        M[src, dst] += coef
    return M


def partial_matrix(monomials, axis):
    """Dense exponent shift D with (d p / d x_axis) = c @ D.

    D[src, dst] = e_axis where monomials[dst] is monomials[src] lowered by
    one along ``axis``; ``monomials`` must be closed under lowering.
    """
    E = np.array(monomials, dtype=np.int64).reshape(len(monomials), -1)
    index = {e: j for j, e in enumerate(map(tuple, E.tolist()))}
    D = np.zeros((len(E), len(E)))
    for src, e in enumerate(E.tolist()):
        if e[axis]:
            k = e[axis]
            e[axis] -= 1
            D[src, index[tuple(e)]] = k
    return D


def monomial_vandermonde(points, monomials):
    """V[m, j] = prod_i points[m, i] ** monomials[j][i]; values of c are V @ c."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    E = np.array(monomials, dtype=np.int64).reshape(len(monomials), -1)
    if pts.shape[1] != E.shape[1]:
        raise DomainError("point dimension mismatch")
    V = np.ones((len(pts), len(E)))
    powers = np.arange(int(E.max(initial=0)) + 1)
    for i in range(E.shape[1]):
        V *= (pts[:, i:i + 1] ** powers)[:, E[:, i]]
    return V

