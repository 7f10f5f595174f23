"""Spectral heat kernels and multiplier kernels with certified tails.

The kernel at time t is the level sum  sum_k g_k K_k(x, y), g_k =
exp(-lambda_k t), where K_k is the reproducing kernel of level k; a
multiplier kernel weights level k by g_k = Phi(delta sqrt(lambda_k))
instead.  Every value sums in one matrix product the levels 0..L whose
weight is at least 2^-106 (u^2, u the unit roundoff) of the largest; at
short times L is the cap.  Its tail bounds all other levels, by
|K_k(x, y)| <= sqrt(C_k(x) C_k(y)) with C_k the level diagonal:

* past the cap, the geometric bound for the heat kernel and heat_exp and
  the Fourier envelope for sinc_power (zero for the compactly supported
  smooth_bump), each a factor s^2 times the rank-one e(x) e(y),
  e(x) = max sqrt(C_k(x)) over the last six levels;
* from L + 1 to the cap, exactly by Cauchy-Schwarz: d(x) d(y), with
  d(x)^2 = sum_(k>L) g_k C_k(x).

Each tail grid is the outer product of E(x) and E(y), E = hypot(s e, d):
one pass over the grid, exactly symmetric on a square one, and never below
the post-cap bound alone.  A value differs from the full product up to the
cap by far less than the rounding of the sum, which no tail covers: a tail
bounds the truncation only.  Evaluations either return an honest (value,
tail_bound) pair or refuse when the requested time is under-resolved for
the basis cap.

The weights and the tail factor are known before any point is evaluated.
Where the tail factor is exactly 0 (smooth_bump, and the heat kernel once
exp(-lambda_(K+1) t) underflows), no later level is read, so raw points
are evaluated only through the last level of nonzero weight.  The
under-resolved refusal evaluates through the cap, for the achievable time
it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import cached_property
from math import isfinite, log, sqrt, ulp

import numpy as np

from .basis import OrthonormalBasis, eigenvalue
from .domains import INTERVAL, _rows
from .errors import CapacityError, DomainError, ParameterError, PrecisionError

DEFAULT_EPSILON = 1e-10
# Extrapolation beyond the cap trusts a measured geometric decay ratio only
# below this threshold; otherwise the evaluation refuses.
MAX_DECAY_RATIO = 0.9
_RATIO_WINDOW = 5
# A kernel product reads the levels of weight at least u^2 = 2^-106 (u the
# unit roundoff) of the largest; each later level goes into the tail bound.
_WEIGHT_FLOOR = 2.0 ** -106


def default_t_min(spec, cap=None):
    """Smallest admissible time: kind floor raised so lambda_cap * t >= 30."""
    floor = 1e-3 if spec.kind == INTERVAL else 1e-2
    if cap is None:
        return floor
    return max(floor, 30.0 / eigenvalue(spec, cap))


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail target, smallest admissible time, and the level cap.

    Every level up to the cap enters each value or its tail bound; epsilon
    only sets the smallest time that the under-resolved refusal names as
    achievable.
    """

    epsilon: float
    t_min: float
    hard_cap: int

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf and 0 < self.t_min < np.inf):  # NaN fails both
            raise ParameterError(f"epsilon and t_min must be positive and finite, "
                                 f"got {self.epsilon:g} and {self.t_min:g}")


@dataclass(frozen=True)
class MultiplierSpec:
    """Spectral multiplier profile Phi.

    family "heat_exp": Phi(u) = exp(-u^2); with delta = sqrt(t) this equals
    the heat kernel.  family "smooth_bump": the even truncated-power profile
    (1 - (u/R)^2)^(order+1) on |u| < R, zero outside; exactly C^order across
    the support edge, with Phi(0) = 1 and a clean power-law transform
    envelope (a C-infinity mollifier would decay too erratically over finite
    windows to certify order-m localization).  family "sinc_power":
    Phi(u) = (sin(A u / 2) / (A u / 2))^(2m), whose Fourier transform is
    supported in [-mA, mA].
    """

    family: str
    support: float = 1.0  # R, spectral support radius of smooth_bump
    order: int = 4        # m
    band: float = 2.0     # A, for sinc_power

    def __post_init__(self):
        if self.family not in ("heat_exp", "smooth_bump", "sinc_power"):
            raise ParameterError(f"unknown multiplier family {self.family!r}")
        if not (0 < self.support < np.inf and 0 < self.band < np.inf) or self.order < 1:
            raise ParameterError(f"multiplier support, band and order must be positive and "
                                 f"finite, got {self.support:g}, {self.band:g} and {self.order}")

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "heat_exp":
            return np.exp(-(u ** 2))
        if self.family == "smooth_bump":
            out = np.zeros_like(u)
            s = np.abs(u) / self.support
            inside = s < 1
            out[inside] = (1.0 - s[inside] ** 2) ** (self.order + 1)
            return out
        half = self.band * u / 2.0
        out = np.ones_like(u)
        nz = half != 0
        out[nz] = (np.sin(half[nz]) / half[nz]) ** (2 * self.order)
        return out

    @property
    def spectral_cutoff(self):
        return self.support if self.family == "smooth_bump" else None

    @property
    def fourier_band(self):
        return self.order * self.band if self.family == "sinc_power" else None


def _sinc_power_tail_factor(band, delta, K, m):
    """2 (2 / (A delta))^(2m) (K - 1)^(1 - 2m) / (2m - 1), the post-cap bound
    of sinc_power, refused where it is not a finite double.

    Its two powers leave the double range long before their product does, so
    they are taken in decimal arithmetic, whose exponent range they do not
    leave.  The base keeps the double rounding of 2 / (A delta): the 2m-th
    power amplifies any other rounding of it 2m-fold.
    """
    with localcontext(Context(prec=30, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
        # an A delta that underflows to 0 reads as the least double, whose
        # 2 / (A delta) is already infinite
        base = Decimal(2.0 / max(band * delta, ulp(0.0)))
        factor = float(2 * base ** (2 * m) * Decimal(K - 1) ** (1 - 2 * m) / (2 * m - 1))
    if not isfinite(factor):
        raise CapacityError(
            f"the sinc_power tail factor of order {m}, band {band:g} and delta {delta:g} at the "
            f"cap {K} is beyond the range of a double; raise the band or delta, or lower the order")
    return factor


class PointSet:
    """Basis values up to one evaluator's cap at a set of points, evaluated once.

    Made by ``HeatKernelEvaluator.point_set``; every kernel method of that
    evaluator takes it in place of a point array, so a caller that queries
    the same points at several times or against several sets pays for one
    basis evaluation.  Indexing selects points without evaluating again.
    """

    def __init__(self, owner, values):
        self.owner = owner
        self.values = values

    def __getitem__(self, rows):
        return PointSet(self.owner, np.atleast_2d(self.values[rows]))


class HeatKernelEvaluator:
    """Heat and multiplier kernels over one orthonormal basis."""

    def __init__(self, basis: OrthonormalBasis, policy: TruncationPolicy | None = None):
        self.basis = basis
        if policy is None:
            policy = TruncationPolicy(DEFAULT_EPSILON,
                                      default_t_min(basis.spec, basis.max_degree),
                                      basis.max_degree)
        if policy.hard_cap > basis.max_degree:
            raise CapacityError("policy cap exceeds the built basis degree")
        self.policy = policy
        self.lambdas = basis.lambdas[: policy.hard_cap + 1]
        self._members = int(basis.offsets[policy.hard_cap + 1])  # up to the cap
        self._level_sizes = np.diff(basis.offsets[: policy.hard_cap + 2])

    @property
    def spec(self):
        return self.basis.spec

    # -- core spectral summation -----------------------------------------

    def point_set(self, points):
        """Evaluate the basis at ``points`` once, for reuse across kernel calls."""
        return PointSet(self, self._values(self._operand(points)))

    def _operand(self, points):
        """A ``PointSet`` of this evaluator, or a raw point array as (npoints, n),
        refused if its dimension is wrong or a row lies outside the closed
        domain (NaN included)."""
        if isinstance(points, PointSet):
            if points.owner is not self:
                raise ParameterError("the point set was evaluated by another evaluator")
            return points
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.spec.n:
            raise DomainError("points have the wrong dimension")
        return _rows(self.spec, pts)[0]

    def _operands(self, X, Y):
        """``_operand`` of X and of Y; the same object twice stays one object."""
        X2 = self._operand(X)
        return X2, X2 if Y is X else self._operand(Y)

    def _values(self, operand, last=None):
        """Values of the basis members up to the cap: (npoints, members).

        A raw array is evaluated through level ``last`` (default: the cap),
        its later columns zero; a ``PointSet`` keeps its own values.
        """
        if isinstance(operand, PointSet):
            return operand.values
        last = self.policy.hard_cap if last is None else last
        return self.basis._values(operand, last)[:, : self._members]

    def _pair(self, X, Y, last=None):
        """Basis values at the operands X and Y, one recurrence sweep for two
        raw arrays, each through level ``last`` as in ``_values``.

        The same object twice gives the same array twice (the square-grid
        path); a ``PointSet`` on either side keeps its own values.
        """
        if Y is X:
            V = self._values(X, last)
            return V, V
        if isinstance(X, PointSet) or isinstance(Y, PointSet):
            return self._values(X, last), self._values(Y, last)
        V = self._values(np.concatenate([X, Y]), last)
        return V[: len(X)], V[len(X):]

    def _last_read(self, g, tail_factor):
        """The last level a sum with weights g reads: the cap where a tail is
        bounded (the envelope reads the last levels), else the last level of
        nonzero weight."""
        if tail_factor != 0.0:
            return self.policy.hard_cap
        nonzero = np.flatnonzero(g)
        return int(nonzero[-1]) if len(nonzero) else 0

    def _per_member(self, g):
        """Level weights (K+1,) repeated over the members of each level."""
        return np.repeat(g, self._level_sizes)

    def _grid(self, X, Y, g, tail_factor):
        """sum_k g_k K_k(x, y) on the operands X and Y, with its tail bound.

        g: (K+1,) level weights, g >= 0 for the heat kernel and for all three
        multiplier profiles.  The product reads the levels 0..L, L the last
        with g_L >= _WEIGHT_FLOOR max g; the later levels through
        ``_last_read`` enter the tail.  The tail is the outer product of the
        ``_weighted`` envelopes E(x) and E(y).  Returns (value, tail), (p, q).
        """
        last = self._last_read(g, tail_factor)
        Vx, Vy = self._pair(X, Y, last)
        L = int(np.flatnonzero(g >= _WEIGHT_FLOOR * g.max())[-1])
        s = sqrt(tail_factor)
        Wx, ex = self._weighted(Vx, g, L, last, s)
        Wy, ey = (Wx, ex) if Vy is Vx else self._weighted(Vy, g, L, last, s)
        # sqrt(g) splits over both factors; with one factor array numpy
        # sends W @ W.T to syrk, exactly symmetric at half the flops
        value = Wx @ Wy.T
        del Wx, Wy  # freed before the tail grid is allocated
        return value, np.multiply.outer(ex, ey)

    def _weighted(self, V, g, L, last, s):
        """The columns of levels 0..L of V times sqrt(g), and the envelope E.

        By Cauchy-Schwarz, |sum_(L<k<=last) g_k K_k(x, y)| <= d(x) d(y) with
        d(x)^2 = sum_(L<k<=last) g_k C_k(x), one product of the squared later
        columns with their weights.  The post-cap bound is s e(x) s e(y)
        (``_envelope``), so both parts are at most E(x) E(y), with
        E = hypot(s e, d): E = s e where no level is dropped, and E = d
        where no tail past the cap is read (s = 0).

        The squares and then the scaled columns go into one buffer of V's
        full width: a product array of the narrower width would be a block
        of a new size on every call, which the C heap keeps and peak RSS
        shows, while a full-width one reuses the block of the last call.
        """
        gm = self._per_member(g)
        M, end = int(self.basis.offsets[L + 1]), int(self.basis.offsets[last + 1])
        buf = np.empty_like(V)
        E = np.sqrt(np.square(V[:, M:end], out=buf[:, M:end]) @ gm[M:end])
        if s:
            E = np.hypot(s * self._envelope(V), E)
        return np.multiply(V[:, :M], np.sqrt(gm[:M]), out=buf[:, :M]), E

    def _envelope(self, V):
        """e(x) = max of sqrt(C_k(x)) over the last six levels, per row of V.

        e(x) e(y) majorizes sqrt(C_k(x) C_k(y)) for every k of the window.
        """
        K = self.policy.hard_cap
        return np.sqrt(np.max([np.sum(V[:, self.basis.level_slice(k)] ** 2, axis=1)
                               for k in range(max(K - _RATIO_WINDOW, 0), K + 1)], axis=0))

    def _heat_tail_factor(self, t, pair):
        """Geometric bound on the post-cap tail; refuses if decay is too flat.

        Eigenvalue increments lambda_(k+1) - lambda_k increase with k, so the
        first post-cap increment gives a rigorous geometric ratio for the
        exponential factor; the level diagonals are majorized by twice their
        maximum over the last levels (slow polynomial growth against
        super-exponential damping).  ``pair()`` gives the values (Vx, Vy)
        through the cap; only the refusal calls it, to name the achievable t.
        """
        K = self.policy.hard_cap
        gap = eigenvalue(self.spec, K + 1) - self.lambdas[K]
        q = np.exp(-gap * t)
        if q > MAX_DECAY_RATIO:
            raise PrecisionError(
                f"t={t:g} is under-resolved for the basis cap {K}: post-cap decay "
                f"ratio {q:.3f} > {MAX_DECAY_RATIO}; epsilon={self.policy.epsilon:g} "
                f"is achievable for t >= {self._achievable_t(*pair()):.4g}"
            )
        return 2.0 * np.exp(-(self.lambdas[K] + gap) * t) / (1.0 - q)

    def _achievable_t(self, Vx, Vy):
        K = self.policy.hard_cap
        sl = self.basis.level_slice(K)
        cmax = float(np.sqrt(np.sum(Vx[:, sl] ** 2, axis=1).max()
                             * np.sum(Vy[:, sl] ** 2, axis=1).max()))
        lam = self.lambdas[K]
        return (log(max(cmax, 1.0) * (K + 1)) - log(self.policy.epsilon)) / lam

    # -- heat kernel --------------------------------------------------------

    def _heat_weights(self, t, pair):
        """Level weights exp(-lambda_k t) and the post-cap tail factor at t.

        Refuses below t_min and when t is under-resolved for the cap; the
        values (Vx, Vy) that ``pair()`` gives only enter the achievable time
        that the second refusal names.
        """
        if not np.isfinite(t):
            raise ParameterError(f"time {t:g} is not a finite number")
        if t < self.policy.t_min:
            raise PrecisionError(
                f"t={t:g} below t_min={self.policy.t_min:g}; the basis cap "
                f"{self.policy.hard_cap} cannot certify this regime"
            )
        return np.exp(-self.lambdas * t), self._heat_tail_factor(t, pair)

    def heat_kernel_grid(self, t, X, Y):
        """Kernel values and tail bounds on a grid: (p, q) arrays."""
        X, Y = self._operands(X, Y)
        return self._grid(X, Y, *self._heat_weights(t, lambda: self._pair(X, Y)))

    def heat_kernel(self, t, x, y):
        """Heat kernel value at one pair; returns (value, tail_bound)."""
        v, b = self.heat_kernel_grid(t, x, y)
        return float(v[0, 0]), float(b[0, 0])

    # -- semigroup-level checks ----------------------------------------------
    #
    # Both checks integrate kernel rows against the quadrature, which is
    # exact for them, and sum the same finite sums member by member: with
    # V the node values and w the weights, the integral over y of
    # sum_m g_m v_m(x) v_m(y) f(y) is (g * v(x)) @ (V.T @ (w * f)).  No
    # (points x nodes) row is built, and no tail: none is read.

    def _nodes(self):
        return self.basis.node_values[:, : self._members]

    def mass_check(self, t, x):
        """integral of e^(tL)(x, .) d(mu); contract: equals 1."""
        return float(self.mass_grid(t, x)[0])

    @cached_property
    def _member_masses(self):
        """w @ V_nodes: the integral of each basis member up to the cap."""
        return self.basis.quad.weights @ self._nodes()

    def mass_grid(self, t, X):
        """mass_check at each point of X: (g * V_x) @ (w @ V_nodes), shape (p,).

        No tail is read, so a raw X is evaluated only through the last level
        of nonzero weight.
        """
        X = self._operand(X)
        g, _ = self._heat_weights(t, lambda: (self._values(X), self._nodes()))
        Vx = self._values(X, self._last_read(g, 0.0))
        return (Vx * self._per_member(g)) @ self._member_masses

    def semigroup_check(self, s, t, x, z):
        """|e^((s+t)L)(x,z) - integral e^(sL)(x,y) e^(tL)(y,z) dmu(y)|.

        The left side is the row product (g_(s+t) * v(x)) @ v(z) over every
        member up to the cap; the integral is
        sum_n w_n (V_nodes (g_s * v(x)))_n (V_nodes (g_t * v(z)))_n.
        """
        nodes = self._nodes()
        Vx, Vz = self._pair(*self._operands(x, z))
        gs, _ = self._heat_weights(s, lambda: (Vx, nodes))
        gt, _ = self._heat_weights(t, lambda: (Vz, nodes))
        g, _ = self._heat_weights(s + t, lambda: (Vx, Vz))
        lhs = (Vx[0] * self._per_member(g)) @ Vz[0]
        row_s = nodes @ (Vx[0] * self._per_member(gs))
        row_t = nodes @ (Vz[0] * self._per_member(gt))
        return abs(float(lhs) - float((row_s * row_t) @ self.basis.quad.weights))

    # -- spectral multipliers -------------------------------------------------

    def multiplier_grid(self, phi: MultiplierSpec, delta, X, Y):
        """Kernel of Phi(delta sqrt(-L)) on a grid; returns (values, tails)."""
        if not 0 < delta < np.inf:  # NaN fails both comparisons
            raise ParameterError(f"delta must be positive and finite, got {delta:g}")
        K = self.policy.hard_cap
        u = delta * np.sqrt(self.lambdas)
        X, Y = self._operands(X, Y)

        if phi.spectral_cutoff is not None:
            if u[K] < phi.spectral_cutoff:
                raise CapacityError(
                    f"band of smooth_bump (support {phi.spectral_cutoff:g}) exceeds the "
                    f"built basis: delta*sqrt(lambda_cap)={u[K]:.3g}; raise delta or the cap"
                )
            tail_factor = 0.0
        elif phi.family == "sinc_power":
            if K < 2:
                raise CapacityError(
                    f"the sinc_power tail bound needs a basis cap >= 2, got {K}; raise the cap")
            tail_factor = _sinc_power_tail_factor(phi.band, delta, K, phi.order)
        else:
            # heat_exp: the heat kernel's post-cap bound at t = delta^2
            tail_factor = self._heat_tail_factor(delta * delta, lambda: self._pair(X, Y))
        return self._grid(X, Y, phi.phi(u), tail_factor)

    def multiplier_kernel(self, phi, delta, x, y):
        v, b = self.multiplier_grid(phi, delta, x, y)
        return float(v[0, 0]), float(b[0, 0])
