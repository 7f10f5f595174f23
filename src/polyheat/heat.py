"""Spectral heat kernels and multiplier kernels with certified tails.

The kernel at time t is the level sum  sum_k exp(-lambda_k t) * K_k(x, y)
where K_k is the reproducing kernel of level k; a multiplier kernel weights
level k by Phi(delta sqrt(lambda_k)) instead.  Every value sums all built
levels in one matrix product.  Its tail is the certified bound on the
levels past the cap: geometric for the heat kernel and heat_exp, the
Fourier envelope for sinc_power, zero for the compactly supported
smooth_bump.  Both bounds use |K_k(x, y)| <= sqrt(C_k(x) C_k(y)) with C_k
the level diagonal.  Evaluations either return an honest (value,
tail_bound) pair or refuse when the requested time is under-resolved for
the basis cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .basis import OrthonormalBasis, eigenvalue
from .domains import INTERVAL
from .errors import CapacityError, ParameterError, PrecisionError

DEFAULT_EPSILON = 1e-10
# Extrapolation beyond the cap trusts a measured geometric decay ratio only
# below this threshold; otherwise the evaluation refuses.
MAX_DECAY_RATIO = 0.9
_RATIO_WINDOW = 5


def default_t_min(spec, cap=None):
    """Smallest admissible time: kind floor raised so lambda_cap * t >= 30."""
    floor = 1e-3 if spec.kind == INTERVAL else 1e-2
    if cap is None:
        return floor
    return max(floor, 30.0 / eigenvalue(spec, cap))


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail target, smallest admissible time, and the level cap.

    Values always sum every level up to the cap; epsilon only sets the
    smallest time that the under-resolved refusal names as achievable.
    """

    epsilon: float
    t_min: float
    hard_cap: int

    def __post_init__(self):
        if self.epsilon <= 0 or self.t_min <= 0:
            raise ParameterError("epsilon and t_min must be positive")


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
        if self.support <= 0 or self.band <= 0 or self.order < 1:
            raise ParameterError("multiplier parameters must be positive")

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

    @property
    def spec(self):
        return self.basis.spec

    # -- core spectral summation -----------------------------------------

    def point_set(self, points):
        """Evaluate the basis at ``points`` once, for reuse across kernel calls."""
        return PointSet(self, self._values(points))

    def _values(self, points):
        """Values of the basis members up to the cap: (npoints, members)."""
        if isinstance(points, PointSet):
            if points.owner is not self:
                raise ParameterError("the point set was evaluated by another evaluator")
            return points.values
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.basis.evaluate(pts)[:, : self._members]

    def _node_values(self, quad):
        if quad is None:
            return self.basis.quad, self.basis.node_values[:, : self._members]
        return quad, self._values(quad.nodes)

    def _sum(self, g, tail_factor, Vx, Vy):
        """sum_k g_k K_k(x, y) over every built level, with the post-cap tail.

        g: (K+1,) level weights; Vx/Vy: basis values up to the cap (the same
        array for a square grid).  The tail is tail_factor times the window
        maximum of sqrt(C_k(x) C_k(y)).  Returns (value, tail) of shape (p, q).
        """
        K = self.policy.hard_cap
        # g >= 0 for the heat kernel and for all three multiplier profiles,
        # so sqrt(g) splits over both factors; with one factor array numpy
        # sends W @ W.T to syrk, exactly symmetric at half the flops.
        sg = np.repeat(np.sqrt(g), np.diff(self.basis.offsets[: K + 2]))
        Wx = Vx * sg
        value = Wx @ (Wx if Vy is Vx else Vy * sg).T
        del Wx  # freed before the two tail buffers are allocated
        if tail_factor == 0.0:
            return value, np.zeros_like(value)
        tail = self._window_max(Vx, Vy)
        tail *= tail_factor
        return value, tail

    def _window_max(self, Vx, Vy):
        """max of sqrt(C_k(x) C_k(y)) over the last levels, in one (p, q) buffer."""
        K = self.policy.hard_cap
        out = tmp = None
        for k in range(max(K - _RATIO_WINDOW, 0), K + 1):
            sl = self.basis.level_slice(k)
            sx = np.sqrt(np.sum(Vx[:, sl] ** 2, axis=1))
            sy = sx if Vy is Vx else np.sqrt(np.sum(Vy[:, sl] ** 2, axis=1))
            if out is None:
                out = np.multiply.outer(sx, sy)
                tmp = np.empty_like(out)
            else:
                np.maximum(out, np.multiply.outer(sx, sy, out=tmp), out=out)
        return out

    def _heat_tail_factor(self, t, Vx, Vy):
        """Geometric bound on the post-cap tail; refuses if decay is too flat.

        Eigenvalue increments lambda_(k+1) - lambda_k increase with k, so the
        first post-cap increment gives a rigorous geometric ratio for the
        exponential factor; the level diagonals are majorized by twice their
        maximum over the last levels (slow polynomial growth against
        super-exponential damping).
        """
        K = self.policy.hard_cap
        gap = eigenvalue(self.spec, K + 1) - self.lambdas[K]
        q = np.exp(-gap * t)
        if q > MAX_DECAY_RATIO:
            raise PrecisionError(
                f"t={t:g} is under-resolved for the basis cap {K}: post-cap decay "
                f"ratio {q:.3f} > {MAX_DECAY_RATIO}; epsilon={self.policy.epsilon:g} "
                f"is achievable for t >= {self._achievable_t(Vx, Vy):.4g}"
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

    def _heat(self, t, Vx, Vy):
        if t < self.policy.t_min:
            raise PrecisionError(
                f"t={t:g} below t_min={self.policy.t_min:g}; the basis cap "
                f"{self.policy.hard_cap} cannot certify this regime"
            )
        return self._sum(np.exp(-self.lambdas * t), self._heat_tail_factor(t, Vx, Vy), Vx, Vy)

    def heat_kernel_grid(self, t, X, Y):
        """Kernel values and tail bounds on a grid: (p, q) arrays."""
        Vx = self._values(X)
        return self._heat(t, Vx, Vx if Y is X else self._values(Y))

    def heat_kernel(self, t, x, y):
        """Heat kernel value at one pair; returns (value, tail_bound)."""
        v, b = self.heat_kernel_grid(t, x, y)
        return float(v[0, 0]), float(b[0, 0])

    # -- semigroup-level checks ----------------------------------------------

    def mass_check(self, t, x, quad=None):
        """integral of e^(tL)(x, .) d(mu); contract: equals 1."""
        return float(self.mass_grid(t, x, quad)[0])

    def mass_grid(self, t, X, quad=None):
        """mass_check at each point of X in one kernel sum: (p,)."""
        quad, nodes = self._node_values(quad)
        rows, _ = self._heat(t, self._values(X), nodes)
        return rows @ quad.weights

    def semigroup_check(self, s, t, x, z, quad=None):
        """|e^((s+t)L)(x,z) - integral e^(sL)(x,y) e^(tL)(y,z) dmu(y)|."""
        quad, nodes = self._node_values(quad)
        Vx, Vz = self._values(x), self._values(z)
        row_s, _ = self._heat(s, Vx, nodes)
        row_t, _ = self._heat(t, Vz, nodes)
        lhs, _ = self._heat(s + t, Vx, Vz)
        return abs(float(lhs[0, 0]) - float((row_s[0] * row_t[0]) @ quad.weights))

    # -- spectral multipliers -------------------------------------------------

    def multiplier_grid(self, phi: MultiplierSpec, delta, X, Y):
        """Kernel of Phi(delta sqrt(-L)) on a grid; returns (values, tails)."""
        if delta <= 0:
            raise ParameterError("delta must be positive")
        K = self.policy.hard_cap
        u = delta * np.sqrt(self.lambdas)
        Vx = self._values(X)
        Vy = Vx if Y is X else self._values(Y)

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
            m = phi.order
            env = (2.0 / (phi.band * delta)) ** (2 * m)
            tail_factor = 2.0 * env * (K - 1.0) ** (1 - 2 * m) / (2 * m - 1)
        else:
            # heat_exp: the heat kernel's post-cap bound at t = delta^2
            tail_factor = self._heat_tail_factor(delta * delta, Vx, Vy)
        return self._sum(phi.phi(u), tail_factor, Vx, Vy)

    def multiplier_kernel(self, phi, delta, x, y):
        v, b = self.multiplier_grid(phi, delta, x, y)
        return float(v[0, 0]), float(b[0, 0])
