"""Metric-ball volumes V(x, r) and their closed-form comparability surrogates.

The lift of ``spec.lift`` maps the ball onto the upper hemisphere of S^n
and the simplex onto the positive orthant (x_i = y_i^2), so rho(x, y) < r
exactly when lift(x) . lift(y) > cos r, and the metric ball is a spherical
cap cut by the faces.  On the sphere the weighted measure has the density
step^n prod |y_i|^(2 kappa_i) against surface measure: y_(n+1)^(2 gamma) on
the ball, 2^n prod y_i^(2 kappa_i) on the simplex.

* Dimension 1: the arc integral of the Jacobi weight by Gauss-Jacobi and
  Gauss-Legendre rules, to about 1e-13 relative; see ``_interval_volumes``.
  ball(1, g) is interval(g - 1/2, g - 1/2), and simplex(1, k) is
  interval(k_2 - 1/2, k_1 - 1/2) at x = 2u - 1 with distances halved; see
  ``_line_volumes``.
* Simplex(2): quadrature in geodesic polar coordinates (theta, phi) about
  lift(x), per phi panel; see ``_cap_volumes``.
* Ball(n >= 2) and simplex(n >= 3): slices of the lifted sphere along
  y_(n+1) = cos phi, one phi-integral a query with closed-form breaks; a
  ball slice is a cap of S^(n-1), a simplex(n) slice a cap of
  simplex(n - 1); see ``_slice_volumes``.

Outside dimension 1 the stderr is the difference of two rule orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acos, exp, lgamma, log, pi, sin, tan

import numpy as np

from .domains import (
    BALL,
    SIMPLEX,
    DomainSpec,
    _face_kappa,
    _margins,
    _require_inside,
    _rows,
    interval_parameters,
    lift_rows,
    total_mass,
)
from .errors import CapacityError, DomainError, PrecisionError
from .quadrature import MAX_NODES, gauss_jacobi

# the largest stderr, as a fraction of V, that the validation scans accept
MAX_REL_STDERR = 0.05
# cap quadrature, (low, high) orders: (trapezoid nodes in phi around a
# periodic panel, Gauss nodes in theta, digits asked of a face panel in phi,
# least Gauss nodes in phi on a panel); at most CAP_PHI_MAX nodes in phi
CAP_ORDERS = ((24, 8, 10, 8), (32, 12, 15, 16))
CAP_PHI_MAX = 64
# integrand values per array pass of the cap quadrature (256 kB of float64)
CAP_CHUNK = 1 << 15
# Gauss nodes per piece of an interval arc; a piece's nearest singularity
# lies at least its own length away (Bernstein ellipse 3 + sqrt 8), so the
# rule errs by about (3 + sqrt 8)^(-2 ARC_NODES) = 4e-19
ARC_NODES = 12
# slice quadrature, (low, high) Gauss nodes in phi on a panel
SLICE_ORDERS = (16, 24)
# grading levels toward a singular point just outside a slice panel: cuts
# (4^j - 1) delta from the end reach across a panel 1.8e16 delta long
GRADE_LEVELS = 27
# the most innermost rows of one slice pass: a ball query holds about 10 kB
# at its peak; a simplex(3) query, nominally 600 simplex(2) caps, goes alone
VOLUME_PASS = 128


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    method: str  # "exact1d" | "cap_quadrature" | "slice_quadrature"
    samples: int  # always 0: no volume is sampled


def volume_surrogate(spec, x, r):
    """Closed-form comparability surrogate for V(x, r); no normalizing constant:
    r^n times (b_i + r^2)^kappa_i over the faces, b the defining coordinates."""
    x = _require_inside(spec, x)
    if not 0 < r <= pi:
        raise DomainError("surrogate radius must lie in (0, pi]")
    out = r ** spec.n
    for b, k in zip(_margins(spec, x[None, :])[0].tolist(), _face_kappa(spec)):
        out *= (b + r * r) ** k
    return float(out)


def _method(spec):
    if spec.n == 1:
        return "exact1d"
    return "cap_quadrature" if (spec.kind, spec.n) == (SIMPLEX, 2) else "slice_quadrature"


def _diameter(spec):
    """The largest distance between two points: scale pi / step."""
    return spec.lift.scale * pi / spec.lift.step


@lru_cache(maxsize=16)
def _arc_rules(alpha, beta):
    """Read-only (U, W, E, F) of the six arc pieces, row kind + 3 side.

    Kinds: Gauss-Jacobi on [0, h], the same negated on [0, l], and
    Gauss-Legendre on [l, h]; side 0 has the exponents (alpha, beta), side 1
    (beta, alpha).  U = (1 + x)/2 at the nodes x.  A Jacobi rule takes
    t^(2e+1) into its weight; its weights are divided by (1 + x)^(2e+1) here,
    so that every piece sums W * sin^E(t/2) cos^(2F)(t/2), E = 2e+1, F = f+1/2.
    """
    x, w = gauss_jacobi(ARC_NODES, 0.0, 0.0)
    U, W, E, F = [], [], [], []
    for e, f in ((alpha, beta), (beta, alpha)):
        xj, wj = gauss_jacobi(ARC_NODES, 0.0, 2 * e + 1)
        wj = wj / (1 + xj) ** (2 * e + 1)
        U += [(1 + xj) / 2, (1 + xj) / 2, (1 + x) / 2]
        W += [wj, -wj, w]
        E += [2 * e + 1] * 3
        F += [f + 0.5] * 3
    tables = np.array(U), np.array(W), np.array(E)[:, None], np.array(F)[:, None]
    for t in tables:
        t.flags.writeable = False
    return tables


def _by_radius(fn, r):
    """fn of each row's radius in the array r, called once per distinct radius.

    math.sin of a float and numpy's array loops can differ in the last bit,
    so sin r and tan r are taken by math, exactly as for a one-point query.
    """
    radii, which = np.unique(r, return_inverse=True)
    return np.array([fn(s) for s in radii.tolist()])[which]


def _line_volumes(spec, xs, r):
    """V(x, r) on a one-dimensional domain for points xs (m,) and their
    radii r (m,), one a row, below the diameter: ``_interval_volumes`` of
    its ``interval_parameters``, on simplex(1) at x = 2u - 1 and radius 2r
    times 2^-(a + b + 1)."""
    a, b = interval_parameters(spec)
    if spec.kind != SIMPLEX:
        return _interval_volumes(a, b, xs, r)
    return 2.0 ** -(a + b + 1) * _interval_volumes(a, b, 2 * xs - 1, 2 * r)


def _interval_volumes(a, b, xs, r):
    """Exact V(x, r) on interval(a, b) for points xs (m,) and their radii
    r (m,), one a row, 0 < r < pi.

    V = 2^(a+b+1) times the integral of sin^(2a+1)(t/2) cos^(2b+1)(t/2) over
    the arc [max(0, theta - r), min(pi, theta + r)], theta = acos x.  The arc
    is cut at pi/2 and its right part mirrored (t -> pi - t swaps a and b),
    so each part [l, h] = [max(0, c - r), min(pi/2, c + r)] lies in
    [0, pi/2] with its only singular end at 0; c is theta for the left part
    and pi - theta for the right one, both from acos |x|, which keeps the
    end near x = -1 exact.  A part with l <= h/2 is H(h) - H(l), H(p) the
    integral from 0 by Gauss-Jacobi; H(0) = 0 is no piece at all.  Any other
    part is one Gauss-Legendre sum on [l, h], whose nearest singularity lies
    at least one part-length away.  All pieces go through one (pieces x
    nodes) pass, and np.bincount adds each row's pieces in a fixed order.
    """
    U, W, E, F = _arc_rules(a, b)
    # one math.acos a row, as domains.distance takes it: np.arccos's SIMD
    # loop differs from it in the last bit on some points
    near = np.fromiter(map(acos, np.minimum(np.abs(xs), 1.0).tolist()), float, len(xs))
    c = np.concatenate([near, pi - near])
    r = np.concatenate([r, r])
    # x < 0 puts pi - theta near: that part has the exponents (b, a)
    flip = xs < 0
    side = np.concatenate([flip, ~flip])
    h = np.minimum(c + r, pi / 2)
    l = np.maximum(c - r, 0.0)
    jacobi = l <= h / 2
    # pieces H(h), -H(l) and Gauss-Legendre on [l, h]; an empty part has none
    kind, part = np.nonzero([jacobi, jacobi & (l > 0), ~jacobi & (l < h)])
    rule = kind + 3 * side[part]
    # a piece runs over [0, h], [0, l] or [l, h]; its nodes are lo + (hi - lo) U
    lo = np.where(kind == 2, l[part], 0.0)
    hi = np.where(kind == 1, l[part], h[part])
    half = (hi - lo) / 2
    S = np.sin(lo[:, None] / 2 + half[:, None] * U[rule])
    # sin^E(t/2) cos^(2F)(t/2), with cos^2 = 1 - sin^2 >= 1/2 for t <= pi/2
    f = np.exp(E[rule] * np.log(S) + F[rule] * np.log(1 - S * S))
    V = np.bincount(part % len(xs), half * np.einsum("ij,ij->i", W[rule], f),
                    minlength=len(xs))
    return 2.0 ** (a + b + 1) * V


# ---------------------------------------------------------------------------
# cap quadrature on simplex(2); it also takes ball(2), as a cross-check


def _tangent_frames(Y):
    """Orthonormal (E1, E2) spanning the tangent plane at each unit row of Y."""
    axis = np.zeros_like(Y)
    axis[np.arange(len(Y)), np.argmin(np.abs(Y), axis=1)] = 1.0
    E1 = np.cross(Y, axis)
    E1 /= np.linalg.norm(E1, axis=1, keepdims=True)
    return E1, np.cross(Y, E1)


def _exit_angles(Yf, Uf):
    """(theta_i, A_i) with y_i = A_i sin(theta_i - theta) along the geodesic
    cos(theta) y + sin(theta) u, for face coordinates Yf of y and Uf of u."""
    return np.arctan2(Yf, -Uf), np.hypot(Yf, Uf)


def _cap_panels(spec, Y, E1, E2, r):
    """The phi-panels of every cap, r the radius of each query: arrays
    (query, start, end, exit face, periodic, rho).

    A cap that touches no face (r < pi/2 and every face coordinate
    y_i > sin r), or one whose exit angles theta_i(phi) never cross r, is
    one periodic panel.  Otherwise phi is split where the exit face changes
    (the direction of a vertex, where more than one face meets) and where
    the exit angle of face i crosses r.  The exit face is -1 on a panel
    whose rays all reach r inside the domain.  Panels are ordered by query,
    then by start.  ``rho`` sets the Gauss order of a panel out to a face.
    """
    faces = list(spec.lift.faces)
    Yf = Y[:, faces]
    # u_i(phi) = B_i cos(phi - psi_i): psi_i is also the direction of vertex e_i
    psi = np.arctan2(E2[:, faces], E1[:, faces])
    B = np.hypot(E1[:, faces], E2[:, faces])
    clear = (r < pi / 2) & (Yf.min(axis=1) > _by_radius(sin, r))
    # the breaks of the caps that touch a face
    cut = np.flatnonzero(~clear)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -Yf[cut] / (_by_radius(tan, r[cut])[:, None] * B[cut])
    half = np.where(np.abs(c) < 1.0, np.arccos(np.clip(c, -1.0, 1.0)), np.nan)
    breaks = [psi[cut] - half, psi[cut] + half] + ([psi[cut]] if len(faces) > 1 else [])
    S = np.sort(np.mod(np.hstack(breaks), 2 * pi), axis=1)
    count = np.count_nonzero(np.isfinite(S), axis=1)
    periodic = clear.copy()
    periodic[cut] = count == 0

    # GL panels: consecutive breaks, the last one wrapping around to the
    # first; a repeated break (a point on a face) makes no panel
    rows, slot = np.nonzero(np.arange(S.shape[1]) < count[:, None])
    last = slot + 1 == count[rows]
    start = S[rows, slot]
    end = np.where(last, S[rows, 0] + 2 * pi, S[rows, np.where(last, 0, slot + 1)])
    keep = end > start
    rows, start, end = cut[rows[keep]], start[keep], end[keep]
    # a periodic panel, [0, 2 pi), is its query's only panel
    prow = np.flatnonzero(periodic)
    query = np.concatenate([prow, rows])
    start = np.concatenate([np.zeros(len(prow)), start])
    end = np.concatenate([np.full(len(prow), 2 * pi), end])
    is_periodic = np.concatenate([np.ones(len(prow), bool), np.zeros(len(rows), bool)])
    order = np.argsort(query, kind="stable")
    query, start, end, is_periodic = query[order], start[order], end[order], is_periodic[order]

    # the exit face at each panel's middle; -1 where it lies beyond r
    mid = 0.5 * (start + end)
    U = np.cos(mid)[:, None] * E1[query] + np.sin(mid)[:, None] * E2[query]
    exit_theta, _ = _exit_angles(Yf[query], U[:, faces])
    face = np.argmin(exit_theta, axis=1)
    face[exit_theta[np.arange(len(face)), face] >= r[query]] = -1
    face[clear[query]] = -1

    # on a Gauss panel out to face j the exit angle is analytic in phi but
    # for branch points at psi_j + pi/2 + k pi +- i asinh(y_j / B_j), where
    # u_j = +-i y_j; rho is the Bernstein ellipse of the panel through the
    # nearest one, and Gauss-Legendre with n nodes errs by about rho^(-2n)
    rho = np.full(len(query), np.inf)
    sel = np.flatnonzero(~is_periodic & (face >= 0))
    q, j = query[sel], face[sel]
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.arcsinh(Yf[q, j] / B[q, j])
        half = (end[sel] - start[sel]) / 2
        k = np.round((mid[sel] - psi[q, j] - pi / 2) / pi)
        for dk in (-1, 0, 1):
            w = (psi[q, j] + pi / 2 + (k + dk) * pi + 1j * eta - mid[sel]) / half
            root = np.sqrt(w * w - 1)
            rho[sel] = np.fmin(rho[sel], np.maximum(np.abs(w + root), np.abs(w - root)))
    return query, start, end, face, is_periodic, rho


def _phi_rule(start, end, k, periodic):
    """Nodes and weights in phi, one row of k a panel [start, end): the
    trapezoid rule around a periodic panel, Gauss-Legendre on the others."""
    if periodic:
        t, wt = np.arange(k) / k, np.full(k, 1.0 / k)
    else:
        x, wx = gauss_jacobi(k, 0.0, 0.0)
        t, wt = (1 + x) / 2, wx / 2
    width = (end - start)[:, None]
    return start[:, None] + width * t, width * wt


def _row_sum(a):
    """The sum over the first axis of a, in the order np.sum adds up one
    contiguous row (numpy's pairwise summation: a row of more than 128 as
    two halves; otherwise eight running sums, their pairwise total, then
    the rest one by one), so that each entry has the bits of that np.sum."""
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(a[:half]) + _row_sum(a[half:])
    if n < 8:
        return sum(a, 0.0)
    r = list(a[:8])
    top = n - n % 8
    for i in range(8, top, 8):
        r = [r[k] + a[i + k] for k in range(8)]
    return sum(a[top:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _reach_sums(spec, Y, E1, E2, r, query, phi, w, n_theta):
    """The integral of each panel out to r: the density times sin(theta)
    over theta in [0, r] and phi over the panel, whose (k,) phi nodes and
    weights are row p of phi and w (or their only row, shared by every
    panel) and whose query is query[p].

    Theta takes Gauss-Legendre on [0, r].  One broadcast pass over (theta
    node, panel, phi node), in chunks of at most CAP_CHUNK integrand values,
    gives the face coordinates y_i = cos(theta) Y_i + sin(theta) u_i(phi).
    Theta is summed in the order of a contiguous row and phi in that of
    np.add.reduceat over one panel, so a panel's sum does not depend on the
    others or on the chunks.
    """
    faces = list(spec.lift.faces)
    expo = [2.0 * k for k in _face_kappa(spec)]
    Yf, E1f, E2f = Y[:, faces], E1[:, faces], E2[:, faces]
    x, wt = gauss_jacobi(n_theta, 0.0, 0.0)
    t = (1 + x) / 2
    k = phi.shape[1]
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    sums = np.empty(len(query))
    step = max(1, CAP_CHUNK // (n_theta * k * len(faces)))
    for lo in range(0, len(query), step):
        p = np.arange(lo, min(lo + step, len(query)))
        q = query[p]
        rad = r[q]
        theta = t[:, None, None] * rad[:, None]
        c, s = np.cos(theta), np.sin(theta)
        sw = s * wt[:, None, None]
        # the rows of phi and w that serve these panels
        at = p if len(phi) > 1 else slice(None)
        f, log_f = sw, None
        for i, e in enumerate(expo):
            if e == 0.0:
                continue
            # each product is a new array, so the passes run in place
            y = (E1f[q, i, None] * cos_phi[at] + E2f[q, i, None] * sin_phi[at]) * s
            y += Yf[q, i, None] * c
            # exponent 1 (kappa = 1/2) multiplies
            if e == 1.0:
                y *= f
                f = y
            else:
                y = np.log(y, out=y)
                y *= e
                log_f = y if log_f is None else np.add(log_f, y, out=log_f)
        if log_f is not None:
            log_f = np.exp(log_f, out=log_f)
            log_f *= f
            f = log_f
        if f is sw:
            # every exponent 0: the density multiplies nothing
            f = np.broadcast_to(sw, (n_theta, len(p), k))
        wg = w[at] * (_row_sum(f) * (rad / 2)[:, None])
        sums[p] = wg[:, 0] + wg[:, 1:].sum(axis=1)
    return sums


def _theta_integrals(spec, Yq, E1q, E2q, phi, face, n_theta):
    """Integral over theta in [0, T] of density * sin(theta) along each phi;
    entry i belongs to query Yq[i] and leaves the domain through face[i] at
    T, the exit angle theta_j of that face.

    Gauss-Jacobi takes the factor (T - theta)^(2 kappa_j) of the density
    into its weight, and the face coordinates are A_i sin(theta_i - theta),
    exact near the exit.
    """
    faces = list(spec.lift.faces)
    expo = [2.0 * k for k in _face_kappa(spec)]
    U = np.cos(phi)[:, None] * E1q + np.sin(phi)[:, None] * E2q
    exit_theta, A = _exit_angles(Yq[:, faces], U[:, faces])
    rules = [gauss_jacobi(n_theta, e, 0.0) for e in expo]
    x = np.array([x for x, _ in rules])[face]
    w = np.array([w for _, w in rules])[face]
    e_exit = np.array(expo)[face][:, None]
    T = exit_theta[np.arange(len(face)), face][:, None]
    theta = T * ((1 + x) / 2)
    f = np.sin(theta) * w
    log_f = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, e in enumerate(expo):
            # exponent 0 leaves the density alone; 1 (kappa = 1/2) multiplies
            if e == 0.0:
                continue
            y = A[:, i, None] * np.sin(exit_theta[:, i, None] - theta)
            if e == 1.0:
                f = f * y
            else:
                log_f = log_f + e * np.log(y)
        # the exit face's (T - theta)^e is the rule's weight: divide it out,
        # row by row, so that a row's bits do not depend on the others
        d = T * ((1 - x) / 2)
        f = f / np.where(e_exit == 1.0, d, 1.0)
        other = (e_exit != 0.0) & (e_exit != 1.0)
        if other.any():
            log_f = log_f - np.where(other, e_exit * np.log(d), 0.0)
        if not np.isscalar(log_f):
            f = f * np.exp(log_f)
        g = f.sum(axis=1)
        # T = 0 (a point on a face) has weight 0 and a 0/0 integrand
        scale = ((T / 2) ** (1.0 + e_exit))[:, 0]
        return np.where(scale > 0, g * scale, 0.0)


def _cap_sums(spec, Y, E1, E2, r, panels, order):
    """The cap integral of every query, r its radius, under one rule order.

    The panels out to r go through ``_reach_sums``: the periodic ones share
    one trapezoid table of n_trap nodes, and the Gauss ones have ``least``
    nodes each (rho is infinite).  The panels out to a face go through one
    flat array pass over all their phi nodes, in chunks of CAP_CHUNK
    integrand values, and np.add.reduceat sums each panel.  np.bincount adds
    each query's panels in a fixed order, so a query's sum does not depend
    on the others.
    """
    n_trap, n_theta, digits, least = order
    query, start, end, face, periodic, rho = panels
    sums = np.empty(len(query))
    for kind, k in ((True, n_trap), (False, least)):
        sel = np.flatnonzero((face < 0) & (periodic == kind))
        if len(sel):
            # a periodic panel is [0, 2 pi): one table serves them all
            rows = sel[:1] if kind else sel
            phi, w = _phi_rule(start[rows], end[rows], k, kind)
            sums[sel] = _reach_sums(spec, Y, E1, E2, r, query[sel], phi, w, n_theta)
    sel = np.flatnonzero(face >= 0)
    if len(sel):
        # Gauss nodes in phi: enough for ``digits`` on a panel out to a
        # face, a multiple of 8 in [least, CAP_PHI_MAX]
        with np.errstate(divide="ignore"):
            need = 8 * np.ceil(digits * np.log(10) / (16 * np.log(rho[sel])))
        kinds = periodic[sel]
        n = np.where(kinds, n_trap, np.fmin(np.fmax(need, least), CAP_PHI_MAX)).astype(int)
        first = np.cumsum(n) - n
        phi, w = np.empty(n.sum()), np.empty(n.sum())
        for kind, k in set(zip(kinds.tolist(), n.tolist())):
            group = np.flatnonzero((kinds == kind) & (n == k))
            at = first[group, None] + np.arange(k)
            phi[at], w[at] = _phi_rule(start[sel[group]], end[sel[group]], k, kind)
        node = np.repeat(sel, n)
        g = np.empty(len(phi))
        step = CAP_CHUNK // (n_theta * len(spec.lift.faces))
        for lo in range(0, len(phi), step):
            part = slice(lo, lo + step)
            q = query[node[part]]
            g[part] = _theta_integrals(spec, Y[q], E1[q], E2[q], phi[part], face[node[part]],
                                       n_theta)
        sums[sel] = np.add.reduceat(w * g, first)
    return np.bincount(query, sums, minlength=len(Y))


def _cap_volumes(spec, X, r):
    """(V, stderr) for the rows X (m, 2) of simplex(2) (or ball(2)) points
    and their radii r (m,), one a row.

    In geodesic polar coordinates (theta, phi) about y = Y[q], the geodesic
    cos(theta) y + sin(theta) u(phi) meets face i (y_i = 0) at theta_i(phi),
    where y_i = A_i sin(theta_i - theta), both in closed form.  V is the
    integral over phi of the density integrated over theta in
    [0, min(r, exit angle)], per phi-panel (``_cap_panels``): the trapezoid
    rule in phi around a periodic panel and Gauss-Legendre on the others,
    times Gauss-Legendre up to r or Gauss-Jacobi up to the exit face
    (``_cap_sums``).  Every query's sum runs in the same order whatever the
    other rows, so a row's value does not depend on the batch or on the
    radii of the other rows.  The stderr is |V_high - V_low| over
    ``CAP_ORDERS``.
    """
    Y = lift_rows(spec, X)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    E1, E2 = _tangent_frames(Y)
    panels = _cap_panels(spec, Y, E1, E2, r)
    low, high = (_cap_sums(spec, Y, E1, E2, r, panels, order) for order in CAP_ORDERS)
    const = float(spec.lift.step ** spec.n)   # dx = step^n prod y_i dsigma
    return const * high, const * np.abs(high - low)


# ---------------------------------------------------------------------------
# slices of the lifted sphere: ball(n >= 2) and simplex(n >= 3)


@lru_cache(maxsize=32)
def _slice_rules(alpha, beta, k):
    """Read-only (W, G, D, E) of the four piece kinds 2 * (lo is 0) + (hi is
    pi/2), one row each on k Gauss nodes s in (0, 1).

    A piece [lo, hi] is lo + (hi - lo) g(s), G = g, D = g', E = 1 - g.  Any
    other end takes a quadratic substitution (g = s^2 at lo, 1 - (1 - s)^2
    at hi), which makes the square-root end of a slice smooth; 0 takes
    s^beta and pi/2 takes (1 - s)^alpha into the Gauss-Jacobi weight, and W
    is divided by that factor: every piece sums W D cos^alpha sin^beta.
    """
    rows = []
    for lo_zero, hi_end in np.ndindex(2, 2):
        x, w = gauss_jacobi(k, alpha * hi_end, beta * lo_zero)
        s, t = (1 + x) / 2, (1 - x) / 2
        g, d, e = {(0, 0): (s * s * (3 - 2 * s), 6 * s * t, t * t * (1 + 2 * s)),
                   (0, 1): (s * s, 2 * s, t * (1 + s)),
                   (1, 0): (s * (2 - s), 2 * t, t * t),
                   (1, 1): (s, np.ones(k), t)}[lo_zero, hi_end]
        a, b = alpha * hi_end, beta * lo_zero
        rows.append((w * 0.5 ** (a + b + 1) / (t ** a * s ** b), g, d, e))
    tables = tuple(np.array(column) for column in zip(*rows))
    for table in tables:
        table.flags.writeable = False
    return tables


def _slice_panels(spec, X, r):
    """The phi-pieces of every query (query, lo, hi, kind), by query and
    then lo, and the lifted rows' last coordinate a and the norm b of the rest.

    The slice cap about u = y'/|y'| changes form where its radius has cosine
    C: on the ball it is empty, partial or the whole sphere (C = 1, -1); on
    the simplex it starts (C = 1), and touches the face where the
    coordinates of a non-empty proper subset S vanish, or takes in a vertex
    (S all but one), at radius asin |u_S|, C = |u_(rest)|.  Then
    cos r = a cos phi + b C sin phi = R cos(phi - psi) at
    phi = psi +- acos(cos r / R) (phi_x +- r, -phi_x +- r where C = +-1).
    The breaks in (0, pi/2) cut [0, pi/2] into panels.  A panel whose
    nearest singular point beyond an end (a break outside, 0 or pi/2) lies
    delta < L/4 away, L its length, is cut at (4^j - 1) delta from that end
    while the cut lies 4^(j-1) delta short of the other: each piece then
    lies a quarter of its length or more from the singular points outside it.
    """
    m = len(X)
    Y = lift_rows(spec, X)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    a, b = Y[:, -1], np.linalg.norm(Y[:, :-1], axis=1)
    if spec.kind == BALL:
        C = np.tile([1.0, -1.0], (m, 1))
    else:
        subsets = (np.arange(1, 2 ** spec.n - 1)[:, None] >> np.arange(spec.n)) & 1
        u2 = Y[:, :-1] ** 2 / np.fmax(b * b, np.finfo(float).tiny)[:, None]
        # |u_S|^2 column by column, so that a row's bits do not depend on the others
        C = np.hstack([np.ones((m, 1)), np.sqrt(sum(u2[:, [i]] * subsets[:, i]
                                                    for i in range(spec.n)))])
    R, psi = np.hypot(a[:, None], b[:, None] * C), np.arctan2(b[:, None] * C, a[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(np.abs(C) == 1.0, r[:, None], np.arccos(np.cos(r)[:, None] / R))
    # every singular point sorted, a repeat moved to the end as inf
    points = np.sort(np.hstack([np.full((m, 1), -np.inf), np.zeros((m, 1)), psi - omega,
                                psi + omega, np.full((m, 1), pi / 2)]), axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.nan
    points = np.sort(np.where(np.isnan(points), np.inf, points), axis=1)
    points = np.hstack([points, np.full((m, 1), np.inf)])
    query, col = np.nonzero((points[:, 1:-2] >= 0) & (points[:, 2:-1] <= pi / 2))
    lo, hi = points[query, col + 1], points[query, col + 2]
    below, above = (lo - points[query, col])[:, None], (points[query, col + 3] - hi)[:, None]
    steps = 4.0 ** np.arange(1, GRADE_LEVELS + 1) - 1
    reach, length = 1.25 * steps + 0.25, (hi - lo)[:, None]
    cuts = np.hstack([np.where(reach * below < length, lo[:, None] + steps * below, hi[:, None]),
                      np.where(reach * above < length, hi[:, None] - steps * above, hi[:, None])])
    ends = np.sort(np.hstack([lo[:, None], cuts, hi[:, None]]), axis=1)
    panel, piece = np.nonzero(ends[:, 1:] > ends[:, :-1])
    start, stop = ends[panel, piece], ends[panel, piece + 1]
    return query[panel], start, stop, 2 * (start == 0.0) + (stop == pi / 2), a, b


def _cap_areas(n, p, q):
    """The area of the cap <w, u> > c of S^(n-1), from p = 1 - c, q = 1 + c:
    2 acos c = 4 atan2(sqrt p, sqrt q) on S^1 and 2 pi p on S^2.

    Above that it is |S^(n-2)| times the integral of (1 - t^2)^(m/2) over
    [c, 1], m = n - 3, which t = c + p (1 + x)/2 makes (p/2)^(m/2 + 1)
    times that of (1 - x)^(m/2) (q + p (1 + x)/2)^(m/2) over [-1, 1]:
    Gauss-Jacobi, whose integrand is analytic out to x = -3 when p <= q.  A
    cap with c < 0 is the sphere less the cap of -c, which swaps p and q."""
    if n < 4:
        return 4 * np.arctan2(np.sqrt(p), np.sqrt(q)) if n == 2 else 2 * pi * p
    area = [2 * exp((k + 1) / 2 * log(pi) - lgamma((k + 1) / 2)) for k in (n - 2, n - 1)]
    x, w = gauss_jacobi(ARC_NODES, (n - 3) / 2, 0.0)
    lo, hi = np.fmin(p, q), np.fmax(p, q)
    inner = ((hi[..., None] + lo[..., None] * ((1 + x) / 2)) ** ((n - 3) / 2) * w).sum(axis=-1)
    part = area[0] * (lo / 2) ** ((n - 1) / 2) * inner
    return np.where(p <= q, part, area[1] - part)


def _slice_volumes(spec, X, r):
    """(V, stderr) for the rows X (m, n) of ball(n >= 2) or simplex(n >= 3)
    points and their radii r (m,), one a row.

    With y = (sin phi w, cos phi), w on S^(n-1), the cap about
    lift(x) = (b u, a) cuts slice phi in the cap <w, u> > c(phi) =
    (cos r - a cos phi) / (b sin phi), so V is the integral over [0, pi/2]
    of cos^alpha sin^beta phi G(phi), alpha = 2 kappa_(n+1),
    beta = n - 1 + 2 (kappa_1 + ... + kappa_n), G the slice cap's area (ball)
    or step times its volume on simplex(n - 1, kappa_1..kappa_n) at u^2
    (simplex).  1 -+ c are products of sines, exact near c = +-1.  Every
    piece (``_slice_panels``) takes both SLICE_ORDERS; the stderr is
    |V_high - V_low| and 16 ulp of V, plus on the simplex the slices' stderr
    integrated along phi.  A query is summed in an order of its own rows only.
    """
    kappa = spec.lift.kappa
    alpha, beta = 2 * kappa[-1], spec.n - 1 + 2 * sum(kappa[:-1])
    query, lo, hi, kind, a, b = _slice_panels(spec, X, r)
    W, G, D, E = (np.hstack(t)[kind] for t in zip(*(_slice_rules(alpha, beta, k)
                                                    for k in SLICE_ORDERS)))
    L = (hi - lo)[:, None]
    phi = lo[:, None] + L * G
    # cos^alpha sin^beta, cos phi = sin(pi/2 - phi) exact near pi/2
    f = np.log(np.sin((pi / 2 - hi)[:, None] + L * E)) * alpha
    f += np.log(np.sin(phi)) * beta
    f = np.exp(f, out=f) * W * D * L
    del W, G, D, E
    # 1 - c and 1 + c: cos(phi - phi_x) - cos r and cos r - cos(phi + phi_x)
    # over b sin phi, half their sum
    ax, rq = np.arctan2(b, a)[query, None], r[query, None]
    minus = 2 * np.sin((rq + phi - ax) / 2) * np.sin((rq - phi + ax) / 2)
    plus = 2 * np.sin((phi + ax + rq) / 2) * np.sin((phi + ax - rq) / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(plus <= 0, 2.0, np.where(minus <= 0, 0.0, 2 * minus / (minus + plus)))
        q = np.where(plus <= 0, 0.0, np.where(minus <= 0, 2.0, 2 * plus / (minus + plus)))
    del phi, minus, plus
    if spec.kind == BALL:
        g, g_err = _cap_areas(spec.n, p, q), 0.0
    else:
        # step times (V, stderr) on simplex(n - 1) at u^2 and radius
        # 2 atan2(sqrt p, sqrt q) = acos c, one ``_volumes`` call over the
        # nodes whose slice is not empty; at the vertex e_(n+1) (b = 0)
        # every slice is empty or whole, and the centre stands in for u
        s = X.sum(axis=1, keepdims=True)
        U = np.where(b[:, None] > 0, X[:, :-1] / np.where(s > 0, s, 1.0), 1.0 / spec.n)
        live = np.nonzero(p > 0)
        g, g_err = np.zeros(p.shape), np.zeros(p.shape)
        g[live], g_err[live] = _volumes(DomainSpec.simplex(spec.n - 1, kappa[:-1]),
                                        U[query[live[0]]],
                                        2 * np.arctan2(np.sqrt(p[live]), np.sqrt(q[live])))
        g, g_err = spec.lift.step * g, spec.lift.step * g_err[:, SLICE_ORDERS[0]:]
    k = SLICE_ORDERS[0]
    # each piece's sum at both orders; np.bincount adds a query's pieces in turn
    sums = np.add.reduceat(f * g, [0, k], axis=1)
    low, high = (np.bincount(query, sums[:, i], minlength=len(X)) for i in (0, 1))
    inner = np.bincount(query, (f[:, k:] * g_err).sum(axis=1), minlength=len(X))
    # exp of a log-density up to 16 in size rounds to 16 ulp; no cap holds
    # more than the mass, which a whole cap reads to rounding
    stderr = np.abs(high - low) + inner + 16 * np.finfo(float).eps * high
    return np.fmin(high, total_mass(spec)), stderr


def _volumes(spec, X, r):
    """(V, stderr) of the checked rows X (m, n) and their radii r (m,), one
    a row: the total mass with stderr 0 where r reaches the diameter,
    elsewhere the arc rules (dimension 1, stderr 0), the cap quadrature in
    one pass (simplex(2)) or the slices (ball(n >= 2), simplex(n >= 3)) in
    passes of at most VOLUME_PASS innermost rows, or of one query."""
    values, stderrs = np.full(len(X), total_mass(spec)), np.zeros(len(X))
    inside = np.flatnonzero(r < _diameter(spec))
    if spec.n == 1:
        values[inside] = _line_volumes(spec, X[inside, 0], r[inside])
    elif _method(spec) == "cap_quadrature":
        values[inside], stderrs[inside] = _cap_volumes(spec, X[inside], r[inside])
    elif len(inside):
        # the simplex(2) rows of one query, nominally: simplex(j) has 2^j - 1
        # break cosines, so 2^(j+1) - 1 panels of sum(SLICE_ORDERS) nodes
        # (grading cuts a few further); refused before any array
        inner = 1
        for j in range(3, spec.n + 1 if spec.kind == SIMPLEX else 0):
            inner *= (2 ** (j + 1) - 1) * sum(SLICE_ORDERS)
            if inner > MAX_NODES:
                raise CapacityError(f"a volume query on {spec.label()} may take more than "
                                    f"{MAX_NODES} simplex(2) caps; lower the dimension")
        step = max(1, VOLUME_PASS // inner)
        for lo in range(0, len(inside), step):
            rows = inside[lo:lo + step]
            values[rows], stderrs[rows] = _slice_volumes(spec, X[rows], r[rows])
    return values, stderrs


def ball_volume(spec, x, r):
    """Weighted volume of the metric ball of radius r around x, one row of
    ``_volumes``."""
    X = _require_inside(spec, x)[None, :]
    if np.ndim(r):
        raise DomainError(f"radius has shape {np.shape(r)}, expected one radius")
    values, stderrs = _volumes(spec, X, _radii(r, 1))
    return VolumeEstimate(float(values[0]), float(stderrs[0]), _method(spec), 0)


def refuse_imprecise(spec, points, radii, values, stderrs, gate):
    """Raise PrecisionError at the first estimate whose stderr exceeds
    ``gate`` times its value or, failing that, at the first that is not
    positive (every metric ball of positive radius has positive mass),
    naming its point and radius.  ``points`` are the (m, n) rows of the
    estimates and ``radii`` their (m,) radii."""
    values, stderrs = np.asarray(values), np.asarray(stderrs)
    bad = np.concatenate([np.flatnonzero(stderrs > gate * values),
                          np.flatnonzero(~(values > 0))])
    if len(bad):
        i = bad[0]
        x = ", ".join(f"{c:.6g}" for c in np.ravel(np.asarray(points, float)[i]).tolist())
        hint = f"the {_method(spec).replace('_', ' ')} is unresolved"
        what = (f"volume stderr {stderrs[i]:.3g} exceeds {gate:.0%} of V={values[i]:.3g}"
                if values[i] > 0 else f"volume V={values[i]:.3g} is not positive")
        raise PrecisionError(f"{what} at x=({x}), r={radii[i]:.6g}; {hint}")


def _radii(r, m):
    """The radius of each of m rows, from one radius or an (m,) array of them."""
    r = np.asarray(r, dtype=float)
    if r.ndim and r.shape != (m,):
        raise DomainError(f"radii have shape {r.shape}, expected one radius or ({m},)")
    # NaN fails the comparison too
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    return np.full(m, float(r)) if r.ndim == 0 else r


class VolumeSource:
    """Volume front-end used by the validation scans.

    Every volume is a deterministic quadrature, so results do not depend on
    evaluation order.  The source refuses no estimate for its stderr: the
    scans gate what they read with ``refuse_imprecise``.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec

    def __call__(self, x, r) -> VolumeEstimate:
        return ball_volume(self.spec, x, r)

    def estimates(self, points, r):
        """(V(x, r), stderr) arrays for the rows of an (m, n) array of points,
        r one radius for every row or an (m,) array of one radius a row.

        The rows and radii are checked once and go through one ``_volumes``
        pass, so each row answers as a one-point query would.
        """
        X, _ = _rows(self.spec, points)
        return _volumes(self.spec, X, _radii(r, len(X)))
