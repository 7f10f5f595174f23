"""Metric-ball volumes V(x, r) and their closed-form comparability surrogates.

The lift of ``spec.lift`` maps the ball onto the upper hemisphere of S^n
and the simplex onto the positive orthant (x_i = y_i^2), so rho(x, y) < r
exactly when lift(x) . lift(y) > cos r, and the metric ball is a spherical
cap cut by the faces.  On the sphere the weighted measure has the density
step^n prod |y_i|^(2 kappa_i) against surface measure: y_(n+1)^(2 gamma) on
the ball, 2^n prod y_i^(2 kappa_i) on the simplex.

* Interval: the arc integral of the Jacobi weight by Gauss-Jacobi and
  Gauss-Legendre rules, to about 1e-13 relative; see ``_interval_volumes``.
* Ball(2) and simplex(2): deterministic quadrature in geodesic polar
  coordinates (theta, phi) about lift(x); see ``_cap_volumes``.  Caps that
  touch no face take one tensor pass per rule order and radius; phi panels
  serve only the caps that touch a face.  The reported stderr is the
  difference between two rule orders.
* Dimension 3: Monte Carlo.  One exact sample of the normalized weighted
  measure (Beta radial profile on the ball, Dirichlet on the simplex) is
  drawn per (spec, samples, seed) from a counter-based Philox generator
  keyed by the seed, stored lifted to the sphere, and every query is one
  mat-vec on it.  All queries of a seed share that sample, so their
  errors are correlated; each estimate is unbiased with its own standard
  error, and V(x, 2r) >= V(x, r) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acos, cos, pi, sin, tan

import numpy as np

from .domains import (
    BALL,
    INTERVAL,
    DomainSpec,
    _face_kappa,
    _margins,
    _require_inside,
    _rows,
    lift_rows,
    total_mass,
)
from .errors import DomainError, ParameterError, PrecisionError
from .quadrature import gauss_jacobi

DEFAULT_SAMPLES = 1_000_000
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


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    method: str  # "exact1d" | "cap_quadrature" | "montecarlo"
    samples: int


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
    if spec.kind == INTERVAL:
        return "exact1d"
    return "cap_quadrature" if spec.n == 2 else "montecarlo"


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
    so sin r and tan r are taken by math, and the theta-node tables of one
    radius as one (n_theta,) array, exactly as for a one-point query; the
    rows then index them, at one fn call per radius.
    """
    radii, which = np.unique(r, return_inverse=True)
    return np.array([fn(s) for s in radii.tolist()])[which]


def _interval_volumes(spec, xs, r):
    """Exact V(x, r) on the interval for points xs (m,) and their radii
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
    a, b = spec.alpha, spec.beta
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
# cap quadrature on ball(2) and simplex(2)


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
    """The phi-panels of every cap that touches a face, r the radius of each
    query: arrays (query, start, end, exit face, periodic, rho).

    Whole caps never come here (``_whole_cap_sums``).  A cap whose exit
    angles theta_i(phi) never cross r is one periodic panel.  Otherwise phi
    is split where the exit face changes (the direction of a vertex, where
    more than one face meets) and where the exit angle of face i crosses r;
    the exit face is -1 on a panel whose rays all reach r inside the domain.
    Panels are ordered by query, then by start.  ``rho`` sets the Gauss
    order of a panel out to a face.
    """
    faces = list(spec.lift.faces)
    Yf = Y[:, faces]
    # u_i(phi) = B_i cos(phi - psi_i): psi_i is also the direction of vertex e_i
    psi = np.arctan2(E2[:, faces], E1[:, faces])
    B = np.hypot(E1[:, faces], E2[:, faces])
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -Yf / (_by_radius(tan, r)[:, None] * B)
    half = np.where(np.abs(c) < 1.0, np.arccos(np.clip(c, -1.0, 1.0)), np.nan)
    breaks = [psi - half, psi + half] + ([psi] if len(faces) > 1 else [])
    S = np.sort(np.mod(np.hstack(breaks), 2 * pi), axis=1)
    count = np.count_nonzero(np.isfinite(S), axis=1)
    periodic = count == 0

    # GL panels: consecutive breaks, the last one wrapping around to the
    # first; a repeated break (a point on a face) makes no panel
    rows, slot = np.nonzero(~periodic[:, None] & (np.arange(S.shape[1]) < count[:, None]))
    last = slot + 1 == count[rows]
    start = S[rows, slot]
    end = np.where(last, S[rows, 0] + 2 * pi, S[rows, np.where(last, 0, slot + 1)])
    keep = end > start
    rows, start, end = rows[keep], start[keep], end[keep]
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


def _phi_rule(start, end, n, periodic):
    """Nodes and weights in phi of panels [start, end) with n nodes each, one
    panel after another: the trapezoid rule around a periodic panel,
    Gauss-Legendre on the others."""
    first = np.cumsum(n) - n
    phi, w = np.empty(n.sum()), np.empty(n.sum())
    for is_periodic, k in set(zip(periodic.tolist(), n.tolist())):
        sel = np.flatnonzero((periodic == is_periodic) & (n == k))
        if is_periodic:
            t, wt = np.arange(k) / k, np.full(k, 1.0 / k)
        else:
            x, wx = gauss_jacobi(k, 0.0, 0.0)
            t, wt = (1 + x) / 2, wx / 2
        at = first[sel, None] + np.arange(k)
        width = (end - start)[sel, None]
        phi[at] = start[sel, None] + width * t
        w[at] = width * wt
    return phi, w


def _theta_integrals(spec, Yq, E1q, E2q, phi, face, r, n_theta):
    """Integral over theta in [0, T] of density * sin(theta) along each phi;
    entry i belongs to query Yq[i] and leaves the domain through face[i],
    or reaches T = r[i] where face[i] is -1 (then for every i).

    T = r takes Gauss-Legendre on nodes shared by the entries of one radius,
    with the face coordinates cos(theta) y_i + sin(theta) u_i.  T = theta_j,
    the exit angle of face j, takes Gauss-Jacobi: the factor
    (T - theta)^(2 kappa_j) of the density goes into the weight, and the
    face coordinates are A_i sin(theta_i - theta), exact near the exit.
    """
    faces = list(spec.lift.faces)
    expo = [2.0 * k for k in _face_kappa(spec)]
    U = np.cos(phi)[:, None] * E1q + np.sin(phi)[:, None] * E2q
    Yf, Uf = Yq[:, faces], U[:, faces]
    if face[0] < 0:
        x, w = gauss_jacobi(n_theta, 0.0, 0.0)
        t = (1 + x) / 2
        table = _by_radius(lambda rad: (np.cos(rad * t), np.sin(rad * t)), r)
        c, s = table[:, 0], table[:, 1]
        coords = (Yf[:, i, None] * c + Uf[:, i, None] * s for i in range(len(faces)))
        f = s * w
        exit_power, scale = None, r / 2
    else:
        exit_theta, A = _exit_angles(Yf, Uf)
        rules = [gauss_jacobi(n_theta, e, 0.0) for e in expo]
        x = np.array([x for x, _ in rules])[face]
        w = np.array([w for _, w in rules])[face]
        e_exit = np.array(expo)[face][:, None]
        T = exit_theta[np.arange(len(face)), face][:, None]
        theta = T * ((1 + x) / 2)
        coords = (A[:, i, None] * np.sin(exit_theta[:, i, None] - theta)
                  for i in range(len(faces)))
        f = np.sin(theta) * w
        # the exit face's (T - theta)^e is the rule's weight: divide it out
        exit_power = (T * ((1 - x) / 2), e_exit)
        scale = ((T / 2) ** (1.0 + e_exit))[:, 0]
    log_f = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, y in zip(expo, coords):
            # exponent 1 (kappa = 1/2) multiplies; 0 leaves the density alone
            if e == 1.0:
                f = f * y
            elif e != 0.0:
                log_f = log_f + e * np.log(y)
        if exit_power is not None:
            # row by row, so that a row's bits do not depend on the others
            d, e = exit_power
            f = f / np.where(e == 1.0, d, 1.0)
            other = (e != 0.0) & (e != 1.0)
            if other.any():
                log_f = log_f - np.where(other, e * np.log(d), 0.0)
        if not np.isscalar(log_f):
            f = f * np.exp(log_f)
        g = f.sum(axis=1)
        # T = 0 (a point on a face) has weight 0 and a 0/0 integrand
        return np.where(scale > 0, g * scale, 0.0)


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


def _whole_cap_sums(spec, Y, E1, E2, r, order):
    """The cap integral of every query whose cap touches no face, r its
    radius, under one rule order.

    Every ray of a whole cap reaches r inside the domain, so its rule is
    the periodic trapezoid rule in phi times Gauss-Legendre on [0, r] in
    theta, with the same phi nodes for every cap and the same theta nodes
    for every cap of one radius.  Each radius takes one broadcast pass over
    (theta node, query, phi node), in chunks of at most CAP_CHUNK integrand
    values, of the face coordinates y_i = cos(theta) Y_i + sin(theta) u_i(phi).
    Theta is summed in the order of a contiguous row and phi in that of
    np.add.reduceat over one panel, so a query's sum does not depend on the
    others and has the bits of its one periodic panel in ``_cap_sums``.
    """
    n_trap, n_theta = order[:2]
    faces = list(spec.lift.faces)
    expo = [2.0 * k for k in _face_kappa(spec)]
    Yf, E1f, E2f = Y[:, faces], E1[:, faces], E2[:, faces]
    x, w = gauss_jacobi(n_theta, 0.0, 0.0)
    t = (1 + x) / 2
    phi = 2 * pi * (np.arange(n_trap) / n_trap)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    w_phi = 2 * pi * (1.0 / n_trap)
    sums = np.empty(len(Y))
    step = max(1, CAP_CHUNK // (n_theta * n_trap * len(faces)))
    radii, which = np.unique(r, return_inverse=True)
    for k, rad in enumerate(radii.tolist()):
        c, s = np.cos(rad * t)[:, None, None], np.sin(rad * t)[:, None, None]
        sw = s * w[:, None, None]
        rows = np.flatnonzero(which == k)
        for lo in range(0, len(rows), step):
            q = rows[lo:lo + step]
            f, log_f = sw, None
            for i, e in enumerate(expo):
                if e == 0.0:
                    continue
                # each product is a new array, so the passes run in place
                y = (E1f[q, i, None] * cos_phi + E2f[q, i, None] * sin_phi) * s
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
                f = np.broadcast_to(sw, (n_theta, len(q), n_trap))
            g = _row_sum(f) * (rad / 2)
            wg = w_phi * g
            sums[q] = wg[:, 0] + wg[:, 1:].sum(axis=1)
    return sums


def _cap_sums(spec, Y, E1, E2, r, panels, order):
    """The cap integral of every query, r its radius, under one rule order,
    for caps that touch a face; whole caps take ``_whole_cap_sums``.

    The panels out to r and the panels out to a face each go through one
    array pass (in chunks of CAP_CHUNK integrand values) over all their
    phi nodes; np.add.reduceat sums each panel and np.bincount each query,
    both in a fixed order, so a query's sum does not depend on the others.
    """
    n_trap, n_theta, digits, least = order
    query, start, end, face, periodic, rho = panels
    # Gauss nodes in phi: enough for ``digits`` on a panel out to a face, a
    # multiple of 8 in [least, CAP_PHI_MAX]
    with np.errstate(divide="ignore"):
        need = 8 * np.ceil(digits * np.log(10) / (16 * np.log(rho)))
    n = np.where(periodic, n_trap, np.fmin(np.fmax(need, least), CAP_PHI_MAX)).astype(int)
    sums = np.empty(len(query))
    step = CAP_CHUNK // (n_theta * len(spec.lift.faces))
    for reach in (face < 0, face >= 0):
        sel = np.flatnonzero(reach)
        if len(sel) == 0:
            continue
        phi, w = _phi_rule(start[sel], end[sel], n[sel], periodic[sel])
        node = np.repeat(sel, n[sel])
        g = np.empty(len(phi))
        for lo in range(0, len(phi), step):
            part = slice(lo, lo + step)
            q = query[node[part]]
            g[part] = _theta_integrals(spec, Y[q], E1[q], E2[q], phi[part], face[node[part]],
                                       r[q], n_theta)
        sums[sel] = np.add.reduceat(w * g, np.cumsum(n[sel]) - n[sel])
    return np.bincount(query, sums, minlength=len(Y))


def _cap_volumes(spec, X, r):
    """(V, stderr) for the rows X (m, 2) of ball(2) or simplex(2) points and
    their radii r (m,), one a row.

    In geodesic polar coordinates (theta, phi) about y = Y[q], the geodesic
    cos(theta) y + sin(theta) u(phi) meets face i (y_i = 0) at theta_i(phi),
    where y_i = A_i sin(theta_i - theta), both in closed form.  V is the
    integral over phi of the density integrated over theta in
    [0, min(r, exit angle)].  A whole cap (r < pi/2 and every face
    coordinate y_i > sin r, so that it touches no face) takes a periodic
    trapezoid rule in phi times Gauss-Legendre on [0, r], one tensor pass
    per rule order and radius (``_whole_cap_sums``).  A cap that touches a
    face takes, per phi-panel (``_cap_panels``), Gauss-Legendre in phi times
    Gauss-Legendre up to r or Gauss-Jacobi up to the exit face
    (``_cap_sums``).  Every query's sum runs in the same order whatever the
    other rows, so a row's value does not depend on the batch or on the
    radii of the other rows.  The stderr is |V_high - V_low| over
    ``CAP_ORDERS``.
    """
    Y = lift_rows(spec, X)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    E1, E2 = _tangent_frames(Y)
    whole = (r < pi / 2) & (Y[:, list(spec.lift.faces)].min(axis=1) > _by_radius(sin, r))
    low, high = np.empty(len(Y)), np.empty(len(Y))
    if whole.any():
        Yw, E1w, E2w, rw = Y[whole], E1[whole], E2[whole], r[whole]
        for out, order in zip((low, high), CAP_ORDERS):
            out[whole] = _whole_cap_sums(spec, Yw, E1w, E2w, rw, order)
    cut = ~whole
    if cut.any():
        Yc, E1c, E2c, rc = Y[cut], E1[cut], E2[cut], r[cut]
        panels = _cap_panels(spec, Yc, E1c, E2c, rc)
        for out, order in zip((low, high), CAP_ORDERS):
            out[cut] = _cap_sums(spec, Yc, E1c, E2c, rc, panels, order)
    const = float(spec.lift.step ** spec.n)   # dx = step^n prod y_i dsigma
    return const * high, const * np.abs(high - low)


# ---------------------------------------------------------------------------
# Monte Carlo in dimension 3


# (key, lifted sample) of the last Monte Carlo query: one sample is kept
_cloud = (None, None)


def _lifted_cloud(spec, samples, seed):
    """The lifted sample for this key, drawn only when the key changes.

    The old sample is released before the new one is drawn, so that two are
    never held at once (``functools.lru_cache`` would hold both while it
    draws).
    """
    global _cloud
    key = (spec, samples, seed)
    entry = _cloud
    if entry[0] == key:
        return entry[1]
    del entry
    _cloud = (None, None)
    cloud = _draw_lifted(spec, samples, seed)
    _cloud = (key, cloud)
    return cloud


def _draw_lifted(spec, samples, seed):
    """The seed's sample of the normalized measure, lifted to the chart sphere
    and read-only: ball rows (sqrt(v) dir, sqrt(1 - v)), uniform directions
    and then v ~ Beta(n/2, gamma+1/2), built coordinate-major in place;
    simplex rows the square roots of a Dirichlet draw, all n+1 coordinates."""
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    if spec.kind == BALL:
        # the last row holds the directions' squared norms until it is filled
        lifted = np.empty((spec.n + 1, samples))
        dirs, last = lifted[:-1], lifted[-1]
        rng.standard_normal(out=dirs)
        v = rng.beta(spec.n / 2.0, spec.gamma + 0.5, size=samples)
        np.einsum("ij,ij->j", dirs, dirs, out=last)
        np.sqrt(np.divide(v, last, out=last), out=last)
        dirs *= last
        np.sqrt(np.subtract(1.0, v, out=v), out=last)
        cloud = lifted.T
    else:
        cloud = rng.dirichlet(np.asarray(spec.kappa) + 0.5, size=samples)
        np.sqrt(cloud, out=cloud)
    cloud.flags.writeable = False
    return cloud


def _monte_carlo(spec, X, r, samples, seed):
    """(V, stderr, sample size) of the rows X (m, n) and their radii r (m,):
    mass times the fraction p of the seed's lifted sample with
    lift(x) . y > cos r, one matrix-vector product a row, with stderr
    mass sqrt(p (1 - p) / samples)."""
    if samples < 1:
        raise ParameterError(f"Monte Carlo needs at least 1 sample, got {samples}")
    cloud = _lifted_cloud(spec, samples, seed)
    p = np.array([np.mean(cloud @ (y / np.linalg.norm(y)) > cos(s))
                  for y, s in zip(lift_rows(spec, X), r.tolist())])
    mass = total_mass(spec)
    return mass * p, mass * np.sqrt(p * (1 - p) / samples), samples


def _volumes(spec, X, r, samples, seed):
    """(V, stderr, sample size) of the checked rows X (m, n) and their radii
    r (m,), one a row: the total mass with stderr 0 where r reaches the
    diameter, elsewhere one pass of the arc rules (interval, stderr 0), of
    the cap quadrature (ball(2), simplex(2)) or of Monte Carlo (dimension
    3).  The sample size is the Monte Carlo one, 0 when no row drew on it."""
    values, stderrs, used = np.full(len(X), total_mass(spec)), np.zeros(len(X)), 0
    inside = np.flatnonzero(r < _diameter(spec))
    if spec.kind == INTERVAL:
        values[inside] = _interval_volumes(spec, X[inside, 0], r[inside])
    elif spec.n == 2:
        values[inside], stderrs[inside] = _cap_volumes(spec, X[inside], r[inside])
    elif len(inside):
        values[inside], stderrs[inside], used = _monte_carlo(spec, X[inside], r[inside],
                                                             samples, seed)
    return values, stderrs, used


def ball_volume(spec, x, r, samples=DEFAULT_SAMPLES, seed=0):
    """Weighted volume of the metric ball of radius r around x, one row of
    ``_volumes``.  ``samples`` and ``seed`` serve dimension 3 only: the
    seed's sample of that size."""
    X = _require_inside(spec, x)[None, :]
    if np.ndim(r):
        raise DomainError(f"radius has shape {np.shape(r)}, expected one radius")
    values, stderrs, used = _volumes(spec, X, _radii(r, 1), samples, seed)
    return VolumeEstimate(float(values[0]), float(stderrs[0]), _method(spec), used)


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
        hint = ("raise the sample budget" if _method(spec) == "montecarlo"
                else "the cap quadrature is unresolved")
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

    Monte Carlo queries use the sample of ``seed``, so results do not depend
    on evaluation order.  The source refuses no estimate for its stderr: the
    scans gate what they read with ``refuse_imprecise``.
    """

    def __init__(self, spec: DomainSpec, samples=DEFAULT_SAMPLES, seed=0):
        self.spec = spec
        self.samples = samples
        self.seed = seed

    def __call__(self, x, r) -> VolumeEstimate:
        return ball_volume(self.spec, x, r, samples=self.samples, seed=self.seed)

    def estimates(self, points, r):
        """(V(x, r), stderr) arrays for the rows of an (m, n) array of points,
        r one radius for every row or an (m,) array of one radius a row.

        The rows and radii are checked once and go through one ``_volumes``
        pass, so each row answers as a one-point query would.
        """
        X, _ = _rows(self.spec, points)
        return _volumes(self.spec, X, _radii(r, len(X)), self.samples, self.seed)[:2]
