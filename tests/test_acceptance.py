"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS/FAIL` line (run pytest
with -s or check the captured output).  Bases and Monte Carlo volume pools
are cached per configuration in session fixtures; the random seeds are
fixed, so the whole module is deterministic.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from polyheat.basis import build_basis, verify_eigenrelation
from polyheat.domains import DomainSpec, perturbed_identity_det
from polyheat.heat import HeatKernelEvaluator, TruncationPolicy
from polyheat.polynomials import MultiPoly
from polyheat.quadrature import build_quadrature
from polyheat.validation import (
    PolyField,
    boundary_flux_decay,
    chart_laplacian_check,
    doubling_scan,
    finite_speed_scan,
    gauss_ratio_scan,
    green_identity_check,
    interior_points,
    jacobi_simplex_correspondence,
    kernel_selfadjointness_residual,
    localization_check,
    random_coefficients,
)
from polyheat.volumes import VolumeSource

from _oracles import as_coefficients, chebyshev_heat_kernel, dense_perturbed_det

_BASES = {}
_VOLS = {}


def get_basis(spec, degree):
    key = (spec, degree)
    if key not in _BASES:
        _BASES[key] = build_basis(spec, degree)
    return _BASES[key]


def get_vol(spec, samples=1_000_000, seed=2024):
    key = (spec, samples, seed)
    if key not in _VOLS:
        _VOLS[key] = VolumeSource(spec)
    return _VOLS[key]


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


INTERVAL_AB = [(-0.9, -0.9), (-0.9, -0.5), (-0.9, 0.0), (-0.9, 1.5),
               (-0.5, -0.9), (-0.5, -0.5), (-0.5, 0.0), (-0.5, 1.5),
               (0.0, -0.9), (0.0, -0.5), (0.0, 0.0), (0.0, 1.5),
               (1.5, -0.9), (1.5, -0.5), (1.5, 0.0), (1.5, 1.5)]
BALL_GAMMAS = [-0.4, 0.0, 1.0]
SIMPLEX_KAPPAS = sorted(set(permutations((-0.4, 0.0, 1.0))))


def test_01_02_eigen_decomposition_and_orthonormality():
    worst_eig = worst_gram = 0.0
    worst_time = 0.0
    for a, b in INTERVAL_AB:
        t0 = time.time()
        basis = get_basis(DomainSpec.interval(a, b), 40)
        res = verify_eigenrelation(basis)
        worst_time = max(worst_time, time.time() - t0)
        assert res.max() <= 1e-9, (a, b, res.max())
        assert basis.gram_residual() <= 1e-10, (a, b)
        worst_eig = max(worst_eig, res.max())
    worst_eig2 = 0.0
    specs = [DomainSpec.ball(2, g) for g in BALL_GAMMAS]
    specs += [DomainSpec.simplex(2, k) for k in SIMPLEX_KAPPAS]
    for spec in specs:
        t0 = time.time()
        basis = get_basis(spec, 20)
        res = verify_eigenrelation(basis)
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        assert res.max() <= 1e-8, (spec.label(), res.max())
        assert basis.gram_residual() <= 1e-8, spec.label()
        worst_eig2 = max(worst_eig2, res.max())
    ok = worst_time <= 60.0
    report(1, "eigen-decomposition",
           ok, f"interval<=1e-9: {worst_eig:.2e}; ball/simplex<=1e-8: "
               f"{worst_eig2:.2e}; slowest config {worst_time:.1f}s")
    report(2, "orthonormality", True, "gram residuals within 1e-10/1e-8")


def test_03_chebyshev_oracle():
    spec = DomainSpec.interval(-0.5, -0.5)
    basis = get_basis(spec, 200)
    ev = HeatKernelEvaluator(basis, TruncationPolicy(1e-12, 1e-3, 200))
    pts = interior_points(spec, 32)
    worst = 0.0
    for t in (0.05, 0.2, 1.0, 5.0):
        vals, _ = ev.heat_kernel_grid(t, pts, pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                ref = chebyshev_heat_kernel(t, pts[i, 0], pts[j, 0])
                worst = max(worst, abs(vals[i, j] - ref))
    report(3, "closed-form oracle", worst <= 1e-10,
           f"max |kernel - cosine series| = {worst:.2e} on 32x32 grid")


def _desk_evaluators():
    return [
        HeatKernelEvaluator(get_basis(DomainSpec.interval(-0.5, -0.5), 200)),
        HeatKernelEvaluator(get_basis(DomainSpec.ball(2, 0.5), 40)),
        HeatKernelEvaluator(get_basis(DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 40)),
    ]


def test_04_mass_conservation():
    worst = 0.0
    for ev in _desk_evaluators():
        pts = interior_points(ev.spec, 10)
        ts = sorted({ev.policy.t_min, 0.1, 0.5, 1.0, 5.0})
        for t in ts:
            if t < ev.policy.t_min:
                continue
            for x in pts:
                worst = max(worst, abs(ev.mass_check(t, x) - 1.0))
    report(4, "mass conservation", worst <= 1e-6, f"max |mass - 1| = {worst:.2e}")


def test_05_semigroup():
    worst = 0.0
    for ev in _desk_evaluators():
        pts = interior_points(ev.spec, 4)
        for (s, t) in ((0.3, 0.2), (0.5, 0.5)):
            gap = ev.semigroup_check(s, t, pts[0], pts[-1])
            worst = max(worst, gap)
    report(5, "semigroup identity", worst <= 1e-6, f"max gap = {worst:.2e}")


def test_06_symmetry_selfadjointness():
    worst_sym = worst_adj = 0.0
    rng = np.random.default_rng(66)
    for ev in _desk_evaluators():
        pts = interior_points(ev.spec, 6)
        vals, _ = ev.heat_kernel_grid(0.3, pts, pts)
        worst_sym = max(worst_sym, float(np.abs(vals - vals.T).max()))
        for _ in range(5):
            f = random_coefficients(ev.spec.n, 10, rng)
            h = random_coefficients(ev.spec.n, 10, rng)
            worst_adj = max(worst_adj, kernel_selfadjointness_residual(ev, 0.5, f, h))
    ok = worst_sym <= 1e-13 and worst_adj <= 1e-8
    report(6, "symmetry/self-adjointness", ok,
           f"kernel symmetry {worst_sym:.2e}, bilinear {worst_adj:.2e}")


def test_07_chart_correspondence():
    rng = np.random.default_rng(77)
    worst = 0.0
    specs = [DomainSpec.ball(1, 0.8), DomainSpec.ball(2, 0.25),
             DomainSpec.simplex(1, (0.5, 1.5)), DomainSpec.simplex(2, (-0.3, 0.8, 1.7))]
    for spec in specs:
        pts = interior_points(spec, 100, margin=0.02)
        f = random_coefficients(spec.n, 5, rng)
        worst = max(worst, chart_laplacian_check(spec, f, pts))
    report(7, "chart correspondence", worst <= 1e-8,
           f"max relative residual = {worst:.2e} at 100 samples")


def test_08_green_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for spec in (DomainSpec.interval(0.7, -0.3), DomainSpec.ball(2, 0.25),
                 DomainSpec.simplex(2, (0.5, 1.0, -0.2))):
        quad = build_quadrature(spec, 20)
        for _ in range(20):
            f = random_coefficients(spec.n, 6, rng)
            h = PolyField(random_coefficients(spec.n, 4, rng), spec.n)
            worst = max(worst, green_identity_check(spec, f, h, quad))
    report(8, "green identity", worst <= 1e-8, f"max residual {worst:.2e} over 20 pairs x 3 domains")


def test_09_boundary_flux_rates():
    from polyheat.validation import GaussianBump

    eps = [0.2, 0.1, 0.05, 0.02, 0.01]
    rows = []
    ok = True
    for g in (0.25, 1.0):
        spec = DomainSpec.ball(2, g)
        f = as_coefficients(MultiPoly.monomial((2, 0)))
        rep = boundary_flux_decay(spec, f, PolyField([1.0], 2), eps)
        good = abs(rep.fitted_slope - (g + 0.5)) <= 0.1 and rep.r2 >= 0.98
        ok = ok and good
        rows.append(f"ball g={g}: slope {rep.fitted_slope:.3f} vs {g + 0.5} r2={rep.r2:.4f}")
    # probes chosen so the flux coefficient is epsilon-flat: f makes the
    # normal derivative factor 1 - x1^2, the ridge bump suppresses the
    # shrinking face ends, and kappa_2 = kappa_3 = 1/2 kills the remaining
    # linear weight correction
    cases = [
        (DomainSpec.simplex(1, (0.5, 0.5)), None),
        (DomainSpec.simplex(2, (0.25, 0.5, 0.5)),
         GaussianBump([0.0, 0.45], [np.inf, 0.15])),
    ]
    for spec, h in cases:
        f = as_coefficients(MultiPoly.variable(spec.n, 0) + 0.5 * MultiPoly.monomial(
            (2,) + (0,) * (spec.n - 1)))
        if h is None:
            h = PolyField([1.0], spec.n)
        rep = boundary_flux_decay(spec, f, h, eps)
        expected = min(spec.kappa) + 0.5
        good = abs(rep.fitted_slope - expected) <= 0.1 and rep.r2 >= 0.98
        ok = ok and good
        rows.append(f"{spec.label()}: slope {rep.fitted_slope:.3f} vs {expected} r2={rep.r2:.4f}")
    report(9, "boundary flux rates", ok, "; ".join(rows))


def test_10_jacobi_simplex_transfer():
    ok = True
    rows = []
    for a, b in ((-0.5, -0.5), (0.0, 0.0), (0.7, -0.3)):
        rep = jacobi_simplex_correspondence(a, b, 30)
        ok = ok and rep.verdict
        worst = max(c["residual"] for c in rep.checks)
        rows.append(f"(a,b)=({a},{b}) worst {worst:.1e}")
    report(10, "interval-simplex transfer", ok, "; ".join(rows))


GAUSS_CONFIGS = [
    (DomainSpec.ball(2, 0.0), 40, (0.02, 0.5)),
    (DomainSpec.ball(2, 0.5), 40, (0.02, 0.5)),
    (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 40, (0.02, 0.5)),
    (DomainSpec.interval(-0.5, -0.5), 200, (0.005, 0.5)),
    (DomainSpec.interval(0.7, -0.3), 200, (0.005, 0.5)),
]


def test_11_gaussian_bounds():
    ok = True
    rows = []
    for spec, cap, (t_lo, t_hi) in GAUSS_CONFIGS:
        t0 = time.time()
        ev = HeatKernelEvaluator(get_basis(spec, cap))
        vol = get_vol(spec)
        pts = interior_points(spec, 12)
        times = np.geomspace(t_lo, t_hi, 6)
        rep = gauss_ratio_scan(ev, vol, pts, times)
        elapsed = time.time() - t0
        good = (rep.verdict and rep.e_max / rep.e_min <= 25.0
                and rep.n_hi / rep.n_lo <= 20.0 and elapsed <= 600.0)
        ok = ok and good
        rows.append(f"{spec.label()}: E=[{rep.e_min:.3f},{rep.e_max:.3f}] "
                    f"N_ratio={rep.n_hi / rep.n_lo:.1f} excl={rep.excluded} {elapsed:.0f}s")
    report(11, "gaussian bounds", ok, "; ".join(rows))


def test_12_doubling():
    ok = True
    rows = []
    # comparability rows saturate once 2r approaches the domain diameter
    # (V plateaus while the surrogate keeps growing), so the grid stays in
    # the scaling regime
    radii = [0.05, 0.1, 0.2, 0.35, 0.5]
    for spec, cap, _ in GAUSS_CONFIGS:
        vol = get_vol(spec)
        pts = interior_points(spec, 10)
        rep = doubling_scan(spec, vol, pts, radii)
        spread = rep.comp_hi / rep.comp_lo
        good = rep.max_ratio <= rep.cap and spread <= 30.0
        ok = ok and good
        rows.append(f"{spec.label()}: ratio {rep.max_ratio:.2f} <= cap {rep.cap:.2f}, "
                    f"V/Vhat spread {spread:.1f}")
    report(12, "doubling", ok, "; ".join(rows))


def test_13_localization():
    ok = True
    rows = []
    for spec, cap in ((DomainSpec.interval(-0.5, -0.5), 200), (DomainSpec.ball(2, 0.5), 40)):
        ev = HeatKernelEvaluator(get_basis(spec, cap))
        vol = get_vol(spec)
        m = spec.n + 2
        cms = []
        for d in (0.05, 0.1):
            rep = localization_check(ev, d, m, vol)
            cms.append(rep.c_m_hat)
            good = rep.exponent >= m - 0.5 and rep.r2 >= 0.98
            ok = ok and good
            rows.append(f"{spec.label()} d={d}: exp {rep.exponent:.2f} r2 {rep.r2:.4f}")
        stable = max(cms) <= 2.0 * min(cms)
        ok = ok and stable
        rows.append(f"c_m stable {min(cms):.2f}..{max(cms):.2f}")
    report(13, "multiplier localization", ok, "; ".join(rows))


def test_14_finite_speed():
    spec = DomainSpec.interval(-0.5, -0.5)
    ev = HeatKernelEvaluator(get_basis(spec, 200))
    cs = []
    beyond = 0.0
    for d in (0.05, 0.1):
        rep = finite_speed_scan(ev, d, 8, 2.0)
        assert not rep.degenerate
        cs.append(rep.c_star_hat)
        beyond = max(beyond, rep.max_beyond)
    stable = max(cs) <= 1.25 * min(cs)
    ok = stable and beyond <= 1e-8
    report(14, "finite-speed surrogate", ok,
           f"c* = {cs[0]:.3f}/{cs[1]:.3f}, beyond-r* max {beyond:.1e}")


def test_15_determinant_lemma():
    rng = np.random.default_rng(1515)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.1, 10.0, n)
        closed = perturbed_identity_det(a)
        ref = dense_perturbed_det(a)
        worst = max(worst, abs(closed - ref) / abs(ref))
    report(15, "determinant lemma", worst <= 1e-12,
           f"max relative gap {worst:.2e} over 1000 draws")
