import tracemalloc
from math import pi, sqrt

import numpy as np
import pytest

from polyheat.basis import build_basis, eigenvalue
from polyheat.domains import DomainSpec, total_mass
from polyheat.errors import CapacityError, ParameterError, PrecisionError
from polyheat.heat import (
    HeatKernelEvaluator,
    MultiplierSpec,
    TruncationPolicy,
    default_t_min,
)

from _oracles import chebyshev_heat_kernel


@pytest.fixture(scope="module")
def cheb_ev():
    return HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), 200))


@pytest.fixture(scope="module")
def ball_ev():
    return HeatKernelEvaluator(build_basis(DomainSpec.ball(2, 0.25), 20))


@pytest.fixture(scope="module")
def simplex_ev():
    return HeatKernelEvaluator(build_basis(DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 20))


class TestHeatKernel:
    def test_matches_cosine_series(self, cheb_ev):
        xs = np.cos(np.linspace(0.2, 2.9, 7))
        for t in (0.05, 0.2, 1.0):
            for x in xs:
                for y in xs:
                    v, tail = cheb_ev.heat_kernel(t, [x], [y])
                    assert v == pytest.approx(chebyshev_heat_kernel(t, x, y), abs=2e-10)
                    assert tail <= 1.1e-10

    def test_equilibrium_limit(self, cheb_ev):
        v, tail = cheb_ev.heat_kernel(50.0, [0.3], [-0.8])
        assert v == pytest.approx(1 / pi, abs=1e-10)

    def test_symmetry(self, ball_ev):
        x, y = np.array([0.2, 0.1]), np.array([-0.3, 0.4])
        a, _ = ball_ev.heat_kernel(0.3, x, y)
        b, _ = ball_ev.heat_kernel(0.3, y, x)
        assert abs(a - b) <= 1e-13

    def test_tail_is_honest(self, cheb_ev):
        # every built level is summed whatever the tail target, so a much
        # tighter target gives the same value, within the post-cap tail
        sharp = HeatKernelEvaluator(cheb_ev.basis,
                                    TruncationPolicy(1e-14, 1e-3, 200))
        for t in (0.05, 0.3):
            v, tail = cheb_ev.heat_kernel(t, [0.4], [0.35])
            vs, _ = sharp.heat_kernel(t, [0.4], [0.35])
            assert abs(v - vs) <= tail

    def test_monotone_stabilization(self, cheb_ev):
        # adding levels changes the value by at most the prior tail bound
        basis = cheb_ev.basis
        x, y = np.array([[0.4]]), np.array([[0.1]])
        t = 0.05
        caps = [40, 60, 80, 200]
        prev_val = prev_tail = None
        for cap in caps:
            ev = HeatKernelEvaluator(basis, TruncationPolicy(1e-300, 1e-3, cap))
            v, tail = ev.heat_kernel(t, x[0], y[0])
            if prev_val is not None:
                assert abs(v - prev_val) <= prev_tail * 1.0000001
            prev_val, prev_tail = v, tail

    def test_t_min_refusal(self, cheb_ev):
        with pytest.raises(PrecisionError):
            cheb_ev.heat_kernel(1e-5, [0.1], [0.2])

    def test_under_resolved_refusal(self):
        ev = HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), 30),
                                 TruncationPolicy(1e-10, 1e-4, 30))
        with pytest.raises(PrecisionError):
            ev.heat_kernel(2e-4, [0.1], [0.2])

    def test_default_t_min_tracks_cap(self):
        spec = DomainSpec.ball(2, 0.5)
        # lambda_40 = 40 * (40 + n + 2*gamma - 1) = 1680
        assert default_t_min(spec, 40) == pytest.approx(max(1e-2, 30 / 1680))
        assert default_t_min(DomainSpec.interval(-0.5, -0.5), 200) == pytest.approx(1e-3)


class TestMassAndSemigroup:
    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_mass_one(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        pts = {1: [[0.3]], 2: [[0.2, 0.1]]}[ev.spec.n]
        if ev.spec.kind == "simplex":
            pts = [[0.3, 0.3]]
        for t in (ev.policy.t_min, 0.5, 5.0):
            assert ev.mass_check(t, pts[0]) == pytest.approx(1.0, abs=1e-8)

    def test_semigroup_identity(self, cheb_ev, ball_ev):
        assert cheb_ev.semigroup_check(0.5, 0.5, [0.3], [-0.2]) <= 1e-8
        assert ball_ev.semigroup_check(0.3, 0.2, [0.2, 0.1], [-0.3, 0.4]) <= 1e-6
        # large times: both sides at equilibrium
        assert cheb_ev.semigroup_check(30.0, 30.0, [0.3], [-0.2]) <= 1e-10


class TestPointSet:
    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev"])
    def test_reuse_matches_fresh_evaluation(self, fixture, request, monkeypatch):
        ev = request.getfixturevalue(fixture)
        pts = (np.cos(np.linspace(0.3, 2.8, 6))[:, None] if ev.spec.n == 1
               else _points(ev.spec, 6, np.random.default_rng(4)))
        fresh = [ev.heat_kernel_grid(t, pts, pts[1:3]) for t in (0.1, 1.0)]
        P = ev.point_set(pts)
        calls = []
        monkeypatch.setattr(ev.basis, "evaluate", lambda points: calls.append(points))
        for t, (want_v, want_b) in zip((0.1, 1.0), fresh):
            v, b = ev.heat_kernel_grid(t, P, P[1:3])
            np.testing.assert_allclose(v, want_v, rtol=0, atol=1e-13)
            np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-13)
            np.testing.assert_allclose(ev.mass_grid(t, P), 1.0, rtol=0, atol=1e-8)
        assert ev.semigroup_check(0.3, 0.2, P[0], P[-1]) <= 1e-6
        assert calls == []

    def test_set_of_another_evaluator_refused(self, cheb_ev):
        other = HeatKernelEvaluator(cheb_ev.basis, cheb_ev.policy)
        with pytest.raises(ParameterError, match="another evaluator"):
            other.heat_kernel_grid(0.5, cheb_ev.point_set([[0.3]]), [[0.1]])


class TestMultipliers:
    def test_heat_exp_equals_heat(self, ball_ev):
        x, y = np.array([0.2, 0.1]), np.array([-0.3, 0.4])
        t = 0.3
        hv, htail = ball_ev.heat_kernel(t, x, y)
        mv, mtail = ball_ev.multiplier_kernel(MultiplierSpec("heat_exp"), sqrt(t), x, y)
        assert abs(hv - mv) <= htail + mtail + 1e-13

    def test_bump_band_only_constant(self, ball_ev):
        # delta * sqrt(lambda_1) >= R keeps only level zero
        spec = ball_ev.spec
        lam1 = 1 * (1 + spec.n + 2 * spec.gamma - 1)
        delta = 1.01 / sqrt(lam1)
        v, tail = ball_ev.multiplier_kernel(
            MultiplierSpec("smooth_bump", support=1.0, order=4), delta,
            [0.2, 0.1], [-0.3, 0.4])
        assert tail == 0.0
        assert v == pytest.approx(1 / total_mass(spec), rel=1e-12)

    def test_bump_band_capacity_error(self, ball_ev):
        with pytest.raises(CapacityError):
            ball_ev.multiplier_kernel(MultiplierSpec("smooth_bump", support=1.0, order=4),
                                      1e-3, [0.2, 0.1], [0.0, 0.0])

    def test_bump_linearity_scaling(self, ball_ev):
        phi = MultiplierSpec("smooth_bump", support=1.0, order=4)
        x, y = np.array([0.2, 0.1]), np.array([-0.1, 0.3])
        v, _ = ball_ev.multiplier_kernel(phi, 0.2, x, y)
        grid, _ = ball_ev.multiplier_grid(phi, 0.2, x[None, :], y[None, :])
        assert 2 * v == pytest.approx(2 * grid[0, 0], rel=1e-15)

    def test_sinc_tail_reported(self, cheb_ev):
        phi = MultiplierSpec("sinc_power", order=8, band=2.0)
        v, tail = cheb_ev.multiplier_kernel(phi, 0.05, [0.3], [0.31])
        assert tail <= 1.1 * cheb_ev.policy.epsilon
        assert np.isfinite(v)
        sharp = HeatKernelEvaluator(cheb_ev.basis, TruncationPolicy(1e-13, 1e-3, 200))
        _, sharp_tail = sharp.multiplier_kernel(phi, 0.05, [0.3], [0.31])
        assert sharp_tail <= 1e-12

    def test_sinc_tail_refused_below_cap_two(self):
        ev = HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), 1),
                                 TruncationPolicy(1e-10, 1e-3, 1))
        with pytest.raises(CapacityError, match="cap"):
            ev.multiplier_kernel(MultiplierSpec("sinc_power"), 0.1, [0.2], [0.3])

    def test_multiplier_profiles(self):
        bump = MultiplierSpec("smooth_bump", support=2.0, order=3)
        u = np.linspace(-3, 3, 101)
        vals = bump.phi(u)
        assert vals[50] == pytest.approx(1.0)
        assert np.all(vals[np.abs(u) >= 2.0] == 0.0)
        assert np.allclose(vals, vals[::-1])
        sinc = MultiplierSpec("sinc_power", order=2, band=2.0)
        assert sinc.phi(np.array([0.0]))[0] == 1.0
        assert sinc.fourier_band == 4.0
        with pytest.raises(ParameterError):
            MultiplierSpec("unknown")


class TestSelfAdjointness:
    def test_kernel_bilinear_symmetry(self, ball_ev):
        from polyheat.validation import kernel_selfadjointness_residual, random_poly

        rng = np.random.default_rng(31)
        for _ in range(5):
            f = random_poly(2, 10, rng)
            h = random_poly(2, 10, rng)
            assert kernel_selfadjointness_residual(ball_ev, 0.5, f, h) <= 1e-8


def _points(spec, count, rng):
    """Interior points of a 2-D ball or simplex."""
    if spec.kind == "ball":
        d = rng.standard_normal((count, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return np.sqrt(rng.uniform(0.0, 0.8, count))[:, None] * d
    return rng.dirichlet(np.ones(3), size=count)[:, :2]


def _reference(ev, g, post_cap, X, Y):
    """Level-by-level sum_k g_k K_k(x, y) and the per-pair tail of truncating it.

    post_cap(window) is the certified bound past the cap, given the maximum
    of sqrt(C_k(x) C_k(y)) over the last six levels; the per-pair tail adds
    the Cauchy-Schwarz bounds of the levels after the first one whose
    remainder is below the tail target, as the level-tensor summation did.
    """
    basis, K = ev.basis, ev.policy.hard_cap
    Vx, Vy = basis.evaluate(X), basis.evaluate(Y)
    value = np.zeros((len(X), len(Y)))
    cs = np.empty((K + 1, len(X), len(Y)))
    for k in range(K + 1):
        sl = basis.level_slice(k)
        value += g[k] * (Vx[:, sl] @ Vy[:, sl].T)
        cs[k] = np.sqrt(np.outer(np.sum(Vx[:, sl] ** 2, axis=1),
                                 np.sum(Vy[:, sl] ** 2, axis=1)))
    beyond = post_cap(cs[max(K - 5, 0):].max(axis=0))
    terms = np.abs(g)[:, None, None] * cs
    suffix = np.cumsum(terms[::-1], axis=0)[::-1] - terms + beyond
    ok = suffix <= ev.policy.epsilon
    kstar = np.where(ok.any(axis=0), ok.argmax(axis=0), K)
    tail = np.take_along_axis(suffix, kstar[None], axis=0)[0]
    return value, tail


def _heat_post_cap(ev, t):
    K = ev.policy.hard_cap
    lam, lam_next = eigenvalue(ev.spec, K), eigenvalue(ev.spec, K + 1)
    return lambda w: 2.0 * w * np.exp(-lam_next * t) / (1.0 - np.exp(-(lam_next - lam) * t))


class TestLevelSum:
    """The one-product summation against a level-by-level reference."""

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_matches_per_level_sum(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        K = ev.policy.hard_cap
        rng = np.random.default_rng(7)
        if ev.spec.n == 1:
            X, Y = np.cos(rng.uniform(0.1, 3.0, (9, 1))), np.cos(rng.uniform(0.1, 3.0, (6, 1)))
        else:
            X, Y = _points(ev.spec, 9, rng), _points(ev.spec, 6, rng)
        cases = [(t, ev.heat_kernel_grid(t, X, Y), np.exp(-ev.lambdas * t),
                  _heat_post_cap(ev, t)) for t in (ev.policy.t_min, 1.0)]
        sinc = MultiplierSpec("sinc_power")
        m, A = sinc.order, sinc.band
        for phi, delta, post_cap in [
                (MultiplierSpec("heat_exp"), 0.2, _heat_post_cap(ev, 0.04)),
                (MultiplierSpec("smooth_bump"), 0.3, lambda w: 0.0 * w),
                (sinc, 0.1, lambda w: 2.0 * w * (2.0 / (A * 0.1)) ** (2 * m)
                 * (K - 1.0) ** (1 - 2 * m) / (2 * m - 1))]:
            cases.append((phi.family, ev.multiplier_grid(phi, delta, X, Y),
                          phi.phi(delta * np.sqrt(ev.lambdas)), post_cap))
        for label, (value, tail), g, post_cap in cases:
            ref, old_tail = _reference(ev, g, post_cap, X, Y)
            assert np.abs(value - ref).max() <= 1e-12 * np.abs(ref).max(), label
            assert tail.min() >= 0.0, label
            assert np.all(tail <= old_tail * (1 + 1e-12)), label

    @pytest.mark.parametrize("fixture", ["ball_ev", "simplex_ev"])
    def test_square_grids_exactly_symmetric(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        X = _points(ev.spec, 100, np.random.default_rng(3))
        for v, _ in (ev.heat_kernel_grid(0.3, X, X),
                     ev.multiplier_grid(MultiplierSpec("sinc_power"), 0.1, X, X)):
            assert np.array_equal(v, v.T)

    def test_grid_memory_is_a_few_grids(self):
        # no array with a level axis over the (p, q) grid
        ev = HeatKernelEvaluator(build_basis(DomainSpec.ball(2, 0.5), 30))
        X = _points(ev.spec, 512, np.random.default_rng(5))
        tracemalloc.start()
        try:
            ev.heat_kernel_grid(0.2, X, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * X.shape[0] ** 2 * 8
