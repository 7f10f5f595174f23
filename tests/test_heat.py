import tracemalloc
from itertools import product
from math import exp, log, pi, sqrt
from sys import float_info

import numpy as np
import pytest

from polyheat.basis import build_basis, eigenvalue
from polyheat.domains import DomainSpec, total_mass
from polyheat.errors import CapacityError, DomainError, ParameterError, PrecisionError
from polyheat.heat import (
    HeatKernelEvaluator,
    MultiplierSpec,
    TruncationPolicy,
    _sinc_power_tail_factor,
    default_t_min,
)
from polyheat.validation import localization_check
from polyheat.volumes import VolumeSource

from _oracles import (
    chebyshev_heat_kernel,
    dropped_roots,
    levels_read,
    reference_heat_tail,
    reference_mass_grid,
    reference_semigroup_gap,
    window_heat_tail,
)


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

    @pytest.mark.parametrize("epsilon, t_min", [(float("nan"), 1e-3), (1e-10, float("nan")),
                                                (float("inf"), 1e-3), (1e-10, 0.0)])
    def test_policy_needs_positive_finite_epsilon_and_t_min(self, epsilon, t_min):
        with pytest.raises(ParameterError, match="^epsilon and t_min must be positive and finite"):
            TruncationPolicy(epsilon, t_min, 20)

    def test_under_resolved_refusal(self):
        ev = HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), 30),
                                 TruncationPolicy(1e-10, 1e-4, 30))
        with pytest.raises(PrecisionError):
            ev.heat_kernel(2e-4, [0.1], [0.2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_or_delta_refused(self, cheb_ev, bad):
        ev, x, y = cheb_ev, [0.1], [0.2]
        for call in (lambda: ev.heat_kernel(bad, x, y),
                     lambda: ev.mass_check(bad, x),
                     lambda: ev.semigroup_check(bad, 0.2, x, y),
                     lambda: ev.semigroup_check(0.2, bad, x, y)):
            with pytest.raises(ParameterError, match=r"^time -?(nan|inf) is not a finite number$"):
                call()
        for family in ("heat_exp", "smooth_bump", "sinc_power"):
            with pytest.raises(ParameterError, match="^delta must be positive and finite"):
                ev.multiplier_kernel(MultiplierSpec(family), bad, x, y)

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev"])
    def test_points_outside_the_closed_domain_refused(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        inside = [0.3] * ev.spec.n
        for bad in ([1.5] * ev.spec.n, [float("nan")] * ev.spec.n):
            for call in (lambda: ev.heat_kernel(0.1, bad, inside),
                         lambda: ev.heat_kernel_grid(0.1, [inside, bad], [inside]),
                         lambda: ev.multiplier_kernel(MultiplierSpec("heat_exp"), 0.2, inside, bad),
                         lambda: ev.mass_check(0.1, bad),
                         lambda: ev.semigroup_check(0.1, 0.2, inside, bad),
                         lambda: ev.point_set([bad])):
                with pytest.raises(DomainError, match="^point .* lies outside the closed"):
                    call()
        # the boundary belongs to the closed domain
        edge = [1.0] + [0.0] * (ev.spec.n - 1)
        value, tail = ev.heat_kernel(0.1, edge, inside)
        assert np.isfinite(value) and tail >= 0

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

    @pytest.mark.parametrize("bad", [{"band": float("nan")}, {"band": float("inf")},
                                     {"support": float("nan")}, {"support": float("inf")},
                                     {"band": 0.0}, {"order": 0}])
    def test_non_finite_or_non_positive_parameters_refused(self, bad):
        for family in ("heat_exp", "smooth_bump", "sinc_power"):
            with pytest.raises(ParameterError, match="^multiplier support, band and order "
                                                     "must be positive and finite, got "):
                MultiplierSpec(family, **bad)

    def test_sinc_tail_reported(self, cheb_ev):
        phi = MultiplierSpec("sinc_power", order=8, band=2.0)
        v, tail = cheb_ev.multiplier_kernel(phi, 0.05, [0.3], [0.31])
        assert tail <= 1.1 * cheb_ev.policy.epsilon
        assert np.isfinite(v)
        sharp = HeatKernelEvaluator(cheb_ev.basis, TruncationPolicy(1e-13, 1e-3, 200))
        _, sharp_tail = sharp.multiplier_kernel(phi, 0.05, [0.3], [0.31])
        assert sharp_tail <= 1e-12

    def test_sinc_tail_factor_matches_the_double_formula(self):
        # 2 (2 / (A delta))^(2m) (K - 1)^(1 - 2m) / (2m - 1) in doubles,
        # wherever it neither overflows nor passes through a subnormal
        checked = 0
        for band, delta, K, m in product((2.0, 0.3, 1.7), (0.1, 0.013, 0.5), (2, 10, 21, 200),
                                         (1, 2, 4, 9, 17, 40, 80, 150)):
            try:
                env = (2.0 / (band * delta)) ** (2 * m)
            except OverflowError:
                continue
            cap = (K - 1.0) ** (1 - 2 * m)
            want = 2.0 * env * cap / (2 * m - 1)
            if min(cap, want) < float_info.min:
                continue
            assert _sinc_power_tail_factor(band, delta, K, m) == pytest.approx(want, rel=1e-14)
            checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("K", [10, 200])
    def test_sinc_tail_of_an_order_past_the_double_powers(self, K):
        # (2 / (A delta))^(2m) = 10^800 overflows a double; the factor,
        # (10 / (K - 1))^800 2 (K - 1) / 799, is 9.1e34 at K = 10 and below
        # the least double at K = 200
        ev = HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), K))
        phi = MultiplierSpec("sinc_power", order=400)
        v, tail = ev.multiplier_kernel(phi, 0.1, [0.2], [0.3])
        assert np.isfinite(v) and np.isfinite(tail)
        want = exp(800 * log(10 / (K - 1))) * 2 * (K - 1) / 799
        assert _sinc_power_tail_factor(2.0, 0.1, K, 400) == pytest.approx(want, rel=1e-12)

    def test_sinc_tail_factor_beyond_a_double_refused(self):
        with pytest.raises(CapacityError, match="beyond the range of a double"):
            _sinc_power_tail_factor(1e-300, 0.1, 20, 4)
        # A delta below the least double
        with pytest.raises(CapacityError, match="beyond the range of a double"):
            _sinc_power_tail_factor(1e-300, 1e-30, 20, 4)

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
        from polyheat.validation import kernel_selfadjointness_residual, random_coefficients

        rng = np.random.default_rng(31)
        for _ in range(5):
            f = random_coefficients(2, 10, rng)
            h = random_coefficients(2, 10, rng)
            assert kernel_selfadjointness_residual(ball_ev, 0.5, f, h) <= 1e-8

    @pytest.mark.parametrize("spec, degree, cap", [
        (DomainSpec.ball(2, 0.5), 12, 8), (DomainSpec.interval(1.5, -0.5), 80, 50)])
    def test_capped_evaluator(self, spec, degree, cap):
        # the damping covers the members up to the cap, not the whole basis
        from polyheat.validation import kernel_selfadjointness_residual, random_coefficients

        ev = HeatKernelEvaluator(build_basis(spec, degree),
                                 TruncationPolicy(1e-10, default_t_min(spec, cap), cap))
        rng = np.random.default_rng(33)
        f, h = random_coefficients(spec.n, 10, rng), random_coefficients(spec.n, 10, rng)
        assert kernel_selfadjointness_residual(ev, 0.5, f, h) <= 1e-12


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
            # the rank-one envelope exceeds the per-pair window by up to
            # about 6x where |p_k(x)| oscillates in k (the K=200 interval)
            assert np.all(tail <= 8 * old_tail), label

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
        assert peak <= 4 * X.shape[0] ** 2 * 8


def _sample(spec, count, rng):
    """Interior points of the interval, or of a 2-D ball or simplex."""
    if spec.n == 1:
        return np.cos(rng.uniform(0.1, 3.0, (count, 1)))
    return _points(spec, count, rng)


class TestTailEnvelope:
    """Rank-one tails against the per-level reference and the window maximum."""

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_tails_are_the_rank_one_envelope(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        sets = {p: _sample(ev.spec, p, rng) for p in (1, 7, 127, 128, 129, 300)}
        grids = [(sets[p], sets[p]) for p in (1, 127, 128, 129, 300)]
        grids += [(sets[1], sets[300]), (sets[129], sets[7]), (sets[300], sets[128])]
        t = ev.policy.t_min  # the tails underflow to zero at larger t on the interval
        for X, Y in grids:
            _, tail = ev.heat_kernel_grid(t, X, Y)
            assert tail.min() > 0
            assert np.array_equal(tail, reference_heat_tail(ev, t, X, Y)), (len(X), len(Y))
            if X is Y:
                assert np.array_equal(tail, tail.T), len(X)
            # the window maximum of the levels' per-pair bounds, by another
            # rounding route: a few units in the last place either way
            assert np.all(tail >= window_heat_tail(ev, t, X, Y) * (1 - 1e-15)), (len(X), len(Y))

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_dropped_levels_lie_inside_the_tail(self, fixture, request):
        # the levels past L enter the tail by Cauchy-Schwarz: their per-level
        # sum is at most d(x) d(y), with equality on the diagonal up to rounding
        ev = request.getfixturevalue(fixture)
        K, basis = ev.policy.hard_cap, ev.basis
        rng = np.random.default_rng(41)
        X, Y = _sample(ev.spec, 40, rng), _sample(ev.spec, 30, rng)
        for t in (0.05, 0.2, 1.0):
            t = max(t, ev.policy.t_min)
            g = np.exp(-ev.lambdas * t)
            L = levels_read(g)
            assert L < K or t < 0.2, t
            for A, B in ((X, X), (X, Y)):
                _, tail = ev.heat_kernel_grid(t, A, B)
                Va, Vb = basis.evaluate(A), basis.evaluate(B)
                dropped = np.zeros(tail.shape)
                for k in range(L + 1, K + 1):
                    sl = basis.level_slice(k)
                    dropped += g[k] * np.abs(Va[:, sl] @ Vb[:, sl].T)
                dd = np.outer(dropped_roots(ev, g, A), dropped_roots(ev, g, B))
                assert np.all(dropped <= dd * (1 + 1e-14)), t
                assert np.all(tail >= dd * (1 - 1e-14)), t
                # the product of the levels past L by another rounding route
                np.testing.assert_allclose(tail, reference_heat_tail(ev, t, A, B),
                                           rtol=1e-14, atol=0)


def _refusal(fn, *args):
    with pytest.raises(PrecisionError) as info:
        fn(*args)
    return str(info.value)


class TestProjectedChecks:
    """Mass and semigroup checks against whole kernel rows to the nodes."""

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_match_node_rows(self, fixture, request):
        ev = request.getfixturevalue(fixture)
        X = _sample(ev.spec, 5, np.random.default_rng(13))
        for t in (ev.policy.t_min, 0.2, 1.0):
            np.testing.assert_allclose(ev.mass_grid(t, X), reference_mass_grid(ev, t, X),
                                       rtol=0, atol=1e-14)
        for s, t in ((0.1, 0.2), (0.2, 0.1), (0.5, 0.5)):
            for x, z in ((X[0], X[1]), (X[2], X[2])):
                gap = ev.semigroup_check(s, t, x, z)
                assert abs(gap - reference_semigroup_gap(ev, s, t, x, z)) <= 1e-14

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev"])
    def test_member_masses_are_kept_and_change_no_bit(self, fixture, request):
        # w @ V_nodes is taken once per evaluator; every mass is the product
        # that took it afresh on each call
        # (the evaluator's cap is its basis degree: every member counts)
        basis = request.getfixturevalue(fixture).basis
        ev = HeatKernelEvaluator(basis)
        X = _sample(ev.spec, 5, np.random.default_rng(19))
        for t in (ev.policy.t_min, 0.2, 1.0):
            g = ev._per_member(np.exp(-ev.lambdas * t))
            fresh = (basis.evaluate(X) * g) @ (basis.quad.weights @ basis.node_values)
            assert np.array_equal(ev.mass_grid(t, X), fresh)
        assert ev.__dict__["_member_masses"] is ev._member_masses

    @pytest.mark.parametrize("spec, cap", [(DomainSpec.interval(-0.5, -0.5), 30),
                                           (DomainSpec.ball(2, 0.25), 10)])
    def test_refusals_name_the_node_row_figures(self, spec, cap):
        # the refusal of a check is the one of its kernel rows to the nodes,
        # achievable-t figure included
        ev = HeatKernelEvaluator(build_basis(spec, cap), TruncationPolicy(1e-10, 1e-4, cap))
        X = _sample(spec, 2, np.random.default_rng(17))
        nodes = ev.basis.quad.nodes
        for t, words in ((1e-5, "below t_min"), (2e-4, "is achievable for t >=")):
            want = _refusal(ev.heat_kernel_grid, t, X[:1], nodes)
            assert words in want
            assert _refusal(ev.mass_grid, t, X[:1]) == want
            assert _refusal(ev.mass_check, t, X[0]) == want
            assert _refusal(ev.semigroup_check, t, 0.5, X[0], X[1]) == want
            assert _refusal(ev.semigroup_check, 0.5, t, X[1], X[0]) == want


@pytest.fixture
def sweep_levels(monkeypatch):
    """The ``last`` level of each basis evaluation an evaluator makes."""
    def record(ev):
        seen = []
        values = ev.basis._values
        monkeypatch.setattr(ev.basis, "_values",
                            lambda pts, last=None: seen.append(last) or values(pts, last))
        return seen
    return record


@pytest.fixture(scope="module")
def capped_ev():
    """An evaluator whose policy cap lies below its basis degree."""
    spec = DomainSpec.interval(1.5, -0.5)
    return HeatKernelEvaluator(build_basis(spec, 80), TruncationPolicy(1e-10, 1e-5, 50))


def _full_product(ev, g, X, Y, L=None):
    """(V sqrt g) @ (V sqrt g).T over the members through level L (default
    the cap) from a full ``basis.evaluate`` of each side."""
    L = ev.policy.hard_cap if L is None else L
    sg = ev._per_member(np.sqrt(g))[: ev.basis.offsets[L + 1]]
    Wx = ev.basis.evaluate(X)[:, : len(sg)] * sg
    return Wx @ (Wx if Y is X else ev.basis.evaluate(Y)[:, : len(sg)] * sg).T


@pytest.fixture
def product_widths(monkeypatch):
    """The number of members in each factor of an evaluator's products."""
    def record(ev):
        seen = []
        weighted = ev._weighted

        def spy(V, *args):
            W, E = weighted(V, *args)
            seen.append(W.shape[1])
            return W, E
        monkeypatch.setattr(ev, "_weighted", spy)
        return seen
    return record


class TestLevelTrimmedSums:
    """A product reads the members through L, the last level of weight at
    least 2^-106 of the largest.  A raw array is evaluated through the cap
    where a tail past it is read, else through the last level of nonzero
    weight; the levels between L and that level go into the tail."""

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "simplex_ev", "capped_ev"])
    def test_products_read_the_members_through_L(self, fixture, request, sweep_levels,
                                                 product_widths):
        ev = request.getfixturevalue(fixture)
        K = ev.policy.hard_cap
        rng = np.random.default_rng(29)
        X, Y = _sample(ev.spec, 9, rng), _sample(ev.spec, 5, rng)
        # exp(-2000) underflows to 0, so the heat tail factor is exactly 0
        t = 2000.0 / eigenvalue(ev.spec, K + 1)
        heat_exp, sinc = MultiplierSpec("heat_exp"), MultiplierSpec("sinc_power")
        cases = [(lambda A, B: ev.heat_kernel_grid(t, A, B), np.exp(-ev.lambdas * t), False),
                 (lambda A, B: ev.multiplier_grid(heat_exp, sqrt(t), A, B),
                  heat_exp.phi(sqrt(t) * np.sqrt(ev.lambdas)), False)]
        for delta in (0.1, 0.3):
            phi = MultiplierSpec("smooth_bump")
            cases.append((lambda A, B, phi=phi, delta=delta: ev.multiplier_grid(phi, delta, A, B),
                          phi.phi(delta * np.sqrt(ev.lambdas)), False))
        # where a tail past the cap is read, the sweep runs to the cap (the
        # heat tail at t = 0.2 underflows on the K=200 interval)
        t_read = max(0.2, ev.policy.t_min)
        cases += [(lambda A, B: ev.heat_kernel_grid(t_read, A, B), np.exp(-ev.lambdas * t_read),
                   np.exp(-eigenvalue(ev.spec, K + 1) * t_read) > 0),
                  (lambda A, B: ev.multiplier_grid(sinc, 0.1, A, B),
                   sinc.phi(0.1 * np.sqrt(ev.lambdas)), True)]
        levels, widths = sweep_levels(ev), product_widths(ev)
        for call, g, past_cap in cases:
            last = K if past_cap else int(np.flatnonzero(g)[-1])
            L = levels_read(g)
            assert last < K or past_cap
            for A, B in ((X, X), (X, Y)):
                levels.clear()
                widths.clear()
                value, tail = call(A, B)
                assert levels == [last]
                assert widths == [ev.basis.offsets[L + 1]] * (1 if A is B else 2)
                assert np.array_equal(value, _full_product(ev, g, A, B, L))
                assert tail.any() == (past_cap or L < last)
        # the heat kernel at t = 0.2 leaves levels out on every fixture
        assert levels_read(np.exp(-ev.lambdas * t_read)) < K

    def test_policy_cap_below_the_basis_degree(self, capped_ev, sweep_levels):
        # a tail is read: the sweep runs to the cap, not to the basis degree
        ev, K = capped_ev, capped_ev.policy.hard_cap
        assert K < ev.basis.max_degree
        rng = np.random.default_rng(31)
        X, Y = _sample(ev.spec, 7, rng), _sample(ev.spec, 4, rng)
        levels = sweep_levels(ev)
        for t in (0.002, 0.01):
            for A, B in ((X, X), (X, Y)):
                levels.clear()
                value, tail = ev.heat_kernel_grid(t, A, B)
                assert levels == [K] and tail.min() > 0
                assert np.array_equal(value, _full_product(ev, np.exp(-ev.lambdas * t), A, B))
        levels.clear()
        P = ev.point_set(X)
        assert levels == [K] and P.values.shape == (len(X), ev.basis.level_slice(K).stop)

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev", "capped_ev"])
    def test_under_resolved_refusal_names_level_K(self, fixture, request):
        # the achievable t comes from the values of level K at every point,
        # as a full evaluation gives them
        base = request.getfixturevalue(fixture)
        K, eps = base.policy.hard_cap, base.policy.epsilon
        ev = HeatKernelEvaluator(base.basis, TruncationPolicy(eps, 1e-6, K))
        rng = np.random.default_rng(37)
        X, Y = _sample(ev.spec, 6, rng), _sample(ev.spec, 3, rng)
        gap = eigenvalue(ev.spec, K + 1) - ev.lambdas[K]
        t = max(ev.policy.t_min, 0.05 / gap)
        sl = ev.basis.level_slice(K)
        for A, B in ((X, X), (X, Y)):
            cx = np.sum(ev.basis.evaluate(A)[:, sl] ** 2, axis=1).max()
            cy = np.sum(ev.basis.evaluate(B)[:, sl] ** 2, axis=1).max()
            achievable = (log(max(sqrt(cx * cy), 1.0) * (K + 1)) - log(eps)) / ev.lambdas[K]
            want = (f"t={t:g} is under-resolved for the basis cap {K}: post-cap decay ratio "
                    f"{np.exp(-gap * t):.3f} > 0.9; epsilon={eps:g} is achievable for "
                    f"t >= {achievable:.4g}")
            assert _refusal(ev.heat_kernel_grid, t, A, B) == want
            assert _refusal(ev.multiplier_grid, MultiplierSpec("heat_exp"), sqrt(t), A, B) == want


class TestOneSweep:
    """A raw pair of point arrays costs one basis evaluation."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        def count(ev):
            calls = []
            values = ev.basis._values
            monkeypatch.setattr(ev.basis, "_values",
                                lambda pts, last=None: calls.append(len(pts)) or values(pts, last))
            return calls
        return count

    @pytest.mark.parametrize("fixture", ["cheb_ev", "ball_ev"])
    def test_raw_pair_is_one_sweep(self, fixture, request, sweeps):
        ev = request.getfixturevalue(fixture)
        rng = np.random.default_rng(19)
        X, Y = _sample(ev.spec, 5, rng), _sample(ev.spec, 3, rng)
        calls = sweeps(ev)
        for name, call in [
                ("heat_kernel_grid", lambda: ev.heat_kernel_grid(0.2, X, Y)),
                ("multiplier_grid",
                 lambda: ev.multiplier_grid(MultiplierSpec("sinc_power"), 0.1, X, Y)),
                ("heat_kernel", lambda: ev.heat_kernel(0.2, X[0], Y[0])),
                ("semigroup_check", lambda: ev.semigroup_check(0.1, 0.2, X[0], Y[0]))]:
            calls.clear()
            call()
            assert calls == [len(X) + len(Y) if name.endswith("grid") else 2], name

    def test_localization_one_sweep_per_delta(self, cheb_ev, sweeps):
        vol = VolumeSource(cheb_ev.spec)
        calls = sweeps(cheb_ev)
        for delta in (0.1, 0.05):
            localization_check(cheb_ev, delta, 3, vol)
        assert len(calls) == 2

    def test_mismatched_pair_is_a_domain_error(self, ball_ev):
        X = _points(ball_ev.spec, 3, np.random.default_rng(23))
        for A, B in ((X, X[:, :1]), (X[:, :1], X), ([[0.1, 0.2, 0.3]], X)):
            for call in (lambda: ball_ev.heat_kernel_grid(0.2, A, B),
                         lambda: ball_ev.multiplier_grid(MultiplierSpec("heat_exp"), 0.2, A, B),
                         lambda: ball_ev.semigroup_check(0.1, 0.2, A[0], B[0])):
                with pytest.raises(DomainError, match="^points have the wrong dimension$"):
                    call()
