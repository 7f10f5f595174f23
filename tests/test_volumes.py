import tracemalloc
from dataclasses import astuple
from functools import partial
from itertools import product
from math import acos, pi, sin, sqrt

import numpy as np
import pytest

from polyheat import volumes
from polyheat.cli import main
from polyheat.config import load_config
from polyheat.domains import DomainSpec, chart_lift, distance_many, lift_rows, total_mass
from polyheat.errors import DomainError, ParameterError, PrecisionError
from polyheat.validation import interior_points
from polyheat.volumes import VolumeSource, ball_volume, refuse_imprecise, volume_surrogate

from _oracles import (arc_volume_chebyshev, interval_volume_mp, monte_carlo_volumes,
                      sample_measure)

BALL3 = DomainSpec.ball(3, 0.5)
SIMPLEX3 = DomainSpec.simplex(3, (0.5, 0.5, 0.5, 0.5))


class TestSurrogate:
    def test_examples(self):
        assert volume_surrogate(DomainSpec.ball(2, 0.0), (0.0, 0.0), 0.3) == pytest.approx(0.09)
        assert volume_surrogate(DomainSpec.interval(-0.5, -0.5), (0.3,), 0.2) == pytest.approx(0.2)
        got = volume_surrogate(DomainSpec.simplex(1, (0.5, 0.5)), (0.0,), 0.3)
        assert got == pytest.approx(0.3 * sqrt(1.09) * sqrt(0.09), rel=1e-12)

    def test_range_error(self):
        with pytest.raises(DomainError):
            volume_surrogate(DomainSpec.ball(2, 0.0), (0.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            volume_surrogate(DomainSpec.ball(2, 0.0), (0.0, 0.0), 4.0)


class TestIntervalExact:
    def test_arc_length(self):
        spec = DomainSpec.interval(-0.5, -0.5)
        for x in (1.0, 0.3, -0.7):
            for r in (0.1, 0.5, 1.5):
                est = ball_volume(spec, (x,), r)
                assert est.stderr == 0.0
                assert est.method == "exact1d"
                assert est.value == pytest.approx(arc_volume_chebyshev(x, r), rel=1e-12)

    def test_whole_domain(self):
        for spec in (DomainSpec.interval(0.3, -0.4), DomainSpec.ball(2, 0.5),
                     DomainSpec.simplex(2, (0.5, 0.5, 0.5))):
            est = ball_volume(spec, np.zeros(spec.n) if spec.kind != "simplex"
                              else np.full(spec.n, 0.2), pi)
            assert est.value == pytest.approx(total_mass(spec), rel=1e-12)

    @pytest.mark.parametrize("alpha, beta", list(product((-0.9, -0.5, 0.0, 1.5), repeat=2))
                             + [(-0.99, 4.0), (7.0, -0.7)])
    def test_matches_incomplete_beta_oracle(self, alpha, beta):
        # the acceptance pairs and two beyond them, at interior points and
        # next to both ends, from arcs of 2e-4 to ones covering [0, pi]
        spec = DomainSpec.interval(alpha, beta)
        xs = np.array([-1.0, -0.999999, -0.999, -0.6, -0.1, 0.3, 0.8, 0.999, 0.999999, 1.0])
        for r in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0):
            got = VolumeSource(spec).estimates(xs[:, None], r)[0]
            want = np.array([interval_volume_mp(alpha, beta, x, r) for x in xs])
            assert np.all(np.abs(got - want) <= 1e-11 * want), (r, got, want)

    @pytest.mark.parametrize("alpha, beta, x, r, want", [
        (1.5, -0.5, 0.999999, 1e-4, 2.0200e-16),
        (3.0, 1.5, 0.999999, 0.01, 1.2732e-17),
        (3.0, 0.0, 0.999, 0.01, 1.222656e-12),
    ])
    def test_short_arcs_near_the_end(self, alpha, beta, x, r, want):
        # a difference of two incomplete Betas cancels here: it read
        # 5.2318e-16, 0.0 and 1.22302e-12
        got = ball_volume(DomainSpec.interval(alpha, beta), (x,), r).value
        assert got == pytest.approx(interval_volume_mp(alpha, beta, x, r), rel=1e-11)
        assert got == pytest.approx(want, rel=1e-4)

    def test_radius_error(self):
        with pytest.raises(DomainError):
            ball_volume(DomainSpec.interval(-0.5, -0.5), (0.0,), -0.1)
        # NaN is no radius either, on the one-point and on the row path
        for spec, x in ((DomainSpec.ball(2, 0.5), (0.1, 0.2)), (BALL3, (0.1, 0.2, 0.0))):
            with pytest.raises(DomainError, match="radius must be positive"):
                ball_volume(spec, x, float("nan"))
            with pytest.raises(DomainError, match="radius must be positive"):
                VolumeSource(spec).estimates([x], float("nan"))
        # a one-point query takes one radius, not an array of them
        cases = ((DomainSpec.interval(0.0, 0.5), (0.1,)), (DomainSpec.ball(2, 0.5), (0.1, 0.2)),
                 (BALL3, (0.1, 0.2, 0.0)))
        for (spec, x), r in product(cases, (np.array([0.1]), np.array([0.1, 0.2]))):
            for query in (partial(ball_volume, spec), VolumeSource(spec)):
                with pytest.raises(DomainError, match=r"radius has shape \(\d,\)") as err:
                    query(x, r)
                assert "\n" not in str(err.value)


class TestOneDimensionalTransfer:
    """ball(1, g) and simplex(1, k) volumes are the interval's.

    Tolerances, fixed before the first run: ball(1, g) equals
    interval(g - 1/2, g - 1/2) exactly (the same measure and distance);
    simplex(1, k) is within 1e-11 relative of 2^-(a+b+1) times the
    incomplete-Beta oracle of interval(a, b) = (k_2 - 1/2, k_1 - 1/2) at
    x = 2u - 1 and radius 2r; both lie within 5 standard errors of plain
    Monte Carlo with 200000 samples; every stderr is 0.  Where no sample or
    every sample falls in the ball, the Monte Carlo stderr reads 0, so it
    is taken as at least the mass of one sample.
    """

    RADII = (0.01, 0.1, 0.5, 1.2)

    @staticmethod
    def monte_carlo(spec, points):
        samples = 200_000
        mc, err = monte_carlo_volumes(spec, points, TestOneDimensionalTransfer.RADII,
                                      samples=samples, seed=2024)
        return mc, np.maximum(err, total_mass(spec) / samples)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 2.0])
    def test_ball1_is_the_interval(self, gamma):
        spec = DomainSpec.ball(1, gamma)
        xs = np.array([[-1.0], [-0.6], [0.0], [0.3], [0.999]])
        interval = VolumeSource(DomainSpec.interval(gamma - 0.5, gamma - 0.5))
        mc, mc_err = self.monte_carlo(spec, xs)
        for j, r in enumerate(self.RADII):
            got, err = VolumeSource(spec).estimates(xs, r)
            want, _ = interval.estimates(xs, r)
            assert np.array_equal(got, want) and not err.any()
            assert np.all(np.abs(got - mc[:, j]) <= 5 * mc_err[:, j]), r

    @pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.3, 1.2), (1.5, 0.2)])
    def test_simplex1_is_the_interval_at_twice_the_radius(self, kappa):
        spec = DomainSpec.simplex(1, kappa)
        a, b = kappa[1] - 0.5, kappa[0] - 0.5
        us = np.array([[0.0], [0.001], [0.2], [0.5], [0.93], [1.0]])
        mc, mc_err = self.monte_carlo(spec, us)
        for j, r in enumerate(self.RADII):
            got, err = VolumeSource(spec).estimates(us, r)
            want = np.array([2.0 ** -(a + b + 1) * interval_volume_mp(a, b, 2 * u - 1, 2 * r)
                             for u in us[:, 0]])
            assert np.all(np.abs(got - want) <= 1e-11 * want) and not err.any(), r
            assert np.all(np.abs(got - mc[:, j]) <= 5 * mc_err[:, j]), r

    def test_ball1_reads_the_exact_volume(self):
        est = ball_volume(DomainSpec.ball(1, 0.5), (0.3,), 0.1)
        assert (est.stderr, est.method, est.samples) == (0.0, "exact1d", 0)
        assert est.value == pytest.approx(0.19047002, abs=5e-9)
        assert est == ball_volume(DomainSpec.interval(0.0, 0.0), (0.3,), 0.1)


class TestMonteCarlo:
    def test_flat_limit_ball(self):
        # gamma = 1/2 is Lebesgue measure and rho(0, y) = arcsin|y|, so
        # V(0, r) = (4/3) pi sin^3 r
        for r in (0.1, 0.4, 1.0):
            est = ball_volume(BALL3, (0.0, 0.0, 0.0), r, samples=400_000, seed=5)
            assert est.method == "montecarlo" and est.samples == 400_000
            assert 0 < est.stderr < 0.05 * est.value
            assert abs(est.value - 4 / 3 * pi * sin(r) ** 3) <= 4 * est.stderr

    def test_deterministic_given_seed(self):
        spec = SIMPLEX3
        x = np.array([0.2, 0.2, 0.2])
        a = ball_volume(spec, x, 0.4, samples=50_000, seed=42)
        assert a.method == "montecarlo" and a.samples == 50_000
        b = ball_volume(spec, x, 0.4, samples=50_000, seed=42)
        assert a.value == b.value and a.stderr == b.stderr
        c = ball_volume(spec, x, 0.4, samples=50_000, seed=43)
        assert c.value != a.value

    def test_no_samples_refused(self):
        for spec, x in ((BALL3, (0, 0, 0)), (SIMPLEX3, (0.2, 0.2, 0.2))):
            with pytest.raises(ParameterError, match="at least 1 sample, got 0") as info:
                ball_volume(spec, x, 0.3, samples=0)
            assert "\n" not in str(info.value)
        # one sample is a sample: V is 0 or the total mass
        est = ball_volume(BALL3, (0, 0, 0), 0.3, samples=1, seed=2)
        assert est.samples == 1 and est.value in (0.0, total_mass(BALL3)) and est.stderr == 0.0

    def test_sample_beyond_the_byte_budget_is_refused_before_any_draw(self, tmp_path):
        # 10^11 samples of ball(3) take 3.2 TB lifted; the refusals come
        # from the config and from the volume query before anything is drawn
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[domain]\nkind = ball\nn = 3\n[mc]\nsamples = 100000000000\n")
        x = np.array([[0.1, 0.1, 0.1]])
        tracemalloc.start()
        try:
            for call in (lambda: load_config(str(cfgfile)),
                         lambda: load_config(None, spec=SIMPLEX3, mc_samples=10 ** 11),
                         lambda: ball_volume(BALL3, x[0], 0.3, samples=10 ** 11),
                         lambda: VolumeSource(SIMPLEX3, samples=10 ** 11).estimates(x, 0.3)):
                with pytest.raises(ParameterError, match="beyond the budget of 1073741824"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_sample_budget_edge(self):
        # n + 1 doubles a draw: the largest sample of ball(3) within the budget passes
        most = volumes.MAX_SAMPLE_BYTES // 32
        volumes.check_samples(BALL3, most)
        with pytest.raises(ParameterError, match=f"{most + 1} Monte Carlo samples on "):
            volumes.check_samples(BALL3, most + 1)

    @pytest.mark.parametrize("gamma", [-0.4, 0.5, 1.5])
    def test_lifted_ball_sample_law(self, gamma):
        # rows lie on the unit sphere, and v = 1 - y_4^2, the squared radius,
        # is Beta(3/2, gamma + 1/2) with mean 3 / (4 + 2 gamma)
        spec, N = DomainSpec.ball(3, gamma), 200_000
        cloud = volumes._draw_lifted(spec, N, 3)
        assert cloud.shape == (N, 4) and not cloud.flags.writeable
        assert np.allclose(np.einsum("ij,ij->i", cloud, cloud), 1.0, rtol=0, atol=1e-14)
        assert np.all(cloud[:, 3] >= 0)
        v = 1 - cloud[:, 3] ** 2
        mean = 3 / (4 + 2 * gamma)
        assert abs(v.mean() - mean) <= 4 * np.sqrt(mean * (1 - mean) / N)
        # the directions are uniform: each coordinate of y / |y| has mean 0
        # and second moment 1/3
        dirs = cloud[:, :3] / np.sqrt(v)[:, None]
        assert np.all(np.abs(dirs.mean(axis=0)) <= 4 / np.sqrt(3 * N))
        assert np.allclose((dirs ** 2).mean(axis=0), 1 / 3, atol=4e-3)

    def test_sampler_moments(self):
        # Dirichlet marginal mean of coordinate i is (kappa_i + 1/2)/(|kappa| + (n+1)/2)
        spec = DomainSpec.simplex(2, (0.5, 1.5, 0.5))
        rng = np.random.default_rng(7)
        pts = sample_measure(spec, 200_000, rng)
        denom = sum(spec.kappa) + 1.5
        assert pts[:, 0].mean() == pytest.approx(1.0 / denom, rel=0.02)
        assert pts[:, 1].mean() == pytest.approx(2.0 / denom, rel=0.02)

    def test_ball_sampler_radial_law(self):
        spec = DomainSpec.ball(2, 0.5)
        rng = np.random.default_rng(8)
        pts = sample_measure(spec, 200_000, rng)
        v = (pts ** 2).sum(axis=1)
        # r^2 ~ Beta(n/2, gamma + 1/2) = Beta(1, 1) = uniform
        assert v.mean() == pytest.approx(0.5, abs=0.01)


class TestVolumeSource:
    def test_cache_and_refusal(self):
        src = VolumeSource(BALL3, samples=50_000, seed=3)
        # a repeated query reads the same cached sample
        a = src((0.1, 0.1, 0.1), 0.4)
        b = src((0.1, 0.1, 0.1), 0.4)
        assert a == b
        # the source refuses nothing; the scans gate what they read
        few = VolumeSource(BALL3, samples=2_000, seed=3)
        values, stderrs = few.estimates([(0.1, 0.1, 0.1)], 0.2)
        assert (values[0], stderrs[0]) == astuple(few((0.1, 0.1, 0.1), 0.2))[:2]
        with pytest.raises(PrecisionError, match="raise the sample budget"):
            refuse_imprecise(BALL3, [(0.1, 0.1, 0.1)], [0.2], values, stderrs, 0.001)

    def test_flat_disc_at_center_is_exact_within_stderr(self):
        # gamma = 1/2 is Lebesgue measure and rho(0, y) = arcsin|y|, so
        # V(0, r) = pi sin^2 r
        src = VolumeSource(DomainSpec.ball(2, 0.5), samples=200_000, seed=9)
        for r in (0.05, 0.1, 0.45, 1.0, 1.4):
            est = src((0.0, 0.0), r)
            assert est.method == "cap_quadrature" and est.samples == 0
            assert abs(est.value - pi * sin(r) ** 2) <= est.stderr + 1e-14 * est.value

    @pytest.mark.parametrize("spec, x", [
        (DomainSpec.ball(2, 0.25), (0.2, -0.3)),
        (DomainSpec.simplex(2, (0.5, 1.5, 0.5)), (0.2, 0.3)),
    ])
    def test_matches_independent_distance_estimate(self, spec, x):
        src = VolumeSource(spec, samples=200_000, seed=4)
        pts = sample_measure(spec, 200_000, np.random.default_rng(17))
        mass = total_mass(spec)
        for r in (0.15, 0.5):
            p = np.mean(distance_many(spec, x, pts) < r)
            ref, ref_err = mass * p, mass * sqrt(p * (1 - p) / len(pts))
            est = src(x, r)
            assert abs(est.value - ref) <= 4 * sqrt(est.stderr ** 2 + ref_err ** 2)

    def test_doubling_is_monotone_on_one_source(self):
        for spec in (DomainSpec.ball(3, 0.0), SIMPLEX3):
            src = VolumeSource(spec, samples=50_000, seed=6)
            for x in ((0.1, 0.2, 0.1), (0.3, 0.05, 0.2), (0.3, 0.3, 0.3)):
                for r in (0.01, 0.05, 0.2, 0.7, 1.4):
                    assert src(x, 2 * r).value >= src(x, r).value

    def test_query_order_does_not_matter(self):
        spec = SIMPLEX3
        queries = [((0.1, 0.2, 0.1), 0.1), ((0.3, 0.3, 0.2), 0.4), ((0.6, 0.1, 0.1), 0.05)]
        forward = VolumeSource(spec, samples=50_000, seed=8)
        a = [forward(x, r) for x, r in queries]
        # a query on another domain between the two runs evicts the cached sample
        ball_volume(BALL3, (0.0, 0.0, 0.0), 0.3, samples=1_000, seed=8)
        backward = VolumeSource(spec, samples=50_000, seed=8)
        b = [backward(x, r) for x, r in reversed(queries)][::-1]
        assert a == b

    def test_geom_volume_matches_source(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[domain]\nkind = simplex\nn = 2\nkappa = 0.5, 1.5, 0.5\n"
                       "[run]\nseed = 21\n")
        assert main(["--config", str(cfg), "geom", "volume", "--x", "0.2,0.3", "--r", "0.4",
                     "--samples", "60000"]) == 0
        value, stderr = capsys.readouterr().out.splitlines()[1].split(",")[-2:]
        est = VolumeSource(DomainSpec.simplex(2, (0.5, 1.5, 0.5)), 60_000, 21)((0.2, 0.3), 0.4)
        assert (float(value), float(stderr)) == (float(f"{est.value:.12g}"),
                                                 float(f"{est.stderr:.12g}"))

    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.7, -0.3), (-0.9, 1.5)])
    def test_interval_many_points_match_scalar(self, alpha, beta):
        spec = DomainSpec.interval(alpha, beta)
        xs = np.concatenate([[-1.0, 1.0, 0.0], np.cos(np.linspace(0.01, pi - 0.01, 36))])
        for r in (1e-3, 0.1, 0.7, 2.0, pi):
            src = VolumeSource(spec)
            got = src.estimates(xs[:, None], r)[0]
            want = np.array([ball_volume(spec, (x,), r).value for x in xs])
            assert np.all(np.abs(got - want) <= 1e-14 * want)
        if (alpha, beta) == (-0.5, -0.5):
            arcs = [arc_volume_chebyshev(x, 0.7) for x in xs]
            assert np.allclose(VolumeSource(spec).estimates(xs[:, None], 0.7)[0], arcs,
                               rtol=1e-13, atol=0.0)

    def test_interval_many_points_refuse_like_scalar(self):
        src = VolumeSource(DomainSpec.interval(0.0, 0.0))
        with pytest.raises(DomainError):
            src.estimates([[0.2], [1.5]], 0.3)
        with pytest.raises(DomainError):
            src.estimates([[np.nan]], 0.3)
        with pytest.raises(DomainError):
            src.estimates([[0.2]], 0.0)

    @pytest.mark.parametrize("spec, points", [
        (DomainSpec.ball(2, 0.5), np.full((2, 3), 0.1)),
        (DomainSpec.interval(0.0, 0.0), [[0.1, 0.2]]),
        (DomainSpec.ball(2, 0.5), [[0.1, 0.2], [np.nan, 0.0]]),
    ])
    def test_rows_of_another_width_or_nan_refuse(self, spec, points):
        src = VolumeSource(spec, samples=1_000, seed=1)
        with pytest.raises(DomainError) as err:
            src.estimates(points, 0.3)
        assert "\n" not in str(err.value)

    def test_monte_carlo_many_points_are_single_queries(self):
        spec = SIMPLEX3
        xs = np.array([(0.1, 0.2, 0.1), (0.3, 0.3, 0.2), (0.6, 0.1, 0.1)])
        got = VolumeSource(spec, samples=50_000, seed=8).estimates(xs, 0.3)[0]
        single = VolumeSource(spec, samples=50_000, seed=8)
        assert got.tolist() == [single(x, 0.3).value for x in xs]

    def test_memory_is_one_lifted_sample(self):
        spec, N = BALL3, 200_000
        rng = np.random.default_rng(3)
        xs = sample_measure(spec, 20, rng)
        tracemalloc.start()
        try:
            # the sample of another seed is held on entry and must be
            # released before the new one is drawn
            ball_volume(spec, (0.0, 0.0, 0.0), 0.3, samples=N, seed=11)
            tracemalloc.reset_peak()
            src = VolumeSource(spec, samples=N, seed=12)
            for x, r in zip(xs, np.linspace(0.05, 1.5, 20)):
                src(x, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (spec.n + 1) * N * 8


ORACLE_RADII = (0.05, 0.1, 0.45, 1.0, 1.4)
# a center, an inner point, points near a face, and (simplex) near a vertex
ORACLE_CASES = [
    *[(DomainSpec.ball(2, g), [(0.0, 0.0), (0.3, -0.5), (0.97, 0.1), (0.0, -0.999)])
      for g in (-0.4, 0.0, 0.5, 1.0)],
    *[(DomainSpec.simplex(2, k), [(0.3, 0.3), (0.5, 0.001), (0.01, 0.02), (0.98, 0.01)])
      for k in ((0.5, 0.5, 0.5), (-0.3, 0.8, 1.7), (-0.4, 0.0, 1.0))],
]
ORACLE_IDS = [spec.label() for spec, _ in ORACLE_CASES]


class TestCapQuadrature:
    @pytest.mark.parametrize("spec, points", ORACLE_CASES, ids=ORACLE_IDS)
    def test_matches_monte_carlo_oracle(self, spec, points):
        samples = 1_000_000
        ref, ref_err = monte_carlo_volumes(spec, points, ORACLE_RADII, samples, seed=2024)
        src = VolumeSource(spec)
        for k, r in enumerate(ORACLE_RADII):
            values, stderrs = src.estimates(points, r)
            # one sample's mass keeps a query the sample never hits comparable
            tol = 4 * np.sqrt(ref_err[:, k] ** 2 + stderrs ** 2) + total_mass(spec) / samples
            assert np.all(np.abs(values - ref[:, k]) <= tol), (r, values, ref[:, k], tol)

    @pytest.mark.parametrize("spec, points", ORACLE_CASES, ids=ORACLE_IDS)
    def test_stderr_bounds_the_error_of_a_finer_rule(self, spec, points, monkeypatch):
        src = VolumeSource(spec)
        got = [src.estimates(points, r) for r in ORACLE_RADII]
        monkeypatch.setattr(volumes, "CAP_ORDERS", ((64, 24, 15, 32), (96, 32, 15, 64)))
        monkeypatch.setattr(volumes, "CAP_PHI_MAX", 128)
        for (values, stderrs), r in zip(got, ORACLE_RADII):
            fine = src.estimates(points, r)[0]
            assert np.all(np.abs(values - fine) <= stderrs + 1e-13 * fine), (r, values, fine)

    @pytest.mark.parametrize("spec, points", ORACLE_CASES + [
        (DomainSpec.simplex(2, (0.5, -0.3, 1.2)), [(0.3, 0.3), (0.5, 0.001), (0.001, 0.5)])],
        ids=ORACLE_IDS + ["simplex-half-and-others"])
    def test_rows_equal_one_point_queries_bit_for_bit(self, spec, points, monkeypatch):
        src = VolumeSource(spec)
        for r in ORACLE_RADII:
            rows = src.estimates(points, r)[0]
            assert rows.tolist() == [src(x, r).value for x in points]
            assert src.estimates(points[::-1], r)[0].tolist() == rows[::-1].tolist()
            est = src(points[1], r)
            assert est.method == "cap_quadrature" and est.samples == 0
        # array passes of a few phi nodes each split panels between passes
        monkeypatch.setattr(volumes, "CAP_CHUNK", 100)
        assert src.estimates(points, ORACLE_RADII[-1])[0].tolist() == rows.tolist()

    def test_total_mass_once_r_reaches_the_farthest_point(self):
        # from y = lift(x) the farthest point of the hemisphere lies
        # pi/2 + arccos(y_3) away, and the farthest of the orthant is the
        # vertex e_i of the smallest y_i, arccos(y_i) away
        cases = [(DomainSpec.ball(2, 0.5), (0.0, 0.0)), (DomainSpec.ball(2, -0.4), (0.3, -0.5)),
                 (DomainSpec.ball(2, 1.0), (0.6, 0.2)),
                 (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), (0.3, 0.3)),
                 (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), (0.2, 0.5))]
        for spec, x in cases:
            y = chart_lift(spec, x)
            far = pi / 2 + acos(y[2]) if spec.kind == "ball" else max(acos(v) for v in y)
            mass = total_mass(spec)
            est = ball_volume(spec, x, far + 1e-9)
            assert abs(est.value - mass) <= est.stderr + 1e-12 * mass, (spec, est, mass)
        # at the diameter (pi/2 on the simplex) every point answers the mass
        spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
        assert ball_volume(spec, (0.98, 0.01), pi / 2).value == total_mass(spec)

    @pytest.mark.parametrize("spec, points", [
        (DomainSpec.ball(2, 0.5), [(1.0, 0.0), (0.6, -0.8)]),
        (DomainSpec.ball(2, -0.4), [(0.0, 1.0)]),
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 0.5)]),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), [(0.0, 0.3), (0.0, 1.0), (0.4, 0.6)]),
    ], ids=["ball-half", "ball-negative", "simplex-half", "simplex-mixed"])
    def test_points_on_faces_and_vertices(self, spec, points):
        mass = total_mass(spec)
        for r in ORACLE_RADII:
            values, stderrs = VolumeSource(spec).estimates(points, r)
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(stderrs))
            assert np.all(values > 0) and np.all(values <= mass * (1 + 1e-12))

    @pytest.mark.parametrize("spec, form", [
        # the cap area 2 pi (1 - cos r), written without its cancellation
        (DomainSpec.ball(2, 0.0), lambda X, r: 4 * pi * np.sin(r / 2) ** 2),
        # dx = 4 dsigma on the orthant
        (DomainSpec.simplex(2, (0.0, 0.0, 0.0)), lambda X, r: 16 * pi * np.sin(r / 2) ** 2),
        # the linear density y_3 averages to its value at the center times
        # the mean of cos(theta) over the cap
        (DomainSpec.ball(2, 0.5),
         lambda X, r: pi * np.sin(r) ** 2 * np.sqrt(1 - np.sum(X * X, axis=1))),
    ], ids=["ball-0", "simplex-0", "ball-half"])
    def test_whole_caps_match_closed_forms(self, spec, form):
        pts = interior_points(spec, 40, margin=0.3)
        faces = lift_rows(spec, pts)[:, list(spec.lift.faces)]
        for r in (0.05, 0.1, 0.3):
            # every cap is whole: clear of every face
            assert np.all(faces > sin(r))
            values, stderrs = VolumeSource(spec).estimates(pts, r)
            want = form(pts, r)
            assert np.all(np.abs(values - want) <= 1e-13 * want), r
            assert np.all(stderrs <= 1e-13 * want), r

    def test_row_sum_is_the_sum_of_a_contiguous_row(self):
        rng = np.random.default_rng(11)
        for n in (*range(1, 40), 127, 128, 129, 200, 300):
            a = rng.standard_normal((n, 50)) * 10.0 ** rng.integers(-8, 9, (n, 50))
            assert volumes._row_sum(a).tolist() == np.ascontiguousarray(a.T).sum(axis=1).tolist()

    @pytest.mark.parametrize("spec", [DomainSpec.ball(2, 0.5), DomainSpec.simplex(2, (0.5, 0.5, 0.5))],
                             ids=["ball", "simplex"])
    def test_validation_radii_are_resolved(self, spec):
        # the points and radii of `validate all` at the default config:
        # doubling radii and their doubles, sqrt of the heat times, deltas
        pts = interior_points(spec, 10)
        for r in (0.1, 0.2, 0.3, 0.6, 0.7, 1.4, sqrt(0.05), sqrt(0.2), 1.0):
            values, stderrs = VolumeSource(spec).estimates(pts, r)
            assert np.all(stderrs <= 1e-6 * values), r


# the ends, points next to them and inner points of three interval weights
INTERVAL_CASES = [
    (DomainSpec.interval(a, b), [(-1.0,), (-0.999,), (-0.3,), (0.4,), (0.9999,), (1.0,)])
    for a, b in ((-0.5, -0.5), (-0.9, 1.5), (1.5, 0.0))]
# the oracle radii, and radii at and past the diameter (pi/2 on the simplex)
MIXED_RADII = ORACLE_RADII + (pi / 2, 2.0, pi, 4.0)


class TestPerRowRadii:
    @pytest.mark.parametrize("spec, points", ORACLE_CASES + INTERVAL_CASES,
                             ids=ORACLE_IDS + [s.label() for s, _ in INTERVAL_CASES])
    def test_mixed_radii_equal_one_radius_calls_bit_for_bit(self, spec, points, monkeypatch):
        src = VolumeSource(spec)
        scalar = [src.estimates(points, r) for r in MIXED_RADII]
        want_v = np.concatenate([v for v, _ in scalar])
        want_e = np.concatenate([e for _, e in scalar])
        X = np.tile(points, (len(MIXED_RADII), 1))
        R = np.repeat(MIXED_RADII, len(points))
        shuffle = np.random.default_rng(5).permutation(len(X))
        for chunk in (volumes.CAP_CHUNK, 100):
            # array passes of a few phi nodes each split panels between passes
            monkeypatch.setattr(volumes, "CAP_CHUNK", chunk)
            values, stderrs = src.estimates(X, R)
            assert values.tolist() == want_v.tolist() and stderrs.tolist() == want_e.tolist()
            values, stderrs = src.estimates(X[shuffle], R[shuffle])
            assert values.tolist() == want_v[shuffle].tolist()
            assert stderrs.tolist() == want_e[shuffle].tolist()
        # at and past the diameter a row reads the total mass, stderr 0
        far = R >= (pi / 2 if spec.kind == "simplex" else pi)
        assert np.all(want_v[far] == total_mass(spec)) and np.all(want_e[far] == 0.0)

    def test_dimension_three_rows_are_one_point_queries(self):
        for spec in (BALL3, SIMPLEX3):
            xs = np.array([(0.1, 0.2, 0.1), (0.3, 0.3, 0.2), (0.2, 0.1, 0.1)])
            radii = np.array([0.3, 0.05, 4.0])
            got = VolumeSource(spec, samples=20_000, seed=8).estimates(xs, radii)
            single = VolumeSource(spec, samples=20_000, seed=8)
            want = [single(x, r) for x, r in zip(xs, radii)]
            assert got[0].tolist() == [e.value for e in want]
            assert got[1].tolist() == [e.stderr for e in want]

    @pytest.mark.parametrize("spec", [DomainSpec.interval(0.0, 0.5), DomainSpec.ball(2, 0.5),
                                      DomainSpec.simplex(2, (0.5, 0.5, 0.5)), BALL3],
                             ids=["interval", "ball", "simplex", "ball3"])
    def test_bad_radii_refuse_in_one_line(self, spec):
        src = VolumeSource(spec, samples=1_000, seed=1)
        points = np.full((3, spec.n), 0.2)
        for r, match in (([0.1, float("nan"), 0.2], "radius must be positive"),
                         ([0.1, 0.0, 0.2], "radius must be positive"),
                         ([0.1, 0.2, -0.3], "radius must be positive"),
                         ([0.1, 0.2], r"radii have shape \(2,\)"),
                         ([[0.1, 0.2, 0.3]], r"radii have shape \(1, 3\)")):
            with pytest.raises(DomainError, match=match) as err:
                src.estimates(points, r)
            assert "\n" not in str(err.value)

    @pytest.mark.parametrize("spec", [DomainSpec.interval(0.0, 0.5), DomainSpec.ball(2, 0.5),
                                      DomainSpec.simplex(2, (0.5, 0.5, 0.5)), SIMPLEX3],
                             ids=["interval", "ball", "simplex", "simplex3"])
    def test_no_rows_give_empty_arrays(self, spec):
        src = VolumeSource(spec, samples=1_000, seed=1)
        for r in (0.3, np.empty(0)):
            values, stderrs = src.estimates(np.empty((0, spec.n)), r)
            assert values.shape == stderrs.shape == (0,)
        # a radius is still checked when there is no row
        with pytest.raises(DomainError, match="radius must be positive"):
            src.estimates(np.empty((0, spec.n)), float("nan"))

    def test_refusal_names_the_point_and_radius(self):
        spec = DomainSpec.ball(2, -0.4)
        points = np.array([(0.0, 0.0), (0.3, -0.5), (0.0, -0.999), (0.0, -0.999)])
        radii = np.array([pi, 0.3, 1.0, 1.4])
        with pytest.raises(PrecisionError) as err:
            refuse_imprecise(spec, points, radii, *VolumeSource(spec).estimates(points, radii),
                             0.01)
        message = str(err.value)
        # the whole domain is exact and a cap clear of the face resolved; the
        # two caps next to the face, where the exponent is -0.8, are not
        assert "exceeds 1% of V=" in message and "at x=(0, -0.999), r=1;" in message
        assert "cap quadrature is unresolved" in message and "\n" not in message
        mc = VolumeSource(BALL3, samples=2_000, seed=3)
        with pytest.raises(PrecisionError, match=r"at x=\(0.1, 0.1, 0.1\), r=0.2; raise the"):
            refuse_imprecise(BALL3, [(0.1, 0.1, 0.1)], [0.2],
                             *mc.estimates([(0.1, 0.1, 0.1)], [0.2]), 0.001)

    def test_volume_that_is_not_positive_is_refused(self):
        # a Monte Carlo ball that no sample hits reads V = 0 with stderr 0,
        # within any stderr gate; every ball of positive radius has mass
        points, radii = [(0.1, 0.1, 0.1), (0.2, 0.0, 0.1)], [0.7, 1e-3]
        values, stderrs = VolumeSource(BALL3, samples=20_000, seed=3).estimates(points, radii)
        assert values[0] > 0 and (values[1], stderrs[1]) == (0.0, 0.0)
        with pytest.raises(PrecisionError) as err:
            refuse_imprecise(BALL3, points, radii, values, stderrs, 0.05)
        assert str(err.value) == ("volume V=0 is not positive at x=(0.2, 0, 0.1), r=0.001; "
                                  "raise the sample budget")
        with pytest.raises(PrecisionError, match=r"V=nan is not positive at x=\(0.2, 0\), r=0.3"):
            refuse_imprecise(DomainSpec.ball(2, 0.5), [(0.1, 0.1), (0.2, 0.0)], [0.3, 0.3],
                             [1.0, np.nan], [0.0, 0.0], 0.05)
        # a stderr over the gate is named before a volume that is not positive
        with pytest.raises(PrecisionError, match=r"exceeds 5% of V=1 at x=\(0.2, 0\)"):
            refuse_imprecise(DomainSpec.ball(2, 0.5), [(0.1, 0.1), (0.2, 0.0)], [0.3, 0.3],
                             [0.0, 1.0], [0.0, 0.1], 0.05)
