import tracemalloc
from math import pi, sin, sqrt

import numpy as np
import pytest

from polyheat.cli import main
from polyheat.domains import DomainSpec, distance_many, total_mass
from polyheat.errors import DomainError, ParameterError, PrecisionError
from polyheat.volumes import (
    VolumeSource,
    ball_volume,
    sample_measure,
    volume_surrogate,
)

from _oracles import arc_volume_chebyshev


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

    def test_radius_error(self):
        with pytest.raises(DomainError):
            ball_volume(DomainSpec.interval(-0.5, -0.5), (0.0,), -0.1)


class TestMonteCarlo:
    def test_flat_limit_disc(self):
        # gamma = 1/2 is Lebesgue measure; near the center rho is Euclidean
        spec = DomainSpec.ball(2, 0.5)
        est = ball_volume(spec, (0.0, 0.0), 0.1, samples=400_000, seed=5)
        assert est.value == pytest.approx(pi * 0.01, rel=0.05)
        assert est.stderr < 0.05 * est.value

    def test_deterministic_given_seed(self):
        spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
        x = np.array([0.3, 0.3])
        a = ball_volume(spec, x, 0.4, samples=50_000, seed=42)
        b = ball_volume(spec, x, 0.4, samples=50_000, seed=42)
        assert a.value == b.value and a.stderr == b.stderr
        c = ball_volume(spec, x, 0.4, samples=50_000, seed=43)
        assert c.value != a.value

    def test_fewer_samples_than_strata_refused(self):
        with pytest.raises(ParameterError, match="at least 8 samples, got 4") as info:
            ball_volume(DomainSpec.ball(2, 0.5), (0, 0), 0.3, samples=4)
        assert "\n" not in str(info.value)
        with pytest.raises(ParameterError, match="at least 1 samples, got 0"):
            ball_volume(DomainSpec.simplex(2, (0.5, 0.5, 0.5)), (0.2, 0.2), 0.3, samples=0)

    def test_stratified_agrees_with_plain(self):
        spec = DomainSpec.ball(2, 0.25)
        x = np.array([0.2, 0.1])
        a = ball_volume(spec, x, 0.5, samples=200_000, seed=1, strata=8)
        b = ball_volume(spec, x, 0.5, samples=200_000, seed=2, strata=1)
        assert a.value == pytest.approx(b.value, abs=4 * (a.stderr + b.stderr))

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
        spec = DomainSpec.ball(2, 0.5)
        src = VolumeSource(spec, samples=50_000, seed=3)
        a = src((0.1, 0.1), 0.4)
        b = src((0.1, 0.1), 0.4)
        assert a is b
        strict = VolumeSource(spec, samples=2_000, seed=3, max_rel_stderr=0.001)
        with pytest.raises(PrecisionError):
            strict((0.1, 0.1), 0.05)

    def test_flat_disc_at_center_is_exact_within_stderr(self):
        # gamma = 1/2 is Lebesgue measure and rho(0, y) = arcsin|y|, so
        # V(0, r) = pi sin^2 r
        src = VolumeSource(DomainSpec.ball(2, 0.5), samples=200_000, seed=9)
        for r in (0.1, 0.4, 1.0):
            est = src((0.0, 0.0), r)
            assert est.method == "montecarlo" and est.samples == 200_000
            assert abs(est.value - pi * sin(r) ** 2) <= 4 * est.stderr

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
        for spec in (DomainSpec.ball(2, 0.0), DomainSpec.simplex(2, (0.5, 0.5, 0.5))):
            src = VolumeSource(spec, samples=50_000, seed=6)
            for x in ((0.1, 0.2), (0.3, 0.05), (0.45, 0.45)):
                for r in (0.01, 0.05, 0.2, 0.7, 1.4):
                    assert src(x, 2 * r).value >= src(x, r).value

    def test_query_order_does_not_matter(self):
        spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
        queries = [((0.1, 0.2), 0.1), ((0.3, 0.3), 0.4), ((0.6, 0.1), 0.05)]
        forward = VolumeSource(spec, samples=50_000, seed=8)
        a = [forward(x, r) for x, r in queries]
        # a query on another domain between the two runs evicts the cached sample
        ball_volume(DomainSpec.ball(2, 0.5), (0.0, 0.0), 0.3, samples=1_000, seed=8)
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
            got = src.values(xs[:, None], r)
            want = np.array([ball_volume(spec, (x,), r).value for x in xs])
            assert np.all(np.abs(got - want) <= 1e-14 * want)
            # the batch fills the same per-(x, r) cache as single queries
            assert src((xs[5],), r).value == got[5]
            assert len(src._cache) == len(xs)
        if (alpha, beta) == (-0.5, -0.5):
            arcs = [arc_volume_chebyshev(x, 0.7) for x in xs]
            assert np.allclose(VolumeSource(spec).values(xs[:, None], 0.7), arcs,
                               rtol=1e-13, atol=0.0)

    def test_interval_rows_of_one_key_read_like_single_queries(self):
        # cos(pi/2) rounds to the key of 0.0: the first row's value serves both
        spec = DomainSpec.interval(0.7, -0.3)
        xs = np.array([[0.0], [np.cos(pi / 2)], [0.4]])
        single = VolumeSource(spec)
        want = [single(x, 0.2).value for x in xs]
        assert VolumeSource(spec).values(xs, 0.2).tolist() == want

    def test_interval_many_points_refuse_like_scalar(self):
        src = VolumeSource(DomainSpec.interval(0.0, 0.0))
        with pytest.raises(DomainError):
            src.values([[0.2], [1.5]], 0.3)
        with pytest.raises(DomainError):
            src.values([[np.nan]], 0.3)
        with pytest.raises(DomainError):
            src.values([[0.2]], 0.0)

    def test_monte_carlo_many_points_are_single_queries(self):
        spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
        xs = np.array([(0.1, 0.2), (0.3, 0.3), (0.6, 0.1)])
        got = VolumeSource(spec, samples=50_000, seed=8).values(xs, 0.3)
        single = VolumeSource(spec, samples=50_000, seed=8)
        assert got.tolist() == [single(x, 0.3).value for x in xs]

    def test_memory_is_one_lifted_sample(self):
        spec, N = DomainSpec.ball(2, 0.5), 200_000
        rng = np.random.default_rng(3)
        xs = sample_measure(spec, 20, rng)
        tracemalloc.start()
        try:
            # the sample of another seed is held on entry and must be
            # released before the new one is drawn
            ball_volume(spec, (0.0, 0.0), 0.3, samples=N, seed=11)
            tracemalloc.reset_peak()
            src = VolumeSource(spec, samples=N, seed=12)
            for x, r in zip(xs, np.linspace(0.05, 1.5, 20)):
                src(x, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (spec.n + 1) * N * 8
