import numpy as np
import pytest

from polyheat.basis import build_basis, graded_monomials
from polyheat.domains import DomainSpec, distance
from polyheat.errors import DomainError
from polyheat.heat import HeatKernelEvaluator
from polyheat.polynomials import MultiPoly
from polyheat.quadrature import build_quadrature
from polyheat import validation
from polyheat.validation import (
    GaussianBump,
    PolyField,
    boundary_flux_decay,
    chart_laplacian_check,
    doubling_scan,
    finite_speed_scan,
    gauss_ratio_scan,
    geodesic_ray,
    green_identity_check,
    interior_points,
    jacobi_simplex_correspondence,
    localization_check,
    loglog_fit,
    random_coefficients,
    random_poly,
)
from polyheat.volumes import VolumeSource

from _oracles import (
    ReferenceField,
    reference_chart,
    reference_correspondence,
    reference_flux,
    reference_green,
)

ORACLE_SPECS = [DomainSpec.ball(2, 0.5), DomainSpec.ball(3, 0.0),
                DomainSpec.simplex(2, (0.5, 0.5, 0.5)),
                DomainSpec.simplex(3, (0.25, 0.5, 0.5, 1.0)),
                DomainSpec.interval(0.7, -0.3)]


def poly_of(n, coef):
    """The MultiPoly of a coefficient vector over graded monomials."""
    degree = 0
    while len(graded_monomials(n, degree)) < len(coef):
        degree += 1
    return MultiPoly(n, dict(zip(graded_monomials(n, degree), coef)))


@pytest.fixture(scope="module")
def cheb_ev():
    return HeatKernelEvaluator(build_basis(DomainSpec.interval(-0.5, -0.5), 200))


@pytest.fixture(scope="module")
def cheb_vol(cheb_ev):
    return VolumeSource(cheb_ev.spec)


class TestHelpers:
    def test_loglog_fit_recovers_power(self):
        xs = np.geomspace(1, 30, 12)
        ys = 3.5 * xs ** -2.25
        slope, intercept, r2 = loglog_fit(xs, ys)
        assert slope == pytest.approx(-2.25, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_interior_points_margin(self):
        from polyheat.domains import rho_to_boundary

        for spec in (DomainSpec.interval(-0.5, -0.5), DomainSpec.ball(2, 0.25),
                     DomainSpec.simplex(2, (0.5, 0.5, 0.5))):
            pts = interior_points(spec, 12)
            assert len(pts) >= 8
            for p in pts:
                assert rho_to_boundary(spec, p) >= 0.05 - 1e-12

    def test_geodesic_ray_distances_exact(self):
        for spec in (DomainSpec.interval(-0.5, -0.5), DomainSpec.ball(2, 0.25),
                     DomainSpec.simplex(2, (0.5, 0.5, 0.5))):
            anchor = interior_points(spec, 3)[1]
            s = np.linspace(0.05, 0.8, 9)
            dists, pts = geodesic_ray(spec, anchor, s)
            for d, p in zip(dists, pts):
                assert distance(spec, anchor, p) == pytest.approx(d, abs=1e-12)


class TestGreen:
    def test_constant_is_exact_zero(self):
        spec = DomainSpec.ball(2, 0.25)
        f = MultiPoly.constant(2, 1.0)
        res = green_identity_check(spec, f, PolyField(MultiPoly.constant(2, 1.0)))
        assert res <= 1e-15

    def test_simplex_linear_closed_form(self):
        # f = h = x on the n=1 simplex with kappa = (1/2, 1/2):
        # both sides equal -2/3 by direct integration
        spec = DomainSpec.simplex(1, (0.5, 0.5))
        f = MultiPoly.variable(1, 0)
        quad = build_quadrature(spec, 10)
        pts, w = quad.nodes, quad.weights
        lhs = float(w @ (pts[:, 0] * 4.0 * spec.apply_operator(f).eval_many(pts)))
        assert lhs == pytest.approx(-2.0 / 3.0, rel=1e-12)
        assert green_identity_check(spec, f, PolyField(f), quad) <= 1e-12

    @pytest.mark.parametrize("spec", [DomainSpec.ball(2, 0.25),
                                      DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
                                      DomainSpec.interval(0.7, -0.3)],
                             ids=lambda s: s.label())
    def test_random_poly_pairs(self, spec):
        rng = np.random.default_rng(1)
        quad = build_quadrature(spec, 20)
        for _ in range(6):
            f = random_poly(spec.n, 6, rng)
            h = PolyField(random_poly(spec.n, 4, rng))
            assert green_identity_check(spec, f, h, quad) <= 1e-8

    def test_bump_test_function(self):
        spec = DomainSpec.ball(2, 0.25)
        f = random_poly(2, 5, np.random.default_rng(2))
        h = GaussianBump([0.1, -0.2], 0.6)
        quad = build_quadrature(spec, 60)
        assert green_identity_check(spec, f, h, quad) <= 1e-8

    def test_residual_is_quadrature_limited(self):
        # doubling the quadrature degree shrinks the residual (or leaves it
        # at the rounding floor) for a non-polynomial test function
        spec = DomainSpec.ball(2, 0.25)
        f = random_poly(2, 4, np.random.default_rng(3))
        h = GaussianBump([0.1, -0.2], 0.5)
        coarse = green_identity_check(spec, f, h, build_quadrature(spec, 16))
        fine = green_identity_check(spec, f, h, build_quadrature(spec, 32))
        assert fine <= coarse or fine <= 1e-12


class TestFlux:
    def test_zero_flux_flagged(self):
        spec = DomainSpec.ball(2, 0.25)
        rep = boundary_flux_decay(spec, MultiPoly.constant(2, 1.0),
                                  PolyField(MultiPoly.constant(2, 1.0)),
                                  [0.2, 0.1, 0.05, 0.02])
        assert rep.zero_flux

    def test_ball_rate(self):
        spec = DomainSpec.ball(2, 0.25)
        f = MultiPoly.monomial((2, 0))
        rep = boundary_flux_decay(spec, f, PolyField(MultiPoly.constant(2, 1.0)),
                                  [0.2, 0.1, 0.05, 0.02, 0.01])
        assert rep.expected_slope == pytest.approx(0.75)
        assert abs(rep.fitted_slope - 0.75) <= 0.1
        assert rep.r2 >= 0.98

    def test_simplex_point_boundary(self):
        spec = DomainSpec.simplex(1, (0.5, 0.5))
        f = MultiPoly.variable(1, 0)
        rep = boundary_flux_decay(spec, f, PolyField(MultiPoly.constant(1, 1.0)),
                                  [0.2, 0.1, 0.05, 0.02, 0.01])
        for name, face in rep.faces.items():
            assert abs(face["slope"] - face["expected"]) <= 0.1, name
        assert rep.expected_slope == pytest.approx(1.0)

    def test_bad_epsilons(self):
        spec = DomainSpec.ball(2, 0.25)
        with pytest.raises(DomainError):
            boundary_flux_decay(spec, MultiPoly.monomial((2, 0)),
                                PolyField(MultiPoly.constant(2, 1.0)), [0.2, 0.1])


class TestChart:
    def test_closed_form_linear(self):
        # ball n=1: both sides are -(1 + 2 gamma) x
        g = 0.7
        spec = DomainSpec.ball(1, g)
        f = MultiPoly.variable(1, 0)
        assert chart_laplacian_check(spec, f, np.array([[0.3]])) <= 1e-14

    @pytest.mark.parametrize("spec", [DomainSpec.ball(1, 0.8), DomainSpec.ball(2, 0.25),
                                      DomainSpec.simplex(1, (0.5, 1.5)),
                                      DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
                                      DomainSpec.interval(0.7, -0.3)],
                             ids=lambda s: s.label())
    def test_random_poly(self, spec):
        rng = np.random.default_rng(5)
        pts = interior_points(spec, 50, margin=0.02)
        f = random_poly(spec.n, 5, rng)
        assert chart_laplacian_check(spec, f, pts) <= 1e-8


class TestArraysMatchMultiPoly:
    """Green, chart and flux on coefficient arrays against the MultiPoly route."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
    def test_green(self, spec):
        rng = np.random.default_rng(8)
        quad = build_quadrature(spec, 18)
        for _ in range(4):
            fc = random_coefficients(spec.n, 6, rng)
            hc = random_coefficients(spec.n, 4, rng)
            f, h = poly_of(spec.n, fc), poly_of(spec.n, hc)
            want = reference_green(spec, f, ReferenceField(h), quad)
            assert abs(green_identity_check(spec, fc, PolyField(hc, spec.n), quad) - want) <= 1e-13
            assert abs(green_identity_check(spec, f, PolyField(h), quad) - want) <= 1e-13
        bump = GaussianBump(np.full(spec.n, 0.1), 0.6)
        want = reference_green(spec, f, bump, quad)
        assert abs(green_identity_check(spec, f, bump, quad) - want) <= 1e-13

    def test_green_frames_follow_the_points(self):
        # checks on different point sets of one shape and degree never share values
        spec = DomainSpec.ball(2, 0.5)
        f = random_poly(2, 4, np.random.default_rng(9))
        h = random_poly(2, 3, np.random.default_rng(10))
        quads = [build_quadrature(spec, 14), build_quadrature(DomainSpec.ball(2, 0.0), 14)]
        assert quads[0].nodes.shape == quads[1].nodes.shape
        for quad in quads + quads[::-1]:
            want = reference_green(spec, f, ReferenceField(h), quad)
            assert abs(green_identity_check(spec, f, PolyField(h), quad) - want) <= 1e-13

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
    def test_chart(self, spec):
        rng = np.random.default_rng(11)
        pts = interior_points(spec, 60, margin=0.02)
        for _ in range(3):
            fc = random_coefficients(spec.n, 5, rng)
            want = reference_chart(spec, poly_of(spec.n, fc), pts)
            assert abs(chart_laplacian_check(spec, fc, pts) - want) <= 1e-13

    @pytest.mark.parametrize("spec, f, h", [
        (DomainSpec.ball(2, 0.5), MultiPoly.monomial((2, 0)), MultiPoly.constant(2, 1.0)),
        (DomainSpec.ball(3, 0.0), MultiPoly.monomial((2, 0, 0)), MultiPoly.constant(3, 1.0)),
        (DomainSpec.ball(2, 0.5), random_poly(2, 4, np.random.default_rng(12)),
         random_poly(2, 3, np.random.default_rng(13))),
        (DomainSpec.ball(1, 0.8), random_poly(1, 4, np.random.default_rng(14)),
         random_poly(1, 2, np.random.default_rng(15))),
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)),
         MultiPoly.variable(2, 0) + 0.5 * MultiPoly.monomial((2, 0)),
         GaussianBump([0.0, 0.45], [np.inf, 0.15])),
        (DomainSpec.simplex(2, (0.25, 0.5, 0.75)), random_poly(2, 3, np.random.default_rng(16)),
         random_poly(2, 2, np.random.default_rng(17))),
        # interval(0.7, -0.3) as the n=1 simplex
        (DomainSpec.simplex(1, (0.2, 1.2)),
         MultiPoly.variable(1, 0) + 0.5 * MultiPoly.monomial((2,)), MultiPoly.constant(1, 1.0)),
    ], ids=["ball2", "ball3", "ball2-random", "ball1-random", "simplex2", "simplex2-random",
            "interval-as-simplex1"])
    def test_flux(self, spec, f, h):
        eps = [0.2, 0.1, 0.05, 0.02, 0.01]
        field = PolyField(h) if isinstance(h, MultiPoly) else h
        ref = reference_flux(spec, f, ReferenceField(h) if isinstance(h, MultiPoly) else h, eps)
        rep = boundary_flux_decay(spec, f, field, eps)
        assert set(rep.faces) == set(ref)
        for name, (J, slope) in ref.items():
            got = rep.faces[name]
            assert np.allclose(got["J"], J, rtol=1e-12, atol=0.0), name
            if slope is None:
                assert got["slope"] is None
            else:
                assert abs(got["slope"] - slope) <= 1e-9, name


class TestCorrespondence:
    def test_all_four_checks(self):
        rep = jacobi_simplex_correspondence(0.0, 0.0, 12)
        assert rep.verdict
        names = [c[0] for c in rep.checks]
        assert names == ["operator_conjugation", "eigenfunction_match",
                         "distance_halving", "kernel_scaling"]
        for _, res, tol, ok in rep.checks:
            assert ok and res <= tol

    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.0, -0.9), (0.7, -0.3)])
    def test_matches_multipoly_reference(self, alpha, beta):
        rep = jacobi_simplex_correspondence(alpha, beta, 30, seed=3)
        ref = reference_correspondence(alpha, beta, 30, seed=3)
        got = {name: res for name, res, _, _ in rep.checks}
        for name, want in ref.items():
            assert abs(got[name] - want) <= 1e-13, name

    def test_perturbed_simplex_coefficient_fails_match(self, monkeypatch):
        def perturbed(spec, max_degree, **kw):
            basis = build_basis(spec, max_degree, **kw)
            if spec.kind == "simplex":
                assert not basis.coefficients.flags.writeable
                C = basis.coefficients.copy()
                j = int(np.argmax(np.abs(C[20])))
                C[20, j] *= 1 + 1e-6
                basis._coeff = C
            return basis

        monkeypatch.setattr(validation, "build_basis", perturbed)
        rep = jacobi_simplex_correspondence(0.7, -0.3, 30)
        failed = [name for name, _, _, ok in rep.checks if not ok]
        assert failed == ["eigenfunction_match"]


class TestGaussDoubling:
    def test_interval_scan(self, cheb_ev, cheb_vol):
        pts = interior_points(cheb_ev.spec, 10)
        rep = gauss_ratio_scan(cheb_ev, cheb_vol, pts, [0.01, 0.05, 0.2])
        assert rep.verdict
        assert 0 < rep.e_min <= rep.e_max
        assert rep.e_max / rep.e_min <= 25
        assert rep.n_hi / rep.n_lo <= 20
        assert rep.c2_hat == pytest.approx(1 / rep.e_max)
        assert rep.c4_hat == pytest.approx(1 / rep.e_min)

    def test_threshold_validation(self, cheb_ev, cheb_vol):
        with pytest.raises(DomainError):
            gauss_ratio_scan(cheb_ev, cheb_vol, interior_points(cheb_ev.spec, 6),
                             [0.05], threshold=2.0)

    def test_interval_doubling_is_two(self, cheb_vol):
        spec = DomainSpec.interval(-0.5, -0.5)
        pts = interior_points(spec, 8)
        rep = doubling_scan(spec, cheb_vol, pts, [0.1, 0.4, 0.8])
        assert rep.max_ratio == pytest.approx(2.0, abs=1e-9)
        assert rep.verdict
        assert rep.comp_hi / rep.comp_lo <= 30

    def test_radius_validation(self, cheb_vol):
        spec = DomainSpec.interval(-0.5, -0.5)
        with pytest.raises(DomainError):
            doubling_scan(spec, cheb_vol, interior_points(spec, 4), [2.0])


class TestLocalization:
    def test_interval(self, cheb_ev, cheb_vol):
        rep = localization_check(cheb_ev, 0.1, 3, cheb_vol)
        assert rep.verdict
        assert rep.exponent >= 2.5
        assert rep.r2 >= 0.98
        assert np.isfinite(rep.c_m_hat)

    def test_order_validation(self, cheb_ev, cheb_vol):
        with pytest.raises(DomainError):
            localization_check(cheb_ev, 0.1, 1, cheb_vol)


class TestFiniteSpeed:
    def test_interval_support(self, cheb_ev):
        rep = finite_speed_scan(cheb_ev, 0.1, 8, 2.0)
        assert not rep.degenerate
        assert rep.max_beyond <= 1e-8
        assert 0.2 <= rep.c_star_hat <= 2.0

    def test_degenerate_band(self, cheb_ev):
        rep = finite_speed_scan(cheb_ev, 60.0, 8, 2.0)
        assert rep.degenerate
