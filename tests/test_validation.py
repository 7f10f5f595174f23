from math import comb

import numpy as np
import pytest

from polyheat.basis import OrthonormalBasis, build_basis
from polyheat.domains import DomainSpec, distance
from polyheat.errors import DomainError, ParameterError, PrecisionError
from polyheat.heat import DEFAULT_EPSILON, HeatKernelEvaluator, TruncationPolicy
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
    kernel_selfadjointness_residual,
    localization_check,
    loglog_fit,
    operator_symmetry_residual,
    random_coefficients,
)
from polyheat.volumes import VolumeSource

from _oracles import (
    ReferenceField,
    apply_operator,
    as_coefficients,
    poly_of,
    random_poly,
    reference_chart,
    reference_correspondence,
    reference_flux,
    reference_gauss_ratio_scan,
    reference_green,
    reference_localization_check,
)

ORACLE_SPECS = [DomainSpec.ball(2, 0.5), DomainSpec.ball(3, 0.0),
                DomainSpec.simplex(2, (0.5, 0.5, 0.5)),
                DomainSpec.simplex(3, (0.25, 0.5, 0.5, 1.0)),
                DomainSpec.interval(0.7, -0.3)]


class CountingSource(VolumeSource):
    """A VolumeSource that records the (rows, radii) of each estimates call."""

    def __init__(self, spec):
        super().__init__(spec)
        self.calls = []

    def estimates(self, points, r):
        X = np.atleast_2d(np.asarray(points, float))
        self.calls.append((X, np.broadcast_to(np.asarray(r, float), len(X))))
        return super().estimates(points, r)


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

    @pytest.mark.parametrize("spec", [DomainSpec.interval(1.5, -0.5), DomainSpec.ball(2, 0.5),
                                      DomainSpec.simplex(2, (0.5, 0.5, 0.5))],
                             ids=lambda s: s.label())
    def test_scan_rays_equal_the_rays_of_each_anchor(self, spec, monkeypatch):
        # the last anchor is the center: its direction toward the center has
        # a norm below 1e-12, and its ray takes the coordinate direction
        center = np.full(spec.n, 1.0 / (spec.n + 1) if spec.kind == "simplex" else 0.0)
        anchors = np.vstack([interior_points(spec, 5, margin=0.1), center])
        s = np.linspace(0.02, 2.5, 40)
        norms, norm = [], np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x: norms.append(norm(x)) or norms[-1])
        rays = validation._rays(spec, anchors, s)
        assert min(norms) < 1e-12
        monkeypatch.undo()
        assert len(rays) == len(anchors)
        for (dists, pts), anchor in zip(rays, anchors):
            want_dists, want_pts = geodesic_ray(spec, anchor, s)
            assert np.array_equal(dists, want_dists) and np.array_equal(pts, want_pts)


class TestGreen:
    def test_constant_is_exact_zero(self):
        spec = DomainSpec.ball(2, 0.25)
        res = green_identity_check(spec, [1.0], PolyField([1.0], 2))
        assert res <= 1e-15

    def test_simplex_linear_closed_form(self):
        # f = h = x on the n=1 simplex with kappa = (1/2, 1/2):
        # both sides equal -2/3 by direct integration
        spec = DomainSpec.simplex(1, (0.5, 0.5))
        f = MultiPoly.variable(1, 0)
        quad = build_quadrature(spec, 10)
        pts, w = quad.nodes, quad.weights
        lhs = float(w @ (pts[:, 0] * 4.0 * apply_operator(spec, f).eval_many(pts)))
        assert lhs == pytest.approx(-2.0 / 3.0, rel=1e-12)
        c = as_coefficients(f)
        assert green_identity_check(spec, c, PolyField(c, 1), quad) <= 1e-12

    @pytest.mark.parametrize("spec", [DomainSpec.ball(2, 0.25),
                                      DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
                                      DomainSpec.interval(0.7, -0.3)],
                             ids=lambda s: s.label())
    def test_random_poly_pairs(self, spec):
        rng = np.random.default_rng(1)
        quad = build_quadrature(spec, 20)
        for _ in range(6):
            f = random_coefficients(spec.n, 6, rng)
            h = PolyField(random_coefficients(spec.n, 4, rng), spec.n)
            assert green_identity_check(spec, f, h, quad) <= 1e-8

    def test_bump_test_function(self):
        spec = DomainSpec.ball(2, 0.25)
        f = random_coefficients(2, 5, np.random.default_rng(2))
        h = GaussianBump([0.1, -0.2], 0.6)
        quad = build_quadrature(spec, 60)
        assert green_identity_check(spec, f, h, quad) <= 1e-8

    def test_residual_is_quadrature_limited(self):
        # doubling the quadrature degree shrinks the residual (or leaves it
        # at the rounding floor) for a non-polynomial test function
        spec = DomainSpec.ball(2, 0.25)
        f = random_coefficients(2, 4, np.random.default_rng(3))
        h = GaussianBump([0.1, -0.2], 0.5)
        coarse = green_identity_check(spec, f, h, build_quadrature(spec, 16))
        fine = green_identity_check(spec, f, h, build_quadrature(spec, 32))
        assert fine <= coarse or fine <= 1e-12


class TestFlux:
    def test_zero_flux_flagged(self):
        spec = DomainSpec.ball(2, 0.25)
        rep = boundary_flux_decay(spec, [1.0], PolyField([1.0], 2), [0.2, 0.1, 0.05, 0.02])
        assert rep.zero_flux

    def test_ball_rate(self):
        spec = DomainSpec.ball(2, 0.25)
        f = as_coefficients(MultiPoly.monomial((2, 0)))
        rep = boundary_flux_decay(spec, f, PolyField([1.0], 2), [0.2, 0.1, 0.05, 0.02, 0.01])
        assert rep.expected_slope == pytest.approx(0.75)
        assert abs(rep.fitted_slope - 0.75) <= 0.1
        assert rep.r2 >= 0.98

    def test_simplex_point_boundary(self):
        spec = DomainSpec.simplex(1, (0.5, 0.5))
        f = as_coefficients(MultiPoly.variable(1, 0))
        rep = boundary_flux_decay(spec, f, PolyField([1.0], 1), [0.2, 0.1, 0.05, 0.02, 0.01])
        for name, face in rep.faces.items():
            assert abs(face["slope"] - face["expected"]) <= 0.1, name
        assert rep.expected_slope == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.8, 2.0])
    @pytest.mark.parametrize("probe", ["flux-suite", "random"])
    def test_ball_1_report_keeps_the_bits_of_the_two_point_sum(self, gamma, probe):
        # the S^0 rule with unit weights adds the same two terms as the sum
        # eps^(gamma + 1/2) (f'(R) h(R) - f'(-R) h(-R)), R = sqrt(1 - eps),
        # and the slope and r2 of the report are functions of those terms
        spec = DomainSpec.ball(1, gamma)
        if probe == "flux-suite":
            f, h = PolyField([0.0, 0.0, 1.0], 1), PolyField([1.0], 1)
        else:
            rng = np.random.default_rng(20)
            f = PolyField(random_coefficients(1, 6, rng), 1)
            h = PolyField(random_coefficients(1, 3, rng), 1)
        eps = [0.2, 0.1, 0.05, 0.02, 0.01]
        rep = boundary_flux_decay(spec, f.coef, h, eps)
        want = []
        for e in eps:
            x = np.array([[np.sqrt(1 - e)], [-np.sqrt(1 - e)]])
            total = float(np.array([1.0, -1.0]) @ (f.gradients(x)[:, 0] * h.values(x)))
            want.append(e ** (gamma + 0.5) * total)
        assert rep.faces["sphere"]["J"] == want

    def test_bad_epsilons(self):
        spec = DomainSpec.ball(2, 0.25)
        with pytest.raises(DomainError):
            boundary_flux_decay(spec, as_coefficients(MultiPoly.monomial((2, 0))),
                                PolyField([1.0], 2), [0.2, 0.1])


class TestChart:
    def test_closed_form_linear(self):
        # ball n=1: both sides are -(1 + 2 gamma) x
        g = 0.7
        spec = DomainSpec.ball(1, g)
        f = as_coefficients(MultiPoly.variable(1, 0))
        assert chart_laplacian_check(spec, f, np.array([[0.3]])) <= 1e-14

    @pytest.mark.parametrize("spec", [DomainSpec.ball(1, 0.8), DomainSpec.ball(2, 0.25),
                                      DomainSpec.simplex(1, (0.5, 1.5)),
                                      DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
                                      DomainSpec.interval(0.7, -0.3)],
                             ids=lambda s: s.label())
    def test_random_poly(self, spec):
        rng = np.random.default_rng(5)
        pts = interior_points(spec, 50, margin=0.02)
        f = random_coefficients(spec.n, 5, rng)
        assert chart_laplacian_check(spec, f, pts) <= 1e-8


BALL2 = DomainSpec.ball(2, 0.5)


class TestCoefficientVectorsOnly:
    @pytest.mark.parametrize("call", [
        lambda p: green_identity_check(BALL2, p, PolyField([1.0], 2)),
        lambda p: chart_laplacian_check(BALL2, p, [[0.1, 0.2]]),
        lambda p: boundary_flux_decay(BALL2, p, PolyField([1.0], 2), [0.2, 0.1, 0.05, 0.02]),
        lambda p: operator_symmetry_residual(BALL2, build_quadrature(BALL2, 6), [1.0], p),
        lambda p: kernel_selfadjointness_residual(
            HeatKernelEvaluator(build_basis(BALL2, 4)), 0.5, p, [1.0]),
        lambda p: PolyField(p, 2),
    ], ids=["green", "chart", "flux", "symmetry", "selfadjointness", "PolyField"])
    def test_multipoly_argument_is_one_line_domain_error(self, call):
        with pytest.raises(DomainError, match="coefficient vector") as err:
            call(MultiPoly.monomial((2, 0)))
        assert "\n" not in str(err.value)


class TestTestFields:
    @pytest.mark.parametrize("h", [[1.0], MultiPoly.constant(2, 1.0)], ids=["list", "MultiPoly"])
    @pytest.mark.parametrize("call", [
        lambda h: green_identity_check(BALL2, [1.0], h),
        lambda h: boundary_flux_decay(BALL2, [0.0, 0.0, 1.0], h, [0.2, 0.1, 0.05, 0.02]),
    ], ids=["green", "flux"])
    def test_field_without_values_is_one_line_domain_error(self, call, h):
        with pytest.raises(DomainError, match="values and gradients") as err:
            call(h)
        assert "\n" not in str(err.value)


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
        bump = GaussianBump(np.full(spec.n, 0.1), 0.6)
        want = reference_green(spec, f, bump, quad)
        assert abs(green_identity_check(spec, fc, bump, quad) - want) <= 1e-13

    def test_green_frames_follow_the_points(self):
        # checks on different point sets of one shape and degree never share values
        spec = DomainSpec.ball(2, 0.5)
        f = random_poly(2, 4, np.random.default_rng(9))
        h = random_poly(2, 3, np.random.default_rng(10))
        quads = [build_quadrature(spec, 14), build_quadrature(DomainSpec.ball(2, 0.0), 14)]
        assert quads[0].nodes.shape == quads[1].nodes.shape
        for quad in quads + quads[::-1]:
            want = reference_green(spec, f, ReferenceField(h), quad)
            got = green_identity_check(spec, as_coefficients(f), PolyField(as_coefficients(h), 2),
                                       quad)
            assert abs(got - want) <= 1e-13

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
        # small kappa_1 and kappa_3: nearly singular weights at both ends of each face
        (DomainSpec.simplex(2, (0.05, 1.7, 0.1)), random_poly(2, 3, np.random.default_rng(18)),
         random_poly(2, 2, np.random.default_rng(19))),
        # interval(0.7, -0.3) as the n=1 simplex
        (DomainSpec.simplex(1, (0.2, 1.2)),
         MultiPoly.variable(1, 0) + 0.5 * MultiPoly.monomial((2,)), MultiPoly.constant(1, 1.0)),
    ], ids=["ball2", "ball3", "ball2-random", "ball1-random", "simplex2", "simplex2-random",
            "simplex2-small-kappa", "interval-as-simplex1"])
    def test_flux(self, spec, f, h):
        eps = [0.2, 0.1, 0.05, 0.02, 0.01]
        poly_h = isinstance(h, MultiPoly)
        field = PolyField(as_coefficients(h), spec.n) if poly_h else h
        ref = reference_flux(spec, f, ReferenceField(h) if poly_h else h, eps)
        rep = boundary_flux_decay(spec, as_coefficients(f), field, eps)
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
        names = [c["name"] for c in rep.checks]
        assert names == ["operator_conjugation", "eigenfunction_match",
                         "distance_halving", "kernel_scaling"]
        for c in rep.checks:
            assert c["pass"] and c["residual"] <= c["tolerance"] == 1e-9

    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.0, -0.9), (0.7, -0.3)])
    def test_matches_multipoly_reference(self, alpha, beta):
        rep = jacobi_simplex_correspondence(alpha, beta, 30, seed=3)
        ref = reference_correspondence(alpha, beta, 30, seed=3)
        got = {c["name"]: c["residual"] for c in rep.checks}
        for name, want in ref.items():
            assert abs(got[name] - want) <= 1e-13, name

    @pytest.mark.parametrize("alpha, beta", [(-0.9, -0.9), (1.5, -0.5), (0.0, 0.0)])
    def test_a_larger_basis_gives_the_report_of_its_own_build(self, alpha, beta):
        basis = build_basis(DomainSpec.interval(alpha, beta), 200)
        own = jacobi_simplex_correspondence(alpha, beta, 30, seed=1)
        lent = jacobi_simplex_correspondence(alpha, beta, 30, seed=1, basis=basis)
        assert vars(lent) == vars(own)

    @pytest.mark.parametrize("spec, K", [(DomainSpec.interval(0.0, 0.5), 40),
                                         (DomainSpec.interval(0.5, 0.0), 20),
                                         (DomainSpec.simplex(1, (0.5, 1.0)), 40)])
    def test_a_basis_of_another_spec_or_lower_degree_is_refused(self, spec, K):
        with pytest.raises(ParameterError, match=r"cannot serve interval\(alpha=0.5, beta=0\) "
                                                 r"at max_k 30$") as err:
            jacobi_simplex_correspondence(0.5, 0.0, 30, basis=build_basis(spec, K))
        assert "\n" not in str(err.value)

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
        failed = [c["name"] for c in rep.checks if not c["pass"]]
        assert failed == ["eigenfunction_match"]

    @pytest.mark.parametrize("max_k", [0, 1, 2, 30, validation.SUBSTITUTION_MAX_K])
    def test_substitution_matrix_is_the_binomial_form(self, max_k):
        want = np.array([[float(comb(r, j) * 2 ** j * (-1) ** (r - j)) for j in range(max_k + 1)]
                         for r in range(max_k + 1)])
        assert np.array_equal(validation._substitution_matrix(max_k), want)

    def test_degree_past_exact_binomials_is_refused(self):
        with pytest.raises(DomainError, match=r"^max_k 57 outside \[0, 56\]"):
            jacobi_simplex_correspondence(0.0, 0.0, validation.SUBSTITUTION_MAX_K + 1)

    def test_grid_is_evaluated_once_per_basis(self, monkeypatch):
        sweeps = []
        values = OrthonormalBasis._values

        def counted(basis, pts, last=None):
            if pts is not basis.quad.nodes:
                sweeps.append((basis.spec.kind, len(pts)))
            return values(basis, pts, last)

        monkeypatch.setattr(OrthonormalBasis, "_values", counted)
        jacobi_simplex_correspondence(0.7, -0.3, 30)
        grid = validation.CORRESPONDENCE_GRID
        assert sweeps == [("interval", grid), ("simplex", grid)]


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

    def test_interval_doubling_is_two(self, cheb_vol):
        spec = DomainSpec.interval(-0.5, -0.5)
        pts = interior_points(spec, 8)
        rep = doubling_scan(spec, cheb_vol, pts, [0.1, 0.4, 0.8])
        assert rep.max_ratio == pytest.approx(2.0, abs=1e-9)
        assert rep.verdict
        assert rep.comp_hi / rep.comp_lo <= 30

    def test_doubling_scan_makes_one_query_over_every_row(self):
        spec = DomainSpec.simplex(2, (0.5, 0.5, 0.5))
        src = CountingSource(spec)
        pts = interior_points(spec, 10)
        rep = doubling_scan(spec, src, pts, [0.1, 0.2, 0.35])
        # one call: every point at each distinct radius of r and 2r, radius-major
        [(X, R)] = src.calls
        radii = (0.1, 0.2, 0.35, 0.4, 0.7)
        assert X.tolist() == np.tile(pts, (len(radii), 1)).tolist()
        assert R.tolist() == np.repeat(radii, len(pts)).tolist()
        assert len(rep.rows) == 3 * len(pts) and rep.verdict
        for row in rep.rows:
            assert row["ratio"] == row["V_2r"] / row["V_r"]
            assert row["V_r"] == VolumeSource(spec)(row["x"], row["r"]).value
            assert row["V_2r"] == VolumeSource(spec)(row["x"], 2 * row["r"]).value

    def test_gauss_scan_makes_one_query_over_points_and_times(self, cheb_ev):
        src = CountingSource(cheb_ev.spec)
        pts = interior_points(cheb_ev.spec, 10)
        times = [0.01, 0.05, 0.2]
        rep = gauss_ratio_scan(cheb_ev, src, pts, times)
        [(X, R)] = src.calls
        assert X.tolist() == np.tile(pts, (len(times), 1)).tolist()
        assert R.tolist() == np.repeat([np.sqrt(t) for t in times], len(pts)).tolist()
        for row in rep.rows:
            r = np.sqrt(row["t"])
            assert row["V_x"] == VolumeSource(cheb_ev.spec)(row["x"], r).value
            assert row["V_y"] == VolumeSource(cheb_ev.spec)(row["y"], r).value

    def test_localization_makes_one_query_per_delta(self):
        spec = DomainSpec.ball(2, 0.5)
        ev = HeatKernelEvaluator(build_basis(spec, 20))
        src = CountingSource(spec)
        for delta in (0.1, 0.2):
            rep = localization_check(ev, delta, spec.n + 2, src)
            # anchors first, then the targets: one call, radius delta
            X, R = src.calls.pop()
            assert not src.calls
            anchors = interior_points(spec, validation.LOCALIZE_ANCHORS, margin=0.1)
            assert X[:len(anchors)].tolist() == anchors.tolist()
            assert len(X) > len(anchors) and R.tolist() == [delta] * len(X)
            assert rep == localization_check(ev, delta, spec.n + 2, VolumeSource(spec))
            V = VolumeSource(spec).estimates(X, delta)[0]
            assert V.tolist() == [VolumeSource(spec)(x, delta).value for x in X]

    @pytest.mark.parametrize("scan", ["doubling", "gauss", "localize"])
    def test_imprecise_volumes_are_refused(self, scan):
        # an ungated source whose stderr is 10 % of V: each scan applies the
        # 5 % gate itself
        class Imprecise(VolumeSource):
            def estimates(self, points, r):
                values, _ = super().estimates(points, r)
                return values, 0.1 * values

        spec = DomainSpec.ball(3, 0.5)
        vol = Imprecise(spec)
        pts = interior_points(spec, 4)
        if scan != "doubling":
            ev = HeatKernelEvaluator(build_basis(spec, 10))
        with pytest.raises(PrecisionError, match="exceeds 5% of V"):
            if scan == "doubling":
                doubling_scan(spec, vol, pts, [0.1])
            elif scan == "gauss":
                gauss_ratio_scan(ev, vol, pts, [0.5, 1.0])
            else:
                localization_check(ev, 0.2, spec.n + 1, vol)

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


class TestScansMatchLoops:
    """The array scans equal the per-pair and per-anchor loops they replace."""

    @pytest.mark.parametrize("spec, times", [
        (DomainSpec.interval(-0.5, -0.5), (0.03, 0.08, 0.2)),
        (DomainSpec.ball(2, 0.5), (0.02, 0.05, 0.2)),
    ], ids=["interval", "ball"])
    def test_gauss_scan(self, spec, times):
        # below the default t_min the first time leaves pairs whose tail
        # dominates the kernel, which the scan excludes
        ev = HeatKernelEvaluator(build_basis(spec, 12), TruncationPolicy(DEFAULT_EPSILON, 1e-3, 12))
        vol = VolumeSource(spec)
        pts = interior_points(spec, 12)
        rep = gauss_ratio_scan(ev, vol, pts, times)
        assert rep.excluded > 0
        assert vars(rep) == vars(reference_gauss_ratio_scan(ev, vol, pts, times))

    @pytest.mark.parametrize("spec, K", [(DomainSpec.interval(-0.5, -0.5), 200),
                                         (DomainSpec.ball(2, 0.5), 20)],
                             ids=["interval", "ball"])
    def test_localization(self, spec, K):
        ev = HeatKernelEvaluator(build_basis(spec, K))
        vol = VolumeSource(spec)
        for delta in (0.1, 0.2):
            rep = localization_check(ev, delta, spec.n + 2, vol)
            assert vars(rep) == vars(reference_localization_check(ev, delta, spec.n + 2, vol))


class TestFiniteSpeed:
    def test_interval_support(self, cheb_ev):
        rep = finite_speed_scan(cheb_ev, 0.1, 8, 2.0)
        assert not rep.degenerate
        assert rep.max_beyond <= 1e-8
        assert 0.2 <= rep.c_star_hat <= 2.0

    def test_degenerate_band(self, cheb_ev):
        rep = finite_speed_scan(cheb_ev, 60.0, 8, 2.0)
        assert rep.degenerate

    def test_simplex1_expects_half_the_interval_radius(self):
        # simplex(1) has the interval's eigenvalues and half its distances,
        # so the support is expected within delta m A / 2 in its own distance
        # (delta m A = 1.6 at delta = 0.1 lies past its diameter pi/2)
        ev = HeatKernelEvaluator(build_basis(DomainSpec.simplex(1, (0.5, 0.5)), 200))
        reps = [finite_speed_scan(ev, delta, 8, 2.0) for delta in (0.05, 0.1)]
        for delta, rep in zip((0.05, 0.1), reps):
            assert not rep.degenerate and rep.max_beyond <= validation.FSP_THRESHOLD
            assert rep.c_star_hat == rep.r_star / (delta * 8)
        assert [rep.c_star_hat for rep in reps] == pytest.approx([0.812, 0.774], abs=1e-3)
