from math import asin, pi, sqrt

import numpy as np
import pytest

from polyheat.domains import (
    DomainSpec,
    boundary_gap,
    chart_lift,
    contains,
    distance,
    distance_many,
    distance_matrix,
    inverse_metric,
    metric_det,
    metric_tensor,
    perturbed_identity_det,
    rho_to_boundary,
    total_mass,
    weight_density,
    weight_log_gradient,
)
from polyheat.errors import BoundarySingularityError, DomainError, ParameterError
from polyheat.quadrature import build_quadrature
from polyheat.volumes import VolumeSource, ball_volume

from _oracles import dense_perturbed_det, inverse_metric_polys

SPECS = [
    DomainSpec.interval(-0.5, -0.5),
    DomainSpec.interval(0.7, -0.3),
    DomainSpec.ball(1, 0.8),
    DomainSpec.ball(2, 0.25),
    DomainSpec.ball(3, -0.2),
    DomainSpec.simplex(1, (0.5, 0.5)),
    DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
]


def random_interior(spec, rng, count=6):
    pts = []
    while len(pts) < count:
        if spec.kind == "interval":
            x = rng.uniform(-0.95, 0.95, (1,))
        elif spec.kind == "ball":
            x = rng.uniform(-0.6, 0.6, (spec.n,))
            if x @ x > 0.9:
                continue
        else:
            x = rng.dirichlet(np.ones(spec.n + 1))[: spec.n] * 0.95
        pts.append(x)
    return pts


class TestSpec:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            DomainSpec.interval(-1.0, 0.0)
        with pytest.raises(ParameterError):
            DomainSpec.ball(2, -0.5)
        with pytest.raises(ParameterError):
            DomainSpec.simplex(2, (0.5, -0.5, 0.5))
        with pytest.raises(ParameterError):
            DomainSpec("interval", 2, (0.0, 0.0))

    @pytest.mark.parametrize("make", [
        lambda v: DomainSpec.interval(v, 0.0), lambda v: DomainSpec.interval(0.0, v),
        lambda v: DomainSpec.ball(2, v), lambda v: DomainSpec.simplex(2, (0.5, v, 0.5))])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_refused(self, make, bad):
        # NaN fails every range comparison, and inf passes them
        with pytest.raises(ParameterError,
                           match=r"^\w+ parameters must be finite numbers, got .*(nan|inf)"):
            make(bad)

    def test_roundtrip(self):
        for spec in SPECS:
            assert DomainSpec.from_json_obj(spec.to_json_obj()) == spec


class TestDistance:
    def test_examples(self):
        assert distance(DomainSpec.ball(2, 0.5), (1, 0), (-1, 0)) == pytest.approx(pi)
        assert distance(DomainSpec.simplex(1, (0.5, 0.5)), (0.0,), (1.0,)) == pytest.approx(pi / 2)
        assert distance(DomainSpec.interval(-0.5, -0.5), (-1.0,), (1.0,)) == pytest.approx(pi)

    def test_interval_simplex_halving(self):
        ispec = DomainSpec.interval(0.3, 0.7)
        sspec = DomainSpec.simplex(1, (1.2, 0.8))
        xs = np.linspace(-0.97, 0.97, 20)
        for x in xs:
            for y in xs:
                r1 = distance(ispec, (x,), (y,))
                r2 = distance(sspec, ((x + 1) / 2,), ((y + 1) / 2,))
                assert abs(r2 - r1 / 2) <= 1e-12

    def test_symmetry_zero_and_range(self):
        rng = np.random.default_rng(3)
        for spec in SPECS:
            pts = random_interior(spec, rng)
            for x in pts:
                assert distance(spec, x, x) == 0.0
                for y in pts:
                    d1, d2 = distance(spec, x, y), distance(spec, y, x)
                    assert d1 == pytest.approx(d2, abs=1e-15)
                    assert 0 <= d1 <= pi

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for spec in SPECS:
            for _ in range(40):
                x, y, z = random_interior(spec, rng, 3)
                assert distance(spec, x, z) <= distance(spec, x, y) + distance(spec, y, z) + 1e-12

    def test_distance_many_matches(self):
        rng = np.random.default_rng(5)
        for spec in SPECS:
            pts = np.array(random_interior(spec, rng, 8))
            x = pts[0]
            d = distance_many(spec, x, pts)
            for i in range(len(pts)):
                assert d[i] == pytest.approx(distance(spec, x, pts[i]), abs=1e-14)

    def test_outside_raises(self):
        with pytest.raises(DomainError):
            distance(DomainSpec.ball(2, 0.5), (1.2, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            distance_matrix(DomainSpec.ball(2, 0.5), [[0.1, 0.0], [1.2, 0.0]], [[0.0, 0.0]])

    @pytest.mark.parametrize("spec", [
        DomainSpec.interval(-0.5, -0.5), DomainSpec.interval(0.7, -0.3),
        DomainSpec.ball(2, 0.25), DomainSpec.ball(3, -0.2),
        DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), DomainSpec.simplex(3, (0.5, 0.5, 0.5, 0.5)),
    ], ids=lambda s: f"{s.kind}{s.n}({','.join(f'{p:g}' for p in s.params)})")
    def test_distance_matrix_matches(self, spec):
        rng = np.random.default_rng(11)
        X = np.array(random_interior(spec, rng, 30))
        Y = np.vstack([random_interior(spec, rng, 20), X[:5]])
        D = distance_matrix(spec, X, Y)
        assert D.shape == (30, 25)
        ref = np.array([[distance(spec, x, y) for y in Y] for x in X])
        far = ref > 1e-3
        assert np.abs(D - ref)[far].max() <= 1e-12
        assert np.all(D[np.arange(5), 20 + np.arange(5)] == 0.0)
        assert np.all(np.diag(distance_matrix(spec, X, X)) == 0.0)


    def test_interval_matrix_is_the_arccos_difference_near_the_diagonal(self):
        spec = DomainSpec.interval(0.7, -0.3)
        X = np.linspace(-0.99, 0.99, 15)[:, None]
        D = distance_matrix(spec, X, X + 1e-9)
        ref = np.array([[distance(spec, x, y) for y in X + 1e-9] for x in X])
        assert np.abs(D - ref).max() <= 1e-15


class TestRows:
    @pytest.mark.parametrize("fn", [contains, boundary_gap, rho_to_boundary, weight_density,
                                    weight_log_gradient, metric_tensor, inverse_metric,
                                    metric_det], ids=lambda fn: fn.__name__)
    def test_rows_answer_each_point(self, fn):
        rng = np.random.default_rng(13)
        for spec in SPECS:
            X = np.array(random_interior(spec, rng))
            rows = fn(spec, X)
            assert len(rows) == len(X)
            for x, row in zip(X, rows):
                one = fn(spec, x)
                assert np.ndim(one) == np.ndim(row) and np.array_equal(one, row)
            assert type(fn(spec, X[0])) in (bool, float, np.ndarray)

    @pytest.mark.parametrize("rows", [np.full((2, 3), 0.1), np.full((2, 1), 0.1),
                                      [[0.1, 0.2], [np.nan, 0.0]], [[0.1, 0.2], [1.2, 0.0]]])
    def test_bad_rows_raise_one_line(self, rows):
        with pytest.raises(DomainError) as err:
            rho_to_boundary(DomainSpec.ball(2, 0.5), rows)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("x", [np.full((2, 1), 0.1), np.full((1, 2), 0.1), 0.1])
    def test_one_point_functions_refuse_other_shapes(self, x):
        b2 = DomainSpec.ball(2, 0.5)
        for call in (lambda: distance(b2, x, (0.0, 0.0)), lambda: chart_lift(b2, x),
                     lambda: distance_many(b2, x, [[0.0, 0.0]]),
                     lambda: ball_volume(b2, x, 0.3),
                     lambda: VolumeSource(b2)(x, 0.3)):
            with pytest.raises(DomainError) as err:
                call()
            assert "\n" not in str(err.value)


class TestChart:
    def test_examples(self):
        b2 = DomainSpec.ball(2, 0.5)
        assert chart_lift(b2, (0, 0)) == pytest.approx([0, 0, 1])
        assert chart_lift(b2, (0.6, 0)) == pytest.approx([0.6, 0, 0.8])
        s1 = DomainSpec.simplex(1, (0.5, 0.5))
        assert chart_lift(s1, (0.5,)) == pytest.approx([sqrt(0.5), sqrt(0.5)])

    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(6)
        for spec in SPECS:
            for x in random_interior(spec, rng):
                y = chart_lift(spec, x)
                assert abs(np.linalg.norm(y) - 1) <= 1e-14
                if spec.kind == "simplex":
                    assert np.all(y >= 0)
                else:
                    assert y[-1] >= 0

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for spec in SPECS:
            for _ in range(25):
                x, y = random_interior(spec, rng, 2)
                lift_dist = float(np.arccos(np.clip(chart_lift(spec, x) @ chart_lift(spec, y), -1, 1)))
                assert abs(lift_dist - distance(spec, x, y)) <= 1e-12


class TestWeight:
    def test_examples(self):
        assert weight_density(DomainSpec.ball(2, 0.5), (0.3, 0.1)) == 1.0
        assert weight_density(DomainSpec.interval(-0.5, -0.5), (0.0,)) == 1.0
        val = weight_density(DomainSpec.simplex(2, (1.0, 1.0, 1.0)), (0.25, 0.25))
        assert val == pytest.approx(0.1767766953, abs=1e-9)

    def test_boundary_singularity(self):
        with pytest.raises(BoundarySingularityError):
            weight_density(DomainSpec.interval(-0.5, -0.5), (1.0,))
        # positive exponent at the boundary is fine (vanishes)
        assert weight_density(DomainSpec.interval(0.5, 0.5), (1.0,)) == 0.0

    def test_log_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for spec in SPECS:
            for x in random_interior(spec, rng, 3):
                g = weight_log_gradient(spec, x)
                for i in range(spec.n):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd = (np.log(weight_density(spec, xp)) - np.log(weight_density(spec, xm))) / (2 * h)
                    assert g[i] == pytest.approx(fd, rel=2e-5, abs=2e-5)


class TestMetric:
    def test_examples(self):
        b2 = DomainSpec.ball(2, 0.25)
        np.testing.assert_allclose(metric_tensor(b2, (0.0, 0.0)), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(metric_tensor(b2, (0.6, 0.0)),
                                   [[1.5625, 0.0], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(inverse_metric(b2, (0.6, 0.0)),
                                   [[0.64, 0.0], [0.0, 1.0]], atol=1e-15)
        assert metric_det(b2, (0.6, 0.0)) == pytest.approx(1.5625)
        s1 = DomainSpec.simplex(1, (0.5, 0.5))
        np.testing.assert_allclose(metric_tensor(s1, (0.5,)), [[1.0]], atol=1e-14)
        np.testing.assert_allclose(inverse_metric(s1, (0.5,)), [[1.0]], atol=1e-15)
        s2 = DomainSpec.simplex(2, (1.0, 1.0, 1.0))
        assert metric_det(s2, (0.25, 0.25)) == pytest.approx(2.0)

    def test_inverse_and_det_consistency(self):
        rng = np.random.default_rng(9)
        for spec in SPECS:
            if spec.kind == "interval":
                continue
            for x in random_interior(spec, rng, 5):
                g = metric_tensor(spec, x)
                gi = inverse_metric(spec, x)
                assert np.abs(g @ gi - np.eye(spec.n)).max() <= 1e-12
                det_closed = metric_det(spec, x)
                det_lu = float(np.linalg.det(g))
                assert det_closed == pytest.approx(det_lu, rel=1e-10)
                eig = np.linalg.eigvalsh(g)
                assert np.all(eig > 0)

    def test_graph_map_determinant_crosscheck(self):
        # for the ball chart with last coordinate psi = sqrt(1 - |x|^2):
        # det g = 1 + sum (d_i psi)^2
        rng = np.random.default_rng(10)
        spec = DomainSpec.ball(2, 0.25)
        for x in random_interior(spec, rng, 6):
            r2 = float(x @ x)
            grad_psi_sq = r2 / (1 - r2)
            assert metric_det(spec, x) == pytest.approx(1 + grad_psi_sq, rel=1e-12)

    def test_boundary_refusal(self):
        with pytest.raises(BoundarySingularityError):
            metric_tensor(DomainSpec.ball(2, 0.5), (1.0, 0.0))

    def test_inverse_metric_polys_match(self):
        rng = np.random.default_rng(11)
        for spec in SPECS:
            polys = inverse_metric_polys(spec)
            for x in random_interior(spec, rng, 3):
                gi = inverse_metric(spec, x)
                for i in range(spec.n):
                    for j in range(spec.n):
                        assert polys[i][j](x) == pytest.approx(gi[i, j], abs=1e-14)


class TestPerturbedDet:
    def test_examples(self):
        assert perturbed_identity_det([1, 1]) == pytest.approx(3.0)
        assert perturbed_identity_det([2, 3]) == pytest.approx(11.0)
        assert perturbed_identity_det([0, 0, 0]) == 0.0

    def test_against_lapack(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = rng.integers(1, 9)
            a = rng.uniform(0.1, 10.0, n)
            closed = perturbed_identity_det(a)
            assert closed == pytest.approx(dense_perturbed_det(a), rel=1e-12)


class TestMass:
    def test_closed_forms(self):
        assert total_mass(DomainSpec.interval(-0.5, -0.5)) == pytest.approx(pi, rel=1e-14)
        assert total_mass(DomainSpec.ball(1, 0.5)) == pytest.approx(2.0, rel=1e-14)
        assert total_mass(DomainSpec.simplex(1, (0.5, 0.5))) == pytest.approx(1.0, rel=1e-14)

    def test_quadrature_agreement(self):
        for spec in SPECS:
            rule = build_quadrature(spec, 8)
            assert rule.total() == pytest.approx(total_mass(spec), rel=1e-12)


class TestGeometryHelpers:
    def test_rho_to_boundary(self):
        spec = DomainSpec.ball(2, 0.5)
        assert rho_to_boundary(spec, (0.0, 0.0)) == pytest.approx(pi / 2)
        assert rho_to_boundary(spec, (0.6, 0.0)) == pytest.approx(asin(0.8))
        assert contains(spec, (0.6, 0.0))
        assert not contains(spec, (1.2, 0.0))
        assert boundary_gap(spec, (0.6, 0.0)) == pytest.approx(0.64)


# closed forms pinned per kind, each value written from the formula of its
# kind: (spec, doubling_cap, _diameter, surrogate_comparability_range,
# [(x, rho_to_boundary, volume_surrogate at r = 0.3 and r = 1)])
CLOSED_FORMS = [
    (DomainSpec.interval(-0.9, 3), 891.443776815231, pi, pi,
     [((-0.7,), 0.7953988301841433, (0.008804529783841508, 1.683667107138)),
      ((0.2,), 1.369438406004566, (0.7663536639443536, 12.484477783127614)),
      ((0.95,), 0.3175604292915215, (7.986851808854654, 43.24155830221645))]),
    (DomainSpec.interval(1.5, -0.5), 64.0, pi, pi,
     [((-0.7,), 0.7953988301841433, (0.96123, 7.29)),
      ((0.2,), 1.369438406004566, (0.23763, 3.24)),
      ((0.95,), 0.3175604292915215, (0.00588, 1.1025))]),
    (DomainSpec.ball(1, 0.5), 8.0, pi, pi,
     [((0.4,), 1.1592794807274085, (0.2893095228297886, 1.3564659966250536)),
      ((-0.9,), 0.45102681179626236, (0.1587450786638754, 1.0908712114635715))]),
    (DomainSpec.ball(3, -0.4), 27.857618025475972, pi, pi,
     [((0.3, -0.2, 0.5), 0.90658108891693, (0.030964239979379027, 0.8245063299455883)),
      ((0.0, 0.0, 0.0), pi / 2, (0.026085139582083656, 0.757858283255199))]),
    (DomainSpec.simplex(1, (-0.3, 1.2)), 32.0, pi / 2, 1.0,
     [((0.3,), 0.5796397403637042, (0.29988475066269565, 1.7472526183596215)),
      ((0.9,), 0.32175055439664213, (0.04101427296518423, 0.9247942949055854))]),
    (DomainSpec.simplex(3, (0.2, -0.4, 1.0, 0.5)), 294.066778879241, pi / 2, 1.0,
     [((0.1, 0.25, 0.4), 0.3217505543966422, (0.008520370029795773, 1.4591420524890617)),
      ((0.25, 0.25, 0.25), pi / 6, (0.006641808602012278, 1.336543249988985))]),
]


class TestClosedFormPins:
    @pytest.mark.parametrize("spec, cap, diameter, comparability, rows", CLOSED_FORMS,
                             ids=lambda v: v.label() if isinstance(v, DomainSpec) else "")
    def test_values(self, spec, cap, diameter, comparability, rows):
        from polyheat.validation import doubling_cap, surrogate_comparability_range
        from polyheat.volumes import _diameter, volume_surrogate
        assert doubling_cap(spec) == pytest.approx(cap, rel=1e-14)
        assert _diameter(spec) == pytest.approx(diameter, rel=1e-15)
        assert surrogate_comparability_range(spec) == comparability
        for x, rho, surrogates in rows:
            assert rho_to_boundary(spec, x) == pytest.approx(rho, rel=1e-13)
            for r, v in zip((0.3, 1.0), surrogates):
                assert volume_surrogate(spec, x, r) == pytest.approx(v, rel=1e-13)


class TestIntervalAsSimplex:
    """interval(alpha, beta) is simplex(1, (beta + 1/2, alpha + 1/2)) under
    x = 2u - 1, with its distances doubled."""

    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.7, -0.3), (-0.9, 3.0),
                                             (1.5, 1.5)])
    def test_identity(self, alpha, beta):
        from polyheat.basis import eigenvalue
        from polyheat.validation import doubling_cap
        interval = DomainSpec.interval(alpha, beta)
        simplex = DomainSpec.simplex(1, (beta + 0.5, alpha + 0.5))
        assert total_mass(interval) / total_mass(simplex) == pytest.approx(
            2.0 ** (alpha + beta + 1), rel=1e-13)
        for k in range(12):
            assert eigenvalue(interval, k) == pytest.approx(eigenvalue(simplex, k), rel=1e-15)
        assert doubling_cap(interval) == doubling_cap(simplex)
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.97, 0.97, (20, 1))
        u = (x + 1) / 2
        np.testing.assert_allclose(rho_to_boundary(interval, x),
                                   2 * rho_to_boundary(simplex, u), rtol=1e-13)
        np.testing.assert_allclose(distance_matrix(interval, x, x[::-1]),
                                   2 * distance_matrix(simplex, u, u[::-1]), atol=1e-11)
        np.testing.assert_allclose(weight_density(interval, x),
                                   2.0 ** (alpha + beta) * weight_density(simplex, u),
                                   rtol=1e-13)
