import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat.basis import graded_monomials
from polyheat.domains import DomainSpec
from polyheat.errors import DomainError, ParameterError
from polyheat.polynomials import (
    MultiPoly,
    apply_ball_operator,
    apply_jacobi_operator,
    apply_simplex_operator,
    monomial_vandermonde,
    operator_matrix,
    partial_matrix,
    poly_eval,
    poly_partial,
)

from _oracles import (
    apply_operator,
    as_coefficients,
    poly_affine_univariate,
    sympy_ball_apply,
    sympy_jacobi_apply,
    sympy_simplex_apply,
)


def rand_poly(n, degree, rng):
    terms = {}
    for _ in range(3 * (degree + 1)):
        e = tuple(int(v) for v in rng.integers(0, degree + 1, n))
        if sum(e) <= degree:
            terms[e] = rng.uniform(-2, 2)
    return MultiPoly(n, terms)


class TestEval:
    def test_constant(self):
        p = MultiPoly.constant(2, 1.0)
        assert poly_eval(p, (0.3, 0.4)) == 1.0

    def test_monomial(self):
        p = MultiPoly.monomial((1, 1))
        assert poly_eval(p, (2.0, 3.0)) == 6.0

    def test_quadratic(self):
        # x^2 - 1/2 at 0.5 -> 0.25 - 0.5
        p = MultiPoly(1, {(2,): 1.0, (0,): -0.5})
        assert poly_eval(p, 0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            poly_eval(MultiPoly.monomial((1, 0)), (1.0, 2.0, 3.0))

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = rand_poly(3, 4, rng)
        pts = rng.uniform(-1, 1, (20, 3))
        vals = p.eval_many(pts)
        for i in range(20):
            assert vals[i] == pytest.approx(poly_eval(p, pts[i]), rel=1e-13, abs=1e-13)


class TestPartial:
    def test_examples(self):
        p = MultiPoly(2, {(2, 1): 1.0})
        assert poly_partial(p, 0) == MultiPoly(2, {(1, 1): 2.0})
        assert poly_partial(MultiPoly.monomial((1, 0)), 1).is_zero()
        q = MultiPoly(1, {(3,): 3.0, (1,): -1.0})
        assert poly_partial(q, 0) == MultiPoly(1, {(2,): 9.0, (0,): -1.0})

    def test_axis_out_of_range(self):
        with pytest.raises(DomainError):
            poly_partial(MultiPoly.constant(2, 1.0), 2)


class TestOperators:
    def test_annihilate_constants(self):
        one1, one2 = MultiPoly.constant(1, 1.0), MultiPoly.constant(2, 1.0)
        assert apply_jacobi_operator(one1, 0.3, -0.2).is_zero()
        assert apply_ball_operator(one2, 0.7).is_zero()
        assert apply_simplex_operator(one2, (0.5, 0.5, 0.5)).is_zero()

    def test_jacobi_degree_one_eigen(self):
        # lambda_1 = 1 * (1 + a + b + 1) = 1 at a = b = -1/2
        x = MultiPoly.variable(1, 0)
        assert apply_jacobi_operator(x, -0.5, -0.5) == -1.0 * x

    def test_jacobi_square(self):
        p = MultiPoly.monomial((2,))
        out = apply_jacobi_operator(p, 0.0, 0.0)
        assert out == MultiPoly(1, {(0,): 2.0, (2,): -6.0})

    def test_ball_degree_one_eigen(self):
        x1 = MultiPoly.variable(2, 0)
        assert apply_ball_operator(x1, 0.5) == -3.0 * x1
        x = MultiPoly.variable(1, 0)
        g = 0.8
        assert apply_ball_operator(x, g) == -(1 + 2 * g) * x

    def test_simplex_degree_one_eigen(self):
        p = MultiPoly(1, {(1,): 1.0, (0,): -0.5})
        assert apply_simplex_operator(p, (0.5, 0.5)) == -2.0 * p

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_jacobi_vs_sympy(self, seed):
        rng = np.random.default_rng(seed)
        p = rand_poly(1, 6, rng)
        a, b = rng.uniform(-0.9, 2.0, 2)
        out = apply_jacobi_operator(p, a, b)
        ref = sympy_jacobi_apply(p, a, b)
        assert out.coeff_distance(ref) <= 1e-12 * max(1.0, ref.max_abs_coeff())

    @pytest.mark.parametrize("n,seed", [(1, 4), (2, 5), (3, 6)])
    def test_ball_vs_sympy(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rand_poly(n, 5, rng)
        g = rng.uniform(-0.4, 2.0)
        out = apply_ball_operator(p, g)
        ref = sympy_ball_apply(p, g)
        assert out.coeff_distance(ref) <= 1e-12 * max(1.0, ref.max_abs_coeff())

    @pytest.mark.parametrize("n,seed", [(1, 7), (2, 8), (3, 9)])
    def test_simplex_vs_sympy(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rand_poly(n, 5, rng)
        kappa = tuple(rng.uniform(-0.4, 2.0, n + 1))
        out = apply_simplex_operator(p, kappa)
        ref = sympy_simplex_apply(p, kappa)
        assert out.coeff_distance(ref) <= 1e-12 * max(1.0, ref.max_abs_coeff())

    def test_degree_preservation(self):
        rng = np.random.default_rng(11)
        for n, op in [(1, lambda p: apply_jacobi_operator(p, 0.2, 0.4)),
                      (2, lambda p: apply_ball_operator(p, 0.3)),
                      (2, lambda p: apply_simplex_operator(p, (0.1, 0.4, 1.0)))]:
            for deg in range(0, 7):
                p = rand_poly(n, deg, rng)
                assert op(p).degree() <= p.degree()

    def test_linearity(self):
        rng = np.random.default_rng(12)
        p, q = rand_poly(2, 5, rng), rand_poly(2, 5, rng)
        a, b = 1.7, -0.3
        lhs = apply_ball_operator(a * p + b * q, 0.25)
        rhs = a * apply_ball_operator(p, 0.25) + b * apply_ball_operator(q, 0.25)
        assert lhs.coeff_distance(rhs) <= 1e-12 * max(1.0, rhs.max_abs_coeff())

    def test_parameter_errors(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(ParameterError):
            apply_jacobi_operator(x, -1.0, 0.0)
        with pytest.raises(ParameterError):
            apply_ball_operator(x, -0.5)
        with pytest.raises(ParameterError):
            apply_simplex_operator(x, (-0.5, 0.5))
        with pytest.raises(ParameterError):
            apply_simplex_operator(x, (0.5, 0.5, 0.5))


class TestCoefficientArrays:
    """The dense coefficient-array path against MultiPoly arithmetic."""

    @pytest.mark.parametrize("spec", [DomainSpec.interval(0.7, -0.3), DomainSpec.ball(2, 0.5),
                                      DomainSpec.ball(3, 0.0),
                                      DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
                                      DomainSpec.simplex(3, (0.25, 0.5, 0.5, 1.0))],
                             ids=lambda s: s.label())
    def test_operator_and_partials(self, spec):
        rng = np.random.default_rng(13)
        monomials = graded_monomials(spec.n, 6)
        p = rand_poly(spec.n, 6, rng)
        c = as_coefficients(p, monomials)
        got = c @ operator_matrix(spec, monomials)
        want = as_coefficients(apply_operator(spec, p), monomials)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for axis in range(spec.n):
            want = as_coefficients(poly_partial(p, axis), monomials)
            assert np.array_equal(c @ partial_matrix(monomials, axis), want)

    def test_vandermonde_matches_eval_many(self):
        rng = np.random.default_rng(14)
        monomials = graded_monomials(3, 5)
        p = rand_poly(3, 5, rng)
        pts = rng.uniform(-1, 1, (20, 3))
        vals = monomial_vandermonde(pts, monomials) @ as_coefficients(p, monomials)
        assert np.abs(vals - p.eval_many(pts)).max() <= 1e-13
        with pytest.raises(DomainError):
            monomial_vandermonde(pts[:, :2], monomials)


class TestSerialization:
    def test_roundtrip_and_order(self):
        p = MultiPoly(2, {(2, 0): 1.5, (0, 1): -2.0, (1, 1): 3.0, (0, 0): 0.5})
        obj = p.to_json_obj()
        exps = [tuple(e) for e, _ in obj["terms"]]
        keys = [(sum(e), e) for e in exps]
        assert keys == sorted(keys)
        assert MultiPoly.from_json_obj(obj) == p

    def test_zero_pruning(self):
        p = MultiPoly(1, {(0,): 1.0, (1,): 0.0})
        assert p.num_terms() == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(-1, 1),
)
def test_affine_composition_matches_pointwise(coeffs, a, b, x):
    p = MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})
    q = poly_affine_univariate(p, a, b)
    direct = poly_eval(p, a * x + b)
    assert poly_eval(q, x) == pytest.approx(direct, rel=1e-9, abs=1e-9)
