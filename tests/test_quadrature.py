import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi

from polyheat.basis import build_basis, graded_monomials
from polyheat.domains import DomainSpec, total_mass
from polyheat.errors import CapacityError
from polyheat.quadrature import (
    MAX_RULE_NODES,
    build_quadrature,
    gauss_jacobi,
    gauss_jacobi_01,
    jacobi_recurrence,
    sphere_rule,
)
from polyheat.validation import PolyField, boundary_flux_decay

from _oracles import (
    ball_monomial_moment,
    hand_written_sphere_rule,
    interval_monomial_moment,
    simplex_monomial_moment,
    sphere_monomial_moment,
)

CASES = [
    (DomainSpec.interval(-0.5, -0.5), 16),
    (DomainSpec.interval(0.7, -0.3), 14),
    (DomainSpec.ball(1, 0.8), 14),
    (DomainSpec.ball(2, 0.25), 12),
    (DomainSpec.ball(3, -0.2), 10),
    (DomainSpec.ball(4, 0.5), 8),
    (DomainSpec.ball(5, -0.2), 6),
    (DomainSpec.simplex(1, (0.5, 0.5)), 14),
    (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 12),
    (DomainSpec.simplex(3, (0.5, 0.2, 1.0, -0.1)), 8),
]


def reference_moment(spec, exponents):
    if spec.kind == "interval":
        return interval_monomial_moment(exponents[0], spec.alpha, spec.beta)
    if spec.kind == "ball":
        return ball_monomial_moment(exponents, spec.gamma)
    return simplex_monomial_moment(exponents, spec.kappa)


@pytest.mark.parametrize("spec,deg", CASES, ids=lambda v: str(v))
def test_weights_sum_to_mass(spec, deg):
    rule = build_quadrature(spec, deg)
    assert np.all(rule.weights > 0)
    assert rule.total() == pytest.approx(total_mass(spec), rel=1e-12)


@pytest.mark.parametrize("spec,deg", CASES, ids=lambda v: str(v))
def test_all_monomial_moments(spec, deg):
    rule = build_quadrature(spec, deg)
    scale = total_mass(spec)
    for e in graded_monomials(spec.n, deg):
        vals = np.prod(rule.nodes ** np.asarray(e)[None, :], axis=1)
        got = float(rule.weights @ vals)
        ref = reference_moment(spec, e)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-11 * scale), e


def test_capacity_error():
    with pytest.raises(CapacityError):
        build_quadrature(DomainSpec.simplex(4, (0.5,) * 5), 200)


@pytest.mark.parametrize("call", [
    # 11 radii times 43 * 22^6 sphere nodes, about 5e9
    lambda: build_quadrature(DomainSpec.ball(8, 0.5), 42),
    # the sphere of the flux probe, 33 * 17^6 nodes at its least degree 32
    lambda: boundary_flux_decay(DomainSpec.ball(8, 0.5), [1.0], PolyField([1.0], 8),
                                [0.2, 0.1, 0.05, 0.02]),
], ids=["build_quadrature", "boundary_flux_decay"])
def test_ball_8_is_refused_before_any_allocation(call):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the node budget"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_rule_matches_the_hand_written_rules(n):
    for degree in range(8, 63):
        nodes, weights = sphere_rule(n, degree)
        ref_nodes, ref_weights = hand_written_sphere_rule(n, degree)
        assert np.array_equal(nodes, ref_nodes)
        if n < 3:
            assert np.array_equal(weights, ref_weights)
        else:
            # w_z (2 pi / m) against the hand-written (w_z 2 pi) / m: two
            # roundings each, so at most 2 ulp apart
            assert np.all(np.abs(weights - ref_weights) <= 2 * np.spacing(ref_weights))


@pytest.mark.parametrize("n, degree", [(1, 9), (2, 12), (3, 11), (4, 10), (5, 8), (6, 7)])
def test_sphere_rule_integrates_every_monomial(n, degree):
    nodes, weights = sphere_rule(n, degree)
    assert np.all(weights > 0)
    for e in graded_monomials(n, degree):
        got = float(weights @ np.prod(nodes ** np.asarray(e), axis=1))
        assert got == pytest.approx(sphere_monomial_moment(e), rel=1e-13, abs=1e-13), e


def test_rule_over_the_node_budget_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        for call in (lambda: gauss_jacobi(MAX_RULE_NODES + 1, 0.5, -0.5),
                     lambda: build_quadrature(DomainSpec.interval(0.0, 0.0), 10 ** 9)):
            with pytest.raises(CapacityError, match="exceeds the budget of 2048"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("call", [
    lambda: jacobi_recurrence(4, 0.0, 1041.0),
    lambda: gauss_jacobi(8, 1999.5, 0.0),
    lambda: total_mass(DomainSpec.interval(1040, 0)),
    lambda: total_mass(DomainSpec.interval(0, 1100)),
], ids=["recurrence", "gauss_jacobi", "interval_alpha", "interval_beta"])
def test_mass_beyond_a_double_is_refused(call):
    with pytest.raises(CapacityError, match="beyond the range of a double; lower the weight"):
        call()


def test_mass_within_a_double_is_kept():
    # 2^501 / 501, the mass of interval(500, 0)
    assert total_mass(DomainSpec.interval(500, 0)) == pytest.approx(2.0 ** 501 / 501, rel=1e-12)
    assert jacobi_recurrence(2, 500.0, 0.0)[2] == pytest.approx(2.0 ** 501 / 501, rel=1e-12)


def test_gauss_jacobi_01_beta_moments():
    # weight u^b (1-u)^a on (0, 1): moments are Beta ratios
    from math import lgamma, exp

    a, b = 0.7, -0.3
    u, w = gauss_jacobi_01(8, a, b)
    for k in range(6):
        got = float(w @ u ** k)
        ref = exp(lgamma(b + 1 + k) + lgamma(a + 1) - lgamma(a + b + 2 + k))
        assert got == pytest.approx(ref, rel=1e-13)


def test_recurrence_chebyshev():
    a, sqb, mass = jacobi_recurrence(6, -0.5, -0.5)
    assert mass == pytest.approx(np.pi)
    assert a == pytest.approx(np.zeros(7), abs=1e-15)
    # b_1 = 1/2, b_k = 1/4 beyond
    assert sqb[1] ** 2 == pytest.approx(0.5)
    assert sqb[2] ** 2 == pytest.approx(0.25)
    assert sqb[5] ** 2 == pytest.approx(0.25)


RULE_SIZES = [1, 2, 7, 32, 202]
RULE_WEIGHTS = [(-0.9, -0.9), (-0.99, 4.0), (4.0, -0.99), (0.0, 0.0), (-0.5, -0.5),
                (1.5, -0.5), (0.7, -0.3)]


def orthonormal_values(m, alpha, beta, x):
    """(m, len(x)) values of p_0..p_(m-1) from the three-term recurrence."""
    a, sqb, mass = jacobi_recurrence(m, alpha, beta)
    P = np.empty((m, x.size))
    P[0] = 1.0 / np.sqrt(mass)
    for k in range(m - 1):
        P[k + 1] = ((x - a[k]) * P[k] - (sqb[k] * P[k - 1] if k else 0.0)) / sqb[k + 1]
    return P


@pytest.mark.parametrize("alpha,beta", RULE_WEIGHTS)
@pytest.mark.parametrize("m", RULE_SIZES)
def test_gauss_jacobi_gram(m, alpha, beta):
    x, w = gauss_jacobi(m, alpha, beta)
    P = orthonormal_values(m, alpha, beta, x)
    assert np.abs((P * w) @ P.T - np.eye(m)).max() <= 1e-12


@pytest.mark.parametrize("alpha,beta", RULE_WEIGHTS)
@pytest.mark.parametrize("m", RULE_SIZES)
def test_gauss_jacobi_nodes_match_scipy(m, alpha, beta):
    x, _ = gauss_jacobi(m, alpha, beta)
    assert np.abs(x - roots_jacobi(m, alpha, beta)[0]).max() <= 1e-14


def test_gauss_jacobi_cached_read_only():
    x, w = gauss_jacobi(12, 0.25, -0.5)
    assert gauss_jacobi(12, 0.25, -0.5)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("alpha,beta", [(-0.9, -0.9), (-0.9, 0.0), (0.0, -0.9)])
def test_interval_basis_gram_at_degree_200(alpha, beta):
    assert build_basis(DomainSpec.interval(alpha, beta), 200).gram_residual() <= 1e-12
