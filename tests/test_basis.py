import json
import tracemalloc
from math import comb, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import basis as basis_module
from polyheat.basis import (
    build_basis,
    christoffel_diag,
    eigenvalue,
    graded_monomials,
    level_dimension,
    projection_kernel,
    verify_eigenrelation,
)
from polyheat.domains import DomainSpec, total_mass
from polyheat.errors import CapacityError, DomainError, ParameterError, PrecisionError
from polyheat.polynomials import MultiPoly, monomial_operator, monomial_vandermonde
from polyheat.quadrature import build_quadrature
from polyheat.validation import operator_symmetry_residual, random_coefficients

from _oracles import (apply_operator, gather_scatter_eigenrelation,
                      identity_gap_gram_residual, innermost_family, member_gram_schmidt,
                      reference_interval_basis, untrimmed_coefficient_rows)


class TestEigenvalues:
    def test_closed_forms(self):
        assert eigenvalue(DomainSpec.interval(-0.5, -0.5), 5) == pytest.approx(25.0)
        assert eigenvalue(DomainSpec.ball(2, 0.5), 1) == pytest.approx(3.0)
        assert eigenvalue(DomainSpec.simplex(1, (0.5, 0.5)), 1) == pytest.approx(2.0)

    def test_table_monotone(self):
        for spec in (DomainSpec.interval(0.3, -0.4), DomainSpec.ball(2, -0.3),
                     DomainSpec.simplex(2, (-0.4, 0.0, 1.0))):
            lambdas = build_basis(spec, 30 if spec.kind == "interval" else 12).lambdas
            assert lambdas[0] == 0.0
            assert np.all(np.diff(lambdas) > 0)

    def test_basis_refuses_non_increasing_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(basis_module, "eigenvalue", lambda spec, k: float(k % 3))
        with pytest.raises(ParameterError, match="increase strictly"):
            build_basis(DomainSpec.interval(-0.5, -0.5), 4)

    def test_level_dimensions(self):
        assert level_dimension(2, 0) == 1
        assert level_dimension(2, 5) == comb(6, 5)
        assert level_dimension(3, 4) == comb(6, 4)


class TestGradedMonomials:
    def test_count_and_order(self):
        monos = graded_monomials(2, 4)
        assert len(monos) == comb(6, 2)
        keys = [(sum(e), e) for e in monos]
        assert keys == sorted(keys)


BUILD_CASES = [
    DomainSpec.interval(-0.5, -0.5),
    DomainSpec.interval(1.5, -0.9),
    DomainSpec.ball(1, 0.8),
    DomainSpec.ball(2, 0.25),
    DomainSpec.simplex(1, (0.5, 0.5)),
    DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
]


@pytest.mark.parametrize("spec", BUILD_CASES, ids=lambda s: s.label())
class TestBuild:
    def test_structure_and_quality(self, spec):
        K = 12
        basis = build_basis(spec, K)
        for k in range(K + 1):
            assert len(basis.levels[k]) == level_dimension(spec.n, k)
            for p in basis.levels[k]:
                assert p.degree() == k
        tol = 1e-10 if spec.kind == "interval" else 1e-8
        assert basis.gram_residual() <= tol
        res = verify_eigenrelation(basis)
        assert res[0] <= 1e-12
        assert res.max() <= 1e-9
        assert np.array_equal(verify_eigenrelation(basis, max_level=5), res[:6])

    def test_constant_level(self, spec):
        basis = build_basis(spec, 3)
        p0 = basis.levels[0][0]
        assert p0.degree() == 0
        assert abs(p0.coeff((0,) * spec.n)) == pytest.approx(1 / sqrt(total_mass(spec)), rel=1e-12)

    def test_replay_matches_nodes(self, spec):
        basis = build_basis(spec, 10)
        vals = basis.evaluate(basis.quad.nodes)
        assert np.abs(vals - basis.node_values).max() <= 1e-11


def level_projectors(V, offsets):
    """Sum_j P_kj(x) P_kj(y) over the rows of V, one matrix per level."""
    return [V[:, a:b] @ V[:, a:b].T for a, b in zip(offsets[:-1], offsets[1:])]


class TestLevelBlockedBuild:
    @pytest.mark.parametrize("spec, interval", [
        (DomainSpec.ball(1, 0.25), DomainSpec.interval(-0.25, -0.25)),
        (DomainSpec.ball(1, 1.5), DomainSpec.interval(1.0, 1.0)),
        (DomainSpec.simplex(1, (0.5, 1.5)), DomainSpec.interval(1.0, 0.0)),
        (DomainSpec.simplex(1, (-0.3, 0.8)), DomainSpec.interval(0.3, -0.8)),
    ], ids=lambda s: s.label())
    def test_one_dimensional_levels_match_the_recurrence(self, spec, interval):
        # the simplex [0, 1] is the interval under t = 2x - 1, and its
        # measure is the interval's divided by the mass ratio c
        K = 16
        u = np.random.default_rng(5).uniform(0.02, 0.98, (40, 1))
        t = 2 * u - 1
        x = t if spec.kind == "ball" else u
        c = total_mass(interval) / total_mass(spec)
        got = level_projectors(build_basis(spec, K).evaluate(x), np.arange(K + 2))
        ref = level_projectors(build_basis(interval, K).evaluate(t), np.arange(K + 2))
        for P, Q in zip(got, ref):
            assert np.abs(P - c * Q).max() <= 1e-12 * np.abs(c * Q).max()

    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.ball(2, 0.5), 12),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 12),
        (DomainSpec.ball(3, -0.3), 6),
        (DomainSpec.simplex(3, (0.2, 0.5, 1.0, -0.4)), 6),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_levels_match_member_by_member_build(self, spec, K):
        basis = build_basis(spec, K)
        ref = member_gram_schmidt(spec, K, basis.quad)
        for P, Q in zip(level_projectors(basis.node_values, basis.offsets),
                        level_projectors(ref, basis.offsets)):
            assert np.abs(P - Q).max() <= 1e-10 * np.abs(Q).max()

    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.ball(2, 0.5), 20),
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 20),
        (DomainSpec.ball(3, -0.3), 8),
        (DomainSpec.simplex(3, (0.2, 0.5, 1.0, -0.4)), 8),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_dropped_replay_coefficients_vanish(self, spec, K):
        # the three-term relation: x_i P_(k-1, j) has components in levels
        # k-2..k only; those against lower levels vanish up to rounding
        basis = build_basis(spec, K)
        V, w, o = basis.node_values, basis.quad.weights, basis.offsets
        for k in range(3, K + 1):
            X = np.concatenate([basis.quad.nodes[:, [i]] * V[:, o[k - 1]:o[k]]
                                for i in range(spec.n)], axis=1)
            coef = V[:, :o[k]].T @ (w[:, None] * X)
            assert np.abs(coef[:o[k - 2]]).max() <= 1e-13 * np.abs(coef[o[k - 2]:]).max()

    def test_replay_matches_nodes_at_degree_30(self):
        basis = build_basis(DomainSpec.ball(2, 0.5), 30)
        assert np.abs(basis.evaluate(basis.quad.nodes) - basis.node_values).max() <= 1e-8

    @pytest.mark.parametrize("spec", [DomainSpec.ball(2, 0.5),
                                      DomainSpec.simplex(2, (0.5, 0.5, 0.5))],
                             ids=lambda s: s.label())
    def test_build_holds_at_most_one_extra_node_array(self, spec):
        K = 20
        quad = build_quadrature(spec, 2 * K + 2)
        tracemalloc.start()
        try:
            basis = build_basis(spec, K, quad=quad)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= quad.size * basis.size * 8


def _quality(basis):
    return basis.gram_residual(), verify_eigenrelation(basis).max()


class TestProductBasis:
    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.ball(2, 0.5), 40),
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 40),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 40),
        (DomainSpec.ball(3, 0.5), 15),
        (DomainSpec.simplex(3, (0.5, 0.5, 0.5, 0.5)), 15),
        (DomainSpec.interval(0.3, -0.2), 0),
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 1),
        (DomainSpec.ball(3, 0.5), 0),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_gram_and_eigenrelation(self, spec, K):
        gram, verify = _quality(build_basis(spec, K))
        assert gram <= 1e-12
        assert verify <= 1e-12

    def test_simplex_at_its_cap_meets_the_gates(self):
        basis = build_basis(DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 40)
        node = basis.node_values
        assert verify_eigenrelation(basis).max() <= 1e-8
        assert np.abs(basis.evaluate(basis.quad.nodes) - node).max() <= 1e-8 * np.abs(node).max()

    @pytest.mark.parametrize("spec, points", [
        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), [(1, 0), (0, 1), (0, 0), (0.5, 0.5), (0, 0.3)]),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), [(1, 0), (0, 1), (0, 0), (0.25, 0.75)]),
        (DomainSpec.ball(2, 0.5), [(1, 0), (0, -1), (-1, 0), (0.6, -0.8), (0, 0)]),
        (DomainSpec.ball(3, 0.25), [(1, 0, 0), (0, 0, -1), (0.6, 0, 0.8)]),
        (DomainSpec.simplex(3, (0.5, 0.5, 0.5, 0.5)), [(1, 0, 0), (0, 0, 1), (0, 0, 0)]),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else "points")
    def test_vertices_and_boundary_match_the_coefficients(self, spec, points):
        # relative to sum_e |c_e x^e|, the scale of the monomial form's own
        # rounding; at a simplex vertex it is about 1e5 times the value
        basis = build_basis(spec, 8)
        got = basis.evaluate(np.array(points, dtype=float))
        V = monomial_vandermonde(points, graded_monomials(spec.n, 8))
        C = basis.coefficients.T
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - V @ C) <= 1e-12 * (np.abs(V) @ np.abs(C)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-0.45, 3.0), min_size=3, max_size=3))
    def test_weights_property(self, params):
        for spec in (DomainSpec.ball(2, params[0]), DomainSpec.simplex(2, params)):
            gram, verify = _quality(build_basis(spec, 10))
            assert gram <= 1e-12
            assert verify <= 1e-12


class TestLevelTrimmedSweeps:
    """Each level works on the columns and levels its caller reads, bit for bit."""

    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.interval(-0.5, -0.5), 200),
        (DomainSpec.interval(1.5, -0.5), 200),
        (DomainSpec.interval(-0.9, 0.0), 200),
        (DomainSpec.interval(0.0, 1.5), 200),
        (DomainSpec.ball(2, 0.5), 20),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 20),
        (DomainSpec.ball(3, 0.5), 8),
        (DomainSpec.simplex(3, (0.2, 0.5, 1.0, -0.4)), 8),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_coefficient_rows_equal_the_untrimmed_recurrence(self, spec, K):
        basis = build_basis(spec, K)
        assert np.array_equal(basis.coefficients, untrimmed_coefficient_rows(basis))

    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.interval(1.5, -0.5), 60),
        (DomainSpec.ball(2, 0.5), 12),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 12),
        (DomainSpec.simplex(3, (0.2, 0.5, 1.0, -0.4)), 6),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_values_through_a_level(self, spec, K):
        basis = build_basis(spec, K)
        pts = basis.quad.nodes[::3]
        full = basis.evaluate(pts)
        for last in (0, 1, 2, K // 2, K - 1, K):
            got = basis._values(pts, last)
            end = basis.level_slice(last).stop
            assert np.array_equal(got[:, :end], full[:, :end]), last
            assert not got[:, end:].any(), last


class TestOneDimensionalFamily:
    """The innermost family, bit for bit against Python floats one point at a time."""

    @pytest.mark.parametrize("spec, K", [
        (DomainSpec.interval(-0.9, -0.9), 200),
        (DomainSpec.interval(1.5, -0.5), 200),
        (DomainSpec.interval(-0.5, -0.5), 200),
        (DomainSpec.ball(1, 0.5), 200),
        (DomainSpec.simplex(1, (0.3, 1.2)), 200),
        (DomainSpec.ball(2, 0.5), 30),
        (DomainSpec.simplex(2, (-0.3, 0.8, 1.7)), 30),
    ], ids=lambda s: s.label() if isinstance(s, DomainSpec) else f"K={s}")
    def test_values_and_coefficients_equal_the_scalar_recurrence(self, spec, K):
        basis = build_basis(spec, K)
        rng = np.random.default_rng(7)
        if spec.n == 1:
            lo = -1.0 if spec.kind != "simplex" else 0.0
            pts = np.concatenate([[lo, 1.0, (lo + 1) / 2], rng.uniform(lo, 1.0, 9)])[:, None]
        elif spec.kind == "ball":
            r, phi = np.sqrt(rng.uniform(0, 1, 9)), rng.uniform(0, 2 * pi, 9)
            pts = np.vstack([[[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [0.0, 0.0]],
                             np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)])
        else:
            pts = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.75]],
                             rng.dirichlet((1.0, 1.0, 1.0), 9)[:, :2]])
        values, rows, p0 = innermost_family(basis, pts)
        cols = basis.offsets[1:] - 1     # the member of level m whose inner factor is q_m
        ref = np.array(values) * np.array(p0)
        assert np.array_equal(basis.evaluate(pts)[:, cols], ref)
        for last in (0, 1, 2, K // 3, K):
            got = basis._values(pts, last)
            assert np.array_equal(got[:, cols[: last + 1]], ref[:, : last + 1]), last
            assert not got[:, cols[last + 1:]].any(), last
        assert np.array_equal(basis.coefficients[cols], rows * np.array(p0)[:, None])
        nodes = slice(None, None, 17)
        values, _, _ = innermost_family(basis, basis.quad.nodes[nodes])
        assert np.array_equal(basis.node_values[nodes][:, cols], np.array(values) * np.array(p0))


OPERATOR_CASES = [
    DomainSpec.interval(0.7, -0.3),
    DomainSpec.interval(-0.5, -0.5),
    DomainSpec.ball(1, 0.8),
    DomainSpec.ball(2, 0.25),
    DomainSpec.ball(3, -0.3),
    DomainSpec.simplex(1, (0.5, 1.5)),
    DomainSpec.simplex(2, (-0.3, 0.8, 1.7)),
    DomainSpec.simplex(3, (0.2, 0.5, 1.0, -0.4)),
]


def reference_eigen_residuals(basis):
    """The MultiPoly form of verify_eigenrelation: one member at a time."""
    out = np.zeros(basis.max_degree + 1)
    for k in range(basis.max_degree + 1):
        lam = basis.lambdas[k]
        for p in basis.levels[k]:
            r = apply_operator(basis.spec, p) + lam * p
            scale = 1.0 if k == 0 else lam * p.max_abs_coeff()
            out[k] = max(out[k], r.max_abs_coeff() / scale)
    return out


@pytest.mark.parametrize("spec", OPERATOR_CASES, ids=lambda s: s.label())
class TestVectorizedVerification:
    def test_monomial_operator_matches_multipoly(self, spec):
        monos = graded_monomials(spec.n, 8)
        diag, lowering = monomial_operator(spec, monos)
        L = np.diag(diag)
        for src, dst, coef in lowering:
            assert np.unique(dst).size == dst.size
            L[dst, src] += coef
        for j, e in enumerate(monos):
            ref = apply_operator(spec, MultiPoly.monomial(e))
            col = np.array([ref.coeff(f) for f in monos])
            assert np.abs(L[:, j] - col).max() <= 1e-12 * max(1.0, np.abs(col).max())

    def test_matches_multipoly_reference(self, spec):
        basis = build_basis(spec, 6 if spec.n == 3 else 12)
        ref = reference_eigen_residuals(basis)
        assert np.abs(verify_eigenrelation(basis) - ref).max() <= 1e-13

    def test_perturbed_member_fails_its_level(self, spec):
        basis = build_basis(spec, 6)
        clean = verify_eigenrelation(basis)
        k = 4
        row = int(basis.offsets[k]) + 1 if spec.n > 1 else k
        for col in (0, int(basis.offsets[k + 1]) - 1):
            saved = basis._coeff[row, col]
            basis._coeff[row, col] += 1e-6 * np.abs(basis._coeff[row]).max()
            res = verify_eigenrelation(basis)
            assert res[k] > 1e-8
            assert np.array_equal(np.delete(res, k), np.delete(clean, k))
            basis._coeff[row, col] = saved


@pytest.mark.parametrize("spec, K", [(DomainSpec.interval(1.5, -0.5), 200),
                                     (DomainSpec.ball(2, 0.5), 20),
                                     (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 20)],
                         ids=lambda c: c.label() if isinstance(c, DomainSpec) else str(c))
def test_slice_updates_keep_the_bits_of_the_gather_scatter_form(spec, K):
    basis = build_basis(spec, K)
    assert np.array_equal(verify_eigenrelation(basis), gather_scatter_eigenrelation(basis))
    assert basis.gram_residual() == identity_gap_gram_residual(basis)
    # every lowering term of the interval is one column slice
    _, lowering = monomial_operator(spec, basis._monomials)
    spans = [type(basis_module._span(idx)) is slice for src, dst, _ in lowering
             for idx in (src, dst)]
    assert all(spans) if spec.kind == "interval" else not all(spans)


# the (alpha, beta) pairs of the validate-interval benchmark workload
INTERVAL_PAIRS = [(-0.9, -0.9), (-0.9, 0.0), (-0.5, -0.5), (-0.5, 1.5),
                  (0.0, -0.9), (0.0, 0.0), (1.5, -0.5), (1.5, 1.5)]


class TestIntervalBasis:
    @pytest.mark.parametrize("alpha, beta", INTERVAL_PAIRS)
    def test_bit_identical_to_hand_written_recurrences(self, alpha, beta):
        spec = DomainSpec.interval(alpha, beta)
        basis = build_basis(spec, 200)
        values, C = reference_interval_basis(spec, 200)
        x = np.random.default_rng(3).uniform(-1, 1, (100, 1))
        assert np.array_equal(basis.node_values, values(basis.quad.nodes))
        assert np.array_equal(basis.evaluate(x), values(x))
        assert np.array_equal(basis.coefficients, C)

    def test_chebyshev_members(self):
        basis = build_basis(DomainSpec.interval(-0.5, -0.5), 8)
        assert basis.levels[0][0].coeff((0,)) == pytest.approx(1 / sqrt(pi), rel=1e-13)
        p1 = basis.levels[1][0]
        assert p1.coeff((1,)) == pytest.approx(sqrt(2 / pi), rel=1e-13)
        assert abs(p1.coeff((0,))) < 1e-15

    def test_simplex_first_member_proportional(self):
        basis = build_basis(DomainSpec.simplex(1, (0.5, 0.5)), 4)
        p1 = basis.levels[1][0]
        # proportional to x - 1/2
        ratio = p1.coeff((0,)) / p1.coeff((1,))
        assert ratio == pytest.approx(-0.5, rel=1e-12)


class TestProjectionKernel:
    def test_level_zero(self):
        for spec in (DomainSpec.interval(0.3, -0.4), DomainSpec.ball(2, 0.5)):
            basis = build_basis(spec, 6)
            x = np.full(spec.n, 0.1)
            y = np.full(spec.n, -0.2) if spec.kind != "simplex" else np.full(spec.n, 0.2)
            assert projection_kernel(basis, 0, x, y) == pytest.approx(
                1 / total_mass(spec), rel=1e-12)

    def test_chebyshev_product_form(self):
        basis = build_basis(DomainSpec.interval(-0.5, -0.5), 12)
        th, ph = 1.1, 0.4
        for k in (1, 4, 9):
            got = projection_kernel(basis, k, [np.cos(th)], [np.cos(ph)])
            ref = (2 / pi) * np.cos(k * th) * np.cos(k * ph)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_reproducing_and_mean_zero(self):
        spec = DomainSpec.ball(2, 0.25)
        K = 8
        basis = build_basis(spec, K)
        quad = basis.quad
        w = quad.weights
        V = basis.node_values
        x = np.array([0.3, -0.2])
        vx = basis.evaluate(x[None, :])[0]
        for k in (1, 3, 6):
            sl = basis.level_slice(k)
            kernel_col = V[:, sl] @ vx[sl]
            # integral of the kernel against a level member reproduces it
            member_vals = V[:, sl.start]
            got = float(w @ (kernel_col * member_vals))
            assert got == pytest.approx(vx[sl.start], abs=1e-10)
            # orthogonality to constants
            assert float(w @ kernel_col) == pytest.approx(0.0, abs=1e-10)

    def test_christoffel(self):
        basis = build_basis(DomainSpec.interval(-0.5, -0.5), 10)
        assert christoffel_diag(basis, 0, [0.4]) == pytest.approx(1 / pi, rel=1e-12)
        for k in (1, 5, 9):
            assert christoffel_diag(basis, k, [1.0]) == pytest.approx(2 / pi, rel=1e-10)
        rng = np.random.default_rng(0)
        bb = build_basis(DomainSpec.ball(2, 0.25), 8)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            for k in range(9):
                c = christoffel_diag(bb, k, x)
                assert c >= 0
                assert c == pytest.approx(projection_kernel(bb, k, x, x), abs=1e-13)

    def test_range_error(self):
        basis = build_basis(DomainSpec.interval(-0.5, -0.5), 5)
        with pytest.raises(DomainError):
            projection_kernel(basis, 6, [0.1], [0.2])


class TestOperatorSymmetry:
    @pytest.mark.parametrize("spec", [DomainSpec.interval(0.7, -0.3),
                                      DomainSpec.ball(2, 0.25),
                                      DomainSpec.simplex(2, (0.5, 1.0, -0.2))],
                             ids=lambda s: s.label())
    def test_bilinear_symmetry_and_positivity(self, spec):
        rng = np.random.default_rng(21)
        quad = build_quadrature(spec, 26)
        for _ in range(5):
            f = random_coefficients(spec.n, 10, rng)
            h = random_coefficients(spec.n, 10, rng)
            gap, dirichlet = operator_symmetry_residual(spec, quad, f, h)
            assert gap <= 1e-8
            assert dirichlet >= -1e-10


class TestCapsAndModes:
    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_basis(DomainSpec.ball(2, 0.5), 41)
        with pytest.raises(CapacityError):
            build_basis(DomainSpec.interval(-0.5, -0.5), 300)

    def test_negative_degree_is_a_parameter_error(self):
        # a negative degree is no cap overflow: lowering it would not help
        with pytest.raises(ParameterError, match=r"^max_degree -1 is below 0$"):
            build_basis(DomainSpec.ball(2, 0.5), -1)

    def test_serialization(self):
        from polyheat.basis import basis_from_json_obj

        for spec, K in ((DomainSpec.interval(0.7, -0.3), 12), (DomainSpec.ball(2, 0.5), 8),
                        (DomainSpec.simplex(2, (0.5, 0.5, 0.5)), 8),
                        (DomainSpec.ball(3, 0.0), 5)):
            basis = build_basis(spec, K)
            obj = json.loads(json.dumps(basis.to_json_obj()))
            assert obj["schema_version"] == 6 and obj["max_degree"] == K
            # the nonzero entries of the coefficient matrix
            entries = obj["entries"]
            C = np.zeros_like(basis.coefficients)
            C[entries["member"], entries["monomial"]] = entries["value"]
            assert np.array_equal(C, basis.coefficients)
            assert len(entries["value"]) == np.count_nonzero(basis.coefficients)
            loaded = basis_from_json_obj(obj)
            assert loaded.spec == spec and loaded.max_degree == K
            assert np.array_equal(loaded.coefficients, basis.coefficients)
            # a tampered export is rejected, naming the member (k, j)
            k = K // 2
            j = level_dimension(spec.n, k) - 1
            row = basis.level_slice(k).start + j
            at = [i for i, m in enumerate(entries["member"]) if m == row]
            entries["value"][max(at, key=lambda i: abs(entries["value"][i]))] *= 1 + 1e-6
            with pytest.raises(PrecisionError, match=rf"\({k},{j}\)"):
                basis_from_json_obj(obj)

    def test_bad_exports_are_one_line_errors(self):
        from polyheat.basis import basis_from_json_obj

        good = build_basis(DomainSpec.ball(2, 0.5), 4).to_json_obj()
        entries = good["entries"]
        schema5 = {"schema_version": 5, "spec": good["spec"], "max_degree": 4,
                   "levels": [[{"dimension": 2, "terms": [[[0, 0], 0.56]]}]]}
        bad = [
            (schema5, "schema_version 5"),
            ({k: v for k, v in good.items() if k != "schema_version"}, "schema_version None"),
            ({k: v for k, v in good.items() if k != "entries"}, "'entries'"),
            (dict(good, entries={k: v for k, v in entries.items() if k != "value"}), "'value'"),
            (dict(good, entries=dict(entries, member=entries["member"][:-1])), "equal-length"),
            (dict(good, entries=dict(entries, monomial=[15] + entries["monomial"][1:])),
             r"\[0, 15\)"),
        ]
        for obj, named in bad:
            with pytest.raises(ParameterError, match=named) as err:
                basis_from_json_obj(obj)
            assert "\n" not in str(err.value)
