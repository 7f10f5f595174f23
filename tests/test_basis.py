from math import comb, pi, sqrt

import numpy as np
import pytest

from polyheat import basis as basis_module
from polyheat.basis import (
    build_basis,
    christoffel_diag,
    eigen_table,
    eigenvalue,
    graded_monomials,
    level_dimension,
    projection_kernel,
    verify_eigenrelation,
)
from polyheat.domains import DomainSpec, total_mass
from polyheat.errors import CapacityError, DomainError
from polyheat.polynomials import MultiPoly, monomial_operator
from polyheat.quadrature import build_quadrature
from polyheat.validation import operator_symmetry_residual, random_poly


class TestEigenvalues:
    def test_closed_forms(self):
        assert eigenvalue(DomainSpec.interval(-0.5, -0.5), 5) == pytest.approx(25.0)
        assert eigenvalue(DomainSpec.ball(2, 0.5), 1) == pytest.approx(3.0)
        assert eigenvalue(DomainSpec.simplex(1, (0.5, 0.5)), 1) == pytest.approx(2.0)

    def test_table_monotone(self):
        for spec in (DomainSpec.interval(0.3, -0.4), DomainSpec.ball(2, -0.3),
                     DomainSpec.simplex(2, (-0.4, 0.0, 1.0))):
            tab = eigen_table(spec, 30)
            assert tab.lambdas[0] == 0.0
            assert np.all(np.diff(tab.lambdas) > 0)

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
            r = basis.spec.apply_operator(p) + lam * p
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
            ref = spec.apply_operator(MultiPoly.monomial(e))
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


class TestIntervalBasis:
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
            f = random_poly(spec.n, 10, rng)
            h = random_poly(spec.n, 10, rng)
            gap, dirichlet = operator_symmetry_residual(spec, quad, f, h)
            assert gap <= 1e-8
            assert dirichlet >= -1e-10


class TestCapsAndModes:
    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_basis(DomainSpec.ball(2, 0.5), 41)
        with pytest.raises(CapacityError):
            build_basis(DomainSpec.interval(-0.5, -0.5), 300)

    def test_longdouble_refused_when_it_is_float64(self, monkeypatch):
        monkeypatch.setattr(basis_module, "LONGDOUBLE_EXTENDED", False)
        with pytest.raises(CapacityError, match="float64") as info:
            build_basis(DomainSpec.ball(2, 0.5), 8, precision_mode="longdouble")
        assert "\n" not in str(info.value)
        assert build_basis(DomainSpec.ball(2, 0.5), 8).gram_residual() <= 1e-8

    def test_longdouble_mode(self):
        basis = build_basis(DomainSpec.ball(2, 0.5), 8, precision_mode="longdouble")
        assert basis.gram_residual() <= 1e-8
        assert verify_eigenrelation(basis).max() <= 1e-9
        # extended precision raises the caps
        build_basis(DomainSpec.interval(-0.5, -0.5), 250, precision_mode="longdouble")

    def test_serialization(self):
        from polyheat.basis import basis_from_json_obj

        basis = build_basis(DomainSpec.simplex(1, (0.5, 1.5)), 5)
        obj = basis.to_json_obj()
        assert obj["max_degree"] == 5
        assert len(obj["levels"]) == 6
        assert obj["spec"]["kind"] == "simplex"
        loaded = basis_from_json_obj(obj)
        assert loaded.max_degree == 5
        assert loaded.spec == basis.spec
        # tampered export is rejected
        obj["levels"][2][0]["terms"][0][1] *= 1.5
        import pytest as _pytest
        from polyheat.errors import PrecisionError

        with _pytest.raises(PrecisionError):
            basis_from_json_obj(obj)
