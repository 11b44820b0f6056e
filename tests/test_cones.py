import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lyacert.cones import (
    ConeSpec,
    CongruenceMap,
    cone_contains,
    decompose_pm,
    dual_cone_contains,
    is_order_unit,
    map_preserves_cone,
    order_unit_norm,
)
from lyacert.exceptions import InvalidOrderUnitError, UnsupportedConeOperation
from lyacert.linalg import induced_norm, sym_basis, sym_to_vec

from conftest import random_psd, random_symmetric


class TestMembership:
    def test_orthant(self):
        cone = ConeSpec.orthant(2)
        assert cone_contains(cone, [1.0, 0.0])
        assert not cone_contains(cone, [1.0, -1.0])

    def test_psd(self):
        cone = ConeSpec.psd(2)
        assert not cone_contains(cone, np.diag([1.0, -1.0]))
        assert cone_contains(cone, np.array([[1.0, 1.0], [1.0, 1.0]]))
        # the slack has an absolute floor: 1e-10 * max(1, ||x||)
        assert cone_contains(cone, np.diag([1e-3, -5e-11]))

    def test_polyhedral(self):
        cone = ConeSpec.polyhedral(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert cone_contains(cone, [2.0, 1.0])
        assert not cone_contains(cone, [-1.0, 0.0])

    def test_polyhedral_line_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec.polyhedral(np.array([[1.0, -1.0], [0.0, 0.0]]))


class TestDuality:
    def test_orthant_self_dual(self):
        cone = ConeSpec.orthant(2)
        assert dual_cone_contains(cone, [0.0, 3.0])

    def test_psd_self_dual(self):
        cone = ConeSpec.psd(2)
        assert not dual_cone_contains(cone, np.diag([1.0, -2.0]))

    def test_polyhedral_pairing(self):
        # generators (1,0), (1,1); phi = (0,1) pairs to 0 and 1, both >= 0
        cone = ConeSpec.polyhedral(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert dual_cone_contains(cone, [0.0, 1.0])
        assert not dual_cone_contains(cone, [-1.0, 0.5])

    @settings(max_examples=50, deadline=None)
    @given(x=arrays(np.float64, (4,), elements=st.floats(-5, 5)))
    def test_self_duality_orthant(self, x):
        cone = ConeSpec.orthant(4)
        assert cone_contains(cone, x) == dual_cone_contains(cone, x)

    def test_self_duality_psd_random(self, rng):
        cone = ConeSpec.psd(3)
        for _ in range(20):
            X = random_symmetric(rng, 3)
            assert cone_contains(cone, X) == dual_cone_contains(cone, X)


class TestDecomposePm:
    def test_orthant(self):
        plus, minus = decompose_pm(ConeSpec.orthant(3), [1.0, -2.0, 0.0])
        np.testing.assert_allclose(plus, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(minus, [0.0, 2.0, 0.0])

    def test_psd_diagonal(self):
        plus, minus = decompose_pm(ConeSpec.psd(2), np.diag([2.0, -1.0]))
        np.testing.assert_allclose(plus, np.diag([2.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(minus, np.diag([0.0, 1.0]), atol=1e-14)

    def test_psd_offdiagonal_halves(self):
        # eigenpairs (1, (1,1)/sqrt2) and (-1, (1,-1)/sqrt2)
        phi = np.array([[0.0, 1.0], [1.0, 0.0]])
        plus, minus = decompose_pm(ConeSpec.psd(2), phi)
        np.testing.assert_allclose(plus, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-14)
        np.testing.assert_allclose(minus, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-14)

    def test_polyhedral_unsupported(self):
        cone = ConeSpec.polyhedral(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(UnsupportedConeOperation):
            decompose_pm(cone, [1.0, -1.0])

    def test_recompose_exact(self, rng):
        orthant = ConeSpec.orthant(5)
        psd = ConeSpec.psd(4)
        for _ in range(20):
            phi = rng.standard_normal(5)
            plus, minus = decompose_pm(orthant, phi)
            assert cone_contains(orthant, plus) and cone_contains(orthant, minus)
            assert np.linalg.norm(phi - (plus - minus)) <= 1e-12 * np.linalg.norm(phi)
            X = random_symmetric(rng, 4)
            P, N = decompose_pm(psd, X)
            assert cone_contains(psd, P) and cone_contains(psd, N)
            assert np.linalg.norm(X - (P - N)) <= 1e-12 * np.linalg.norm(X)


class TestOrderUnits:
    def test_orthant(self):
        cone = ConeSpec.orthant(2)
        assert is_order_unit(cone, [1.0, 1.0])
        assert not is_order_unit(cone, [1.0, 0.0])

    def test_psd_identity(self):
        assert is_order_unit(ConeSpec.psd(2), np.eye(2))

    def test_polyhedral_interior(self):
        cone = ConeSpec.polyhedral(np.eye(2))
        assert is_order_unit(cone, [1.0, 1.0])
        assert not is_order_unit(cone, [1.0, 0.0])

    def test_polyhedral_degenerate_not_full(self):
        cone = ConeSpec.polyhedral(np.array([[1.0], [1.0]]))
        assert not is_order_unit(cone, [1.0, 1.0])


class TestOrderUnitNorm:
    def test_psd_spectral(self):
        val = order_unit_norm(ConeSpec.psd(2), np.eye(2), np.diag([3.0, -1.0]))
        assert val == pytest.approx(3.0)

    def test_orthant_weighted(self):
        val = order_unit_norm(ConeSpec.orthant(2), [1.0, 2.0], [2.0, 2.0])
        assert val == pytest.approx(2.0)

    def test_unit_itself(self, rng):
        e = np.abs(rng.standard_normal(4)) + 0.5
        assert order_unit_norm(ConeSpec.orthant(4), e, e) == pytest.approx(1.0)
        E = random_psd(rng, 3) + 0.5 * np.eye(3)
        assert order_unit_norm(ConeSpec.psd(3), E, E) == pytest.approx(1.0)

    def test_invalid_unit_rejected(self):
        with pytest.raises(InvalidOrderUnitError):
            order_unit_norm(ConeSpec.orthant(2), [1.0, 0.0], [1.0, 1.0])

    def test_polyhedral_bisection_matches_orthant(self):
        # the orthant is the polyhedral cone on coordinate generators
        poly = ConeSpec.polyhedral(np.eye(3))
        orth = ConeSpec.orthant(3)
        e = np.array([1.0, 2.0, 0.5])
        x = np.array([2.0, -1.0, 0.25])
        assert order_unit_norm(poly, e, x) == pytest.approx(
            order_unit_norm(orth, e, x), rel=1e-9
        )

    def test_zero_iff_zero(self, rng):
        cone = ConeSpec.psd(3)
        assert order_unit_norm(cone, np.eye(3), np.zeros((3, 3))) == 0.0
        for _ in range(10):
            X = random_symmetric(rng, 3)
            if np.linalg.norm(X) > 1e-8:
                assert order_unit_norm(cone, np.eye(3), X) > 0

    def test_triangle_inequality(self, rng):
        cone = ConeSpec.psd(3)
        e = np.eye(3)
        for _ in range(20):
            X, Y = random_symmetric(rng, 3), random_symmetric(rng, 3)
            lhs = order_unit_norm(cone, e, X + Y)
            rhs = order_unit_norm(cone, e, X) + order_unit_norm(cone, e, Y)
            assert lhs <= rhs + 1e-10

    def test_matches_spectral_norm_on_sym(self, rng):
        # with e = I the order-unit norm is the induced 2-norm
        for n in (2, 4, 6):
            cone = ConeSpec.psd(n)
            for _ in range(10):
                X = random_symmetric(rng, n)
                val = order_unit_norm(cone, np.eye(n), X)
                assert abs(val - induced_norm(X, 2, 2)) <= 1e-10 * max(val, 1.0)


class TestMapPreservesCone:
    def test_orthant_nonnegative_entries(self):
        cone = ConeSpec.orthant(2)
        result = map_preserves_cone(cone, np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert result.preserves and result.witness is None

    def test_orthant_witness(self):
        cone = ConeSpec.orthant(2)
        result = map_preserves_cone(cone, np.array([[1.0, -1.0], [0.0, 1.0]]))
        assert not result.preserves
        np.testing.assert_allclose(result.witness, [0.0, 1.0])

    def test_congruence_by_form(self):
        cone = ConeSpec.psd(2)
        cmap = CongruenceMap(M=np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert map_preserves_cone(cone, cmap).preserves

    def test_congruence_lift_acts_correctly(self, rng):
        for n in (3, 30):
            M = rng.standard_normal((n, n))
            cmap = CongruenceMap(M=M)
            L = cmap.matrix()
            P = random_symmetric(rng, n)
            np.testing.assert_allclose(
                L @ sym_to_vec(P), sym_to_vec(M.T @ P @ M), atol=1e-12
            )
            # Kronecker oracle: vec(M'PM) = (M' (x) M') vec(P)
            B = sym_basis(n)
            np.testing.assert_allclose(L, B.T @ np.kron(M.T, M.T) @ B, atol=1e-12)

    def test_psd_randomized_finds_violation(self):
        # flips the sign of the E_11 coordinate: sends E_11 to -E_11, and
        # any sample with a nonzero (0, 0) entry out of the cone
        cone = ConeSpec.psd(2)
        L = np.diag([-1.0, 1.0, 1.0])
        result = map_preserves_cone(cone, L)
        assert not result.preserves
        assert result.witness is not None

    def test_psd_randomized_passes_congruence_matrix(self, rng):
        cone = ConeSpec.psd(3)
        L = CongruenceMap(M=rng.standard_normal((3, 3))).matrix()
        assert map_preserves_cone(cone, L).preserves

    def test_congruence_on_wrong_cone_rejected(self):
        with pytest.raises(UnsupportedConeOperation):
            map_preserves_cone(ConeSpec.orthant(2), CongruenceMap(M=np.eye(2)))

    def test_map_dimension_mismatch(self):
        from lyacert.exceptions import DimensionError

        with pytest.raises(DimensionError):
            map_preserves_cone(ConeSpec.psd(2), np.eye(2))  # ambient dim is 3
