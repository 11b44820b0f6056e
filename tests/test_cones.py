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
from lyacert.linalg import induced_norm, sym_basis, sym_dim, sym_to_vec, vec_to_sym

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

    def test_polyhedral_extreme_rays_are_not_units(self):
        cone = ConeSpec.polyhedral(np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert not is_order_unit(cone, [3.0, 1.0])
        assert not is_order_unit(cone, [1.0, 3.0])
        assert is_order_unit(cone, [4.0, 4.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_polyhedral_orthant_faces(self, n):
        cone = ConeSpec.polyhedral(np.eye(n))
        e = np.arange(1.0, n + 1.0)
        assert is_order_unit(cone, e)
        for i in range(n):
            face = e.copy()
            face[i] = 0.0
            assert not is_order_unit(cone, face)

    @pytest.mark.parametrize("seed", range(8))
    def test_polyhedral_random_cone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(n, 2 * n + 1))
        G = rng.uniform(0.1, 1.0, size=(n, k))
        cone = ConeSpec.polyhedral(G)
        assert is_order_unit(cone, G @ rng.uniform(0.5, 1.5, size=k))
        # on the section {sum(x) = 1} the generators are points; the one
        # maximising a generic functional there is a vertex, so an extreme ray
        points = G / G.sum(axis=0)
        j = int(np.argmax(rng.standard_normal(n) @ points))
        assert not is_order_unit(cone, G[:, j])


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

    def test_polyhedral_extreme_ray_rejected(self):
        cone = ConeSpec.polyhedral(np.array([[3.0, 1.0], [1.0, 3.0]]))
        with pytest.raises(InvalidOrderUnitError):
            order_unit_norm(cone, [3.0, 1.0], [0.0, 1.0])
        assert order_unit_norm(cone, [4.0, 4.0], [0.0, 1.0]) == pytest.approx(
            0.375, rel=1e-9
        )

    def test_polyhedral_bisection_matches_orthant(self):
        # the orthant is the polyhedral cone on the coordinate generators and
        # the redundant ones vector, which is not simplicial: it bisects
        poly = ConeSpec.polyhedral(np.column_stack([np.eye(3), np.ones(3)]))
        orth = ConeSpec.orthant(3)
        e = np.array([1.0, 2.0, 0.5])
        x = np.array([2.0, -1.0, 0.25])
        assert order_unit_norm(poly, e, x) == pytest.approx(
            order_unit_norm(orth, e, x), rel=1e-9
        )

    def test_polyhedral_above_1e18(self):
        # the doubling runs up to ||x||_1 / r, not to a fixed 1e18; the
        # bisection's result sits within the membership slack of 1e19
        cone = ConeSpec.polyhedral(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        val = order_unit_norm(cone, [1.0, 1.0], [1e19, 0.0])
        assert val == pytest.approx(1e19, rel=1e-9)

    def test_simplicial_is_exact(self):
        # square generators: the orthant formula in the generator basis,
        # with no membership slack
        cone = ConeSpec.polyhedral(np.eye(2))
        assert order_unit_norm(cone, [1.0, 1.0], [1.0, 0.0]) == 1.0
        assert order_unit_norm(cone, [1.0, 1.0], [1e19, 0.0]) == 1e19

    def test_simplicial_matches_bisection(self, rng):
        # the same cone spelled with one redundant interior generator bisects
        G = np.array([[3.0, 1.0], [1.0, 3.0]])
        simplicial = ConeSpec.polyhedral(G)
        redundant = ConeSpec.polyhedral(np.column_stack([G, G.sum(axis=1)]))
        for _ in range(20):
            e = G @ (rng.uniform(0.5, 2.0, 2))
            x = rng.standard_normal(2)
            assert order_unit_norm(simplicial, e, x) == pytest.approx(
                order_unit_norm(redundant, e, x), rel=1e-9
            )

    def test_simplicial_boundary_unit_refused(self, monkeypatch):
        # should is_order_unit's slack accept a boundary e (possible at
        # n >= 100), the generator coordinates of e refuse it
        monkeypatch.setattr("lyacert.cones.is_order_unit", lambda cone, e: True)
        cone = ConeSpec.polyhedral(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvalidOrderUnitError, match="generator coordinate"):
            order_unit_norm(cone, [1.0, 1.0], [0.5, 0.25])

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

    @staticmethod
    def lift(phi, n):
        """Matrix of the linear map phi on Sym(n) coordinates."""
        return np.column_stack(
            [sym_to_vec(phi(vec_to_sym(e, n))) for e in np.eye(sym_dim(n))])

    def reduction_map(self, n, c):
        """X -> tr(X) I - c X, positive iff c <= 1."""
        return self.lift(lambda X: np.trace(X) * np.eye(n) - c * X, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_psd_reduction_map_accepted(self, n):
        assert map_preserves_cone(ConeSpec.psd(n), self.reduction_map(n, 1.0)).preserves

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_psd_reduction_map_refused_on_a_ray(self, n):
        # tr(X) I - 1.01 X is PSD on every full-rank X with tr(X) >= 1.01
        # lambda_max(X); only a (nearly) rank-one X shows the violation
        result = map_preserves_cone(ConeSpec.psd(n), self.reduction_map(n, 1.01))
        assert not result.preserves
        assert np.linalg.matrix_rank(result.witness) == 1
        image = np.trace(result.witness) * np.eye(n) - 1.01 * result.witness
        assert np.linalg.eigvalsh(image)[0] < 0

    def test_psd_rays_match_a_loop_over_cone_contains(self, rng):
        # reference: each ray vv', v in {e_i, e_i + e_j, e_i - e_j}, mapped
        # through sym_to_vec / vec_to_sym and tested by cone_contains
        for k in range(40):
            n = 2 + k % 3
            M, c = 0.5 * rng.standard_normal((n, n)), rng.uniform(0.8, 1.6)
            L = self.lift(lambda X: M.T @ X @ M + np.trace(X) * np.eye(n) - c * X, n)
            E = np.eye(n)
            rays = [np.outer(v, v) for v in E] + [
                np.outer(E[i] + s * E[j], E[i] + s * E[j])
                for s in (1.0, -1.0) for i, j in zip(*np.triu_indices(n, 1))]
            failing = [X for X in rays
                       if not cone_contains(ConeSpec.psd(n), L @ sym_to_vec(X))]
            result = map_preserves_cone(ConeSpec.psd(n), L)
            assert result.preserves == (not failing)
            if failing:
                np.testing.assert_array_equal(result.witness, failing[0])

    def test_polyhedral_decided_on_generators(self):
        cone = ConeSpec.polyhedral(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        result = map_preserves_cone(cone, np.eye(2))
        assert result.preserves and result.witness is None
        # (1, 0) stays in the cone, (1, 1) goes to (1, -1)
        result = map_preserves_cone(cone, np.diag([1.0, -1.0]))
        assert not result.preserves
        np.testing.assert_array_equal(result.witness, [1.0, 1.0])

    def test_orthant_is_the_polyhedral_cone_of_unit_vectors(self, rng):
        orthant, unit = ConeSpec.orthant(3), ConeSpec.polyhedral(np.eye(3))
        for _ in range(20):
            M = rng.standard_normal((3, 3)) + 1.5
            a, b = map_preserves_cone(orthant, M), map_preserves_cone(unit, M)
            assert a.preserves == b.preserves
            if not a.preserves:
                np.testing.assert_array_equal(a.witness, b.witness)

    def test_polyhedral_generator_swap_with_negative_entry(self):
        # M = G P G^{-1} swaps the two generators of cone(G); M[1, 1] = -1
        G = np.array([[1.0, 1.0], [0.0, 1.0]])
        M = G @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.linalg.inv(G)
        assert M.min() < 0
        assert map_preserves_cone(ConeSpec.polyhedral(G), M).preserves

    def test_congruence_on_wrong_cone_rejected(self):
        with pytest.raises(UnsupportedConeOperation):
            map_preserves_cone(ConeSpec.orthant(2), CongruenceMap(M=np.eye(2)))

    def test_map_dimension_mismatch(self):
        from lyacert.exceptions import DimensionError

        with pytest.raises(DimensionError):
            map_preserves_cone(ConeSpec.psd(2), np.eye(2))  # ambient dim is 3
