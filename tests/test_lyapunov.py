import math

import numpy as np
import pytest

from lyacert.cones import ConeSpec, decompose_pm
from lyacert.exceptions import (
    DimensionError,
    DivergenceError,
    InternalInconsistencyError,
    NotPsdError,
    ResonantSpectrumError,
)
from lyacert.linalg import (
    NormInterval,
    expm,
    induced_norm,
    schur_form,
    spectral_abscissa,
    sym_basis,
    sym_to_vec,
)
from lyacert.lyapunov import (
    LyapunovOperator,
    RANK_TOL,
    grothendieck_decompose,
    implemented_apply,
    lyap_apply,
    lyap_solve_direct,
    lyap_solve_integral,
    monomial,
    pairing,
    projective_norm,
    rkhs_factor,
    symmetric_project,
    tensor_semigroup_apply,
)

from conftest import random_matrix, random_psd, random_symmetric, stable_matrix


class TestLyapApply:
    def test_scaled_identity(self):
        np.testing.assert_allclose(lyap_apply(-0.5 * np.eye(2), np.eye(2)), -np.eye(2))

    def test_shift_block(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            lyap_apply(A, np.eye(2)), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_matches_kronecker_lift(self, rng):
        # vec identity oracle: vec(A'P + PA) = (I (x) A' + A' (x) I) vec(P)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = random_matrix(rng, n)
            P = random_symmetric(rng, n)
            op = LyapunovOperator(A)
            direct = lyap_apply(A, P)
            lifted = op.matrix @ sym_to_vec(P)
            assert np.linalg.norm(lifted - sym_to_vec(direct)) <= 1e-12 * max(
                np.linalg.norm(direct), 1.0
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lyap_apply(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLyapunovOperator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 30])
    def test_matches_kronecker_oracle(self, rng, n):
        # B'(I (x) A' + A' (x) I)B rounds through the 1/sqrt(2) basis
        # factors; the index-built matrix agrees within 4 ulps of its
        # largest entry
        A = rng.standard_normal((n, n))
        B = sym_basis(n)
        eye = np.eye(n)
        oracle = B.T @ (np.kron(eye, A.T) + np.kron(A.T, eye)) @ B
        L = LyapunovOperator(A).matrix
        assert L.shape == oracle.shape
        bound = 4.0 * np.finfo(float).eps * np.abs(oracle).max()
        assert np.abs(L - oracle).max() <= bound

    @pytest.mark.parametrize("alpha", [-1.0, -0.1, -1e-3, 1e-3])
    def test_jordan_lift_abscissa_exact(self, alpha):
        # the lift of a 2x2 Jordan block is a 3x3 Jordan block at 2 alpha;
        # every diagonal entry is formed as 2 a_ii or a_ii + a_jj, exactly
        L = LyapunovOperator(np.array([[alpha, 1.0], [0.0, alpha]])).matrix
        np.testing.assert_array_equal(np.diag(L), [2.0 * alpha] * 3)
        assert spectral_abscissa(L) == 2.0 * alpha

    def test_build_memory_is_linear_in_result(self, rng):
        import tracemalloc

        A = rng.standard_normal((40, 40))
        tracemalloc.start()
        try:
            L = LyapunovOperator(A).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * L.nbytes


class TestImplementedSemigroup:
    def test_time_zero(self, rng):
        A, V = random_matrix(rng, 3), random_matrix(rng, 3)
        P = random_symmetric(rng, 3)
        np.testing.assert_allclose(implemented_apply(A, V, 0.0, P), P)

    def test_congruence_preserves_psd(self, rng):
        A = random_matrix(rng, 4)
        P = random_psd(rng, 4)
        out = implemented_apply(A, A, 1.3, P)
        assert np.linalg.eigvalsh(0.5 * (out + out.T))[0] >= -1e-10 * np.linalg.norm(out, 2)

    def test_scalar_rate(self):
        out = implemented_apply(-np.eye(2), -np.eye(2), 1.0, np.eye(2))
        np.testing.assert_allclose(out, np.exp(-2) * np.eye(2), rtol=1e-13)

    def test_lyapunov_semigroup_law(self, rng):
        A = random_matrix(rng, 3)
        P = random_symmetric(rng, 3)
        s, t = 0.7, 1.9
        once = implemented_apply(A, A, s + t, P)
        twice = implemented_apply(A, A, s, implemented_apply(A, A, t, P))
        assert np.linalg.norm(once - twice) <= 1e-9 * max(np.linalg.norm(once), 1.0)


class TestTensorSemigroup:
    def test_monomials_map_to_monomials(self, rng):
        A, V = random_matrix(rng, 3), random_matrix(rng, 3)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        t = 0.8
        out = tensor_semigroup_apply(A, V, t, monomial(x, y))
        expected = np.outer(expm(A, t) @ x, expm(V, t) @ y)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_time_zero(self, rng):
        rho = monomial(rng.standard_normal(3), rng.standard_normal(3))
        out = tensor_semigroup_apply(random_matrix(rng, 3), random_matrix(rng, 3),
                                     0.0, rho)
        np.testing.assert_allclose(out, rho)

    def test_adjoint_to_implemented(self, rng):
        # trace identity oracle: <<T(t)P, rho>> = <<P, T_*(t) rho>>
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A, V = random_matrix(rng, n), random_matrix(rng, n)
            P = rng.standard_normal((n, n))
            rho = rng.standard_normal((n, n))
            t = rng.uniform(0, 3)
            lhs = pairing(implemented_apply(A, V, t, P), rho)
            rhs = pairing(P, tensor_semigroup_apply(A, V, t, rho))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_symmetric_image_decomposes(self, rng):
        # T_*(t) = e^{tA} R e^{tA'} keeps a symmetric R symmetric within
        # rounding, so the Grothendieck decomposition accepts its image
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = random_matrix(rng, n)
            R = random_symmetric(rng, n)
            t = rng.uniform(0, 3)
            out = tensor_semigroup_apply(A, A, t, R)
            terms = grothendieck_decompose(out)
            rebuilt = sum(a * np.outer(u, u) for a, u in terms)
            assert np.linalg.norm(rebuilt - out) <= 1e-12 * max(
                np.linalg.norm(out), 1.0
            )


class TestPairing:
    def test_identity_gives_inner_product(self, rng):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert pairing(np.eye(4), monomial(x, y)) == pytest.approx(float(x @ y))

    def test_diagonal_entry(self):
        rho = monomial([0.0, 1.0], [0.0, 1.0])
        assert pairing(np.diag([1.0, 2.0]), rho) == pytest.approx(2.0)

    def test_bilinear(self, rng):
        P, Q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        rho = rng.standard_normal((3, 3))
        sig = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        lhs = pairing(a * P + b * Q, rho)
        assert abs(lhs - (a * pairing(P, rho) + b * pairing(Q, rho))) <= 1e-12 * max(
            abs(lhs), 1.0
        )
        combo = a * rho + b * sig
        lhs2 = pairing(P, combo)
        assert abs(lhs2 - (a * pairing(P, rho) + b * pairing(P, sig))) <= 1e-12 * max(
            abs(lhs2), 1.0
        )


class TestProjectiveNorm:
    def test_rank_one_euclidean(self, rng):
        for _ in range(20):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            val = projective_norm(monomial(x, y))
            assert abs(val - np.linalg.norm(x) * np.linalg.norm(y)) <= 1e-12 * max(
                val, 1.0
            )

    def test_l1_entrywise_sum(self):
        rho = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert projective_norm(rho, 1.0) == pytest.approx(6.0)

    def test_identity_nuclear(self):
        rho = np.eye(3)
        assert projective_norm(rho) == pytest.approx(3.0)

    def test_general_p_interval_brackets_rank_one(self, rng):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        rho = monomial(x, y)
        exact = np.linalg.norm(x, 3) * np.linalg.norm(y, 3)
        result = projective_norm(rho, 3.0)
        assert isinstance(result, NormInterval)
        assert result.lower <= exact * (1 + 1e-10)
        assert result.upper >= exact * (1 - 1e-10)
        assert result.ratio <= 1.0 + 1e-9  # rank-one bounds are tight

    def test_general_p_interval_ordered(self, rng):
        rho = rng.standard_normal((4, 4))
        result = projective_norm(rho, 1.5)
        assert 0 < result.lower <= result.upper

    def test_general_p_interval_scales_to_1e_minus_200(self):
        # pi(c rho) = c pi(rho): at c = 1e-200 no |x_i|^3 may underflow
        R = np.array([[1.0, 2.0], [3.0, -1.0]])
        unit = projective_norm(R, 3.0)
        tiny = projective_norm(1e-200 * R, 3.0)
        assert tiny.lower > 0
        for a, b in zip(tiny, unit):
            assert a == pytest.approx(1e-200 * b, rel=1e-14)

    def test_duality_dominance(self, rng):
        # <<P, rho>> <= ||P||_{2->2} pi(rho) in the Euclidean pairing
        for _ in range(20):
            P = rng.standard_normal((3, 3))
            rho = rng.standard_normal((3, 3))
            slack = induced_norm(P, 2, 2) * projective_norm(rho) - pairing(P, rho)
            assert slack >= -1e-10


class TestSymmetricCalculus:
    def test_project_idempotent(self, rng):
        rho = rng.standard_normal((3, 3))
        once = symmetric_project(rho)
        twice = symmetric_project(once)
        np.testing.assert_allclose(once, twice, atol=1e-15)
        np.testing.assert_array_equal(once, once.T)

    def test_project_monomial(self):
        rho = monomial([1.0, 0.0], [0.0, 1.0])
        out = symmetric_project(rho)
        np.testing.assert_allclose(out, [[0.0, 0.5], [0.5, 0.0]])

    def test_decompose_diagonal(self):
        rho = np.diag([2.0, -1.0])
        terms = grothendieck_decompose(rho)
        assert terms[0][0] == pytest.approx(2.0)
        np.testing.assert_allclose(terms[0][1], [1.0, 0.0], atol=1e-14)
        assert terms[1][0] == pytest.approx(-1.0)
        np.testing.assert_allclose(terms[1][1], [0.0, 1.0], atol=1e-14)

    def test_psd_has_no_negative_part(self, rng):
        rho = random_psd(rng, 3)
        _, minus = decompose_pm(ConeSpec.psd(3), rho)
        assert np.linalg.norm(minus) <= 1e-12 * np.linalg.norm(rho)

    def test_reconstruction(self, rng):
        for _ in range(10):
            rho = random_symmetric(rng, 4)
            plus, minus = decompose_pm(ConeSpec.psd(4), rho)
            err = np.linalg.norm(rho - (plus - minus))
            assert err <= 1e-12 * max(np.linalg.norm(rho), 1.0)
            assert np.linalg.eigvalsh(plus)[0] >= -1e-12
            assert np.linalg.eigvalsh(minus)[0] >= -1e-12

    def test_asymmetric_rejected(self, rng):
        rho = rng.standard_normal((3, 3))
        for split in (grothendieck_decompose,
                      lambda R: decompose_pm(ConeSpec.psd(3), R)):
            with pytest.raises(ValueError):
                split(rho)

    def test_tiny_asymmetric_grid_rejected(self):
        # the symmetry test is relative to the grid's own scale: a 1e-13
        # grid is refused, not silently symmetrised
        with pytest.raises(ValueError, match="not symmetric"):
            grothendieck_decompose(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert [a for a, _ in grothendieck_decompose(np.zeros((2, 2)))] == [0.0, 0.0]
        assert [a for a, _ in grothendieck_decompose(1e-13 * np.eye(2))] == [1e-13, 1e-13]

    def test_symmetric_grid_accepted(self):
        # the grid decides: an exactly symmetric grid needs no flag
        terms = grothendieck_decompose(np.eye(3))
        assert [a for a, _ in terms] == [1.0, 1.0, 1.0]
        plus, minus = decompose_pm(ConeSpec.psd(3), np.eye(3))
        np.testing.assert_array_equal(plus, np.eye(3))
        np.testing.assert_array_equal(minus, np.zeros((3, 3)))

    def test_decompose_reconstructs(self, rng):
        # R = sum_i a_i u_i u_i' with orthonormal u_i, a_i descending
        for _ in range(10):
            n = int(rng.integers(2, 7))
            R = random_symmetric(rng, n)
            terms = grothendieck_decompose(R)
            lam = [a for a, _ in terms]
            U = np.column_stack([u for _, u in terms])
            assert lam == sorted(lam, reverse=True)
            np.testing.assert_allclose(U.T @ U, np.eye(n), atol=1e-12)
            rebuilt = sum(a * np.outer(u, u) for a, u in terms)
            assert np.linalg.norm(rebuilt - R) <= 1e-12 * max(np.linalg.norm(R), 1.0)


class TestRkhsFactor:
    def test_identity(self):
        C = rkhs_factor(np.eye(3))
        assert C.shape == (3, 3)
        np.testing.assert_allclose(C.T @ C, np.eye(3), atol=1e-12)

    def test_rank_deficient(self):
        C = rkhs_factor(np.diag([4.0, 0.0]))
        assert C.shape == (1, 2)
        np.testing.assert_allclose(np.abs(C), [[2.0, 0.0]], atol=1e-12)

    def test_rank_one(self, rng):
        x = rng.standard_normal(4)
        C = rkhs_factor(np.outer(x, x))
        assert C.shape == (1, 4)
        np.testing.assert_allclose(C.T @ C, np.outer(x, x), atol=1e-10)

    def test_zero_has_no_rows(self):
        assert rkhs_factor(np.zeros((3, 3))).shape == (0, 3)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            rkhs_factor(np.diag([1.0, -1.0]))

    def test_truncation_bound(self, rng):
        # eigenvalues 1e-6 and 1e-14 below lambda_max: RANK_TOL drops only the
        # second, at a cost within n * RANK_TOL * lambda_max
        U = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        Q = U @ np.diag([1e-14, 1e-6, 0.3, 0.7, 1.0]) @ U.T
        Q = 0.5 * (Q + Q.T)
        C = rkhs_factor(Q)
        assert C.shape == (4, 5)
        assert np.linalg.norm(C.T @ C - Q) <= 5 * RANK_TOL  # lambda_max = 1


class TestDirectSolver:
    def test_scaled_identity(self):
        np.testing.assert_allclose(
            lyap_solve_direct(-0.5 * np.eye(2), np.eye(2)), np.eye(2), atol=1e-12
        )

    def test_frozen_two_by_two(self):
        # symbolic elimination of the 3-variable system gives
        # P = [[1.25, 0.25], [0.25, 0.25]]
        P = lyap_solve_direct(np.array([[0.0, 1.0], [-2.0, -3.0]]), np.eye(2))
        np.testing.assert_allclose(
            P, np.array([[1.25, 0.25], [0.25, 0.25]]), atol=1e-12
        )

    def test_unstable_scalar_zero_rhs(self):
        np.testing.assert_allclose(
            lyap_solve_direct(np.array([[1.0]]), np.array([[0.0]])), [[0.0]]
        )

    def test_resonant_rejected_with_pair(self):
        with pytest.raises(ResonantSpectrumError) as excinfo:
            lyap_solve_direct(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        lam_i, lam_j = excinfo.value.pair
        assert abs(lam_i + lam_j) < 1e-10

    def test_residual_on_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = stable_matrix(rng, n)
            Q = random_psd(rng, n)
            P = lyap_solve_direct(A, Q)
            resid = np.linalg.norm(A.T @ P + P @ A + Q)
            assert resid <= 1e-8 * np.linalg.norm(Q)

    def test_psd_spanning_set_maps_to_psd(self, rng):
        # the paper's positivity of -L_A^{-1} for stable A, checked on the
        # PSD spanning set {e_i e_i', (e_i + e_j)(e_i + e_j)'} of Sym(n)
        for n in (1, 2, 3, 5, 8):
            A = stable_matrix(rng, n)
            eye = np.eye(n)
            spanning = [np.outer(eye[i], eye[i]) for i in range(n)]
            spanning += [
                np.outer(eye[i] + eye[j], eye[i] + eye[j])
                for i in range(n)
                for j in range(i + 1, n)
            ]
            for Q in spanning:
                P = lyap_solve_direct(A, Q)
                lam = np.linalg.eigvalsh(P)
                assert lam[0] >= -1e-9 * lam[-1]
                assert lam[-1] > 0.0

    def test_backward_error_gate_rejects_perturbed_solution(self, perturbed_trsyl):
        with pytest.raises(InternalInconsistencyError, match="residual too large"):
            lyap_solve_direct(np.array([[-1.0, 1.0], [0.0, -2.0]]), np.eye(2))

    def test_one_schur_form_matches_two_scipy_solves(self, rng):
        # the solve and its refinement step share one Schur form; each step
        # must stay bit-identical to a fresh solve_continuous_lyapunov call
        import scipy.linalg

        for n in range(2, 13):
            A = random_matrix(rng, n)
            Q = random_psd(rng, n)
            P = np.zeros_like(Q)
            for _ in range(2):
                D = scipy.linalg.solve_continuous_lyapunov(
                    A.T, -(lyap_apply(A, P) + Q))
                P = P + 0.5 * (D + D.T)
            assert np.array_equal(lyap_solve_direct(A, Q), P)

    def test_schur_form_argument_is_bit_identical(self, rng):
        for n in range(1, 13):
            A = random_matrix(rng, n)
            Q = random_psd(rng, n)
            assert np.array_equal(lyap_solve_direct(schur_form(A), Q),
                                  lyap_solve_direct(A, Q))

    def test_resonant_reason_follows_sorted_eigenvalues(self, rng):
        # +-i in a rotated basis (the order gees reports them in varies with
        # the basis), next to a decaying mode at -1
        S, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = S @ np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]) @ S.T
        with pytest.raises(ResonantSpectrumError) as excinfo:
            lyap_solve_direct(A, np.eye(3))
        lam_i, lam_j = excinfo.value.pair
        # sort_complex order is -1, -i, +i: the first resonant pair is (-i, +i)
        assert "lambda_1 + lambda_2" in str(excinfo.value)
        assert lam_i.imag < 0 < lam_j.imag
        assert abs(lam_i + 1j) < 1e-12 and abs(lam_j - 1j) < 1e-12


class TestIntegralSolver:
    def test_scaled_identity(self):
        np.testing.assert_allclose(
            lyap_solve_integral(-0.5 * np.eye(2), np.eye(2)), np.eye(2), atol=1e-9
        )

    def test_matches_direct_solver(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = stable_matrix(rng, n)
            Q = random_psd(rng, n)
            P_direct = lyap_solve_direct(A, Q)
            P_int = lyap_solve_integral(A, Q)
            gap = np.linalg.norm(P_int - P_direct) / max(np.linalg.norm(P_direct), 1.0)
            assert gap <= 1e-6

    def test_unstable_diverges(self):
        with pytest.raises(DivergenceError):
            lyap_solve_integral(np.array([[1.0]]), np.array([[1.0]]))

    def test_overflow_of_the_semigroup_is_named(self):
        # Q does not see the unstable mode, so W(t) stays finite while
        # e^{tA} overflows at t = 1024 (step 1/2, 11 doublings); the integral
        # itself is finite here, diag(0, 5000)
        with pytest.raises(DivergenceError) as exc:
            lyap_solve_integral(np.diag([1.0, -1e-4]), np.diag([0.0, 1.0]))
        assert str(exc.value) == (
            "integral did not converge: e^{tA} overflows at t = 1.024e+03 "
            "after 11 doublings"
        )

    @pytest.mark.xfail(strict=True, raises=DivergenceError, reason=(
        "ROADMAP item 12: gramian_doubling stops when e^{tA} overflows, "
        "although Q does not see the unstable mode and the integral is finite"))
    def test_integral_blind_to_the_unstable_mode(self):
        P = lyap_solve_integral(np.diag([1.0, -1e-4]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(P, np.diag([0.0, 5000.0]), rtol=1e-9, atol=0.0)

    def test_rotation_diverges(self):
        with pytest.raises(DivergenceError):
            lyap_solve_integral(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_transient_growth_converges(self):
        # non-normal stable matrix: increments grow for a while, then decay;
        # must not be misreported as divergent
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        P = lyap_solve_integral(A, np.eye(2))
        P_direct = lyap_solve_direct(A, np.eye(2))
        assert np.linalg.norm(P - P_direct) <= 1e-6 * np.linalg.norm(P_direct)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            lyap_solve_integral(-np.eye(2), np.diag([1.0, -1.0]))

    def test_partial_sums_monotone(self, rng):
        # monotonicity is asserted inside the solver; exercise it on a
        # handful of instances and check the final solution dominates the
        # one-step truncation
        from lyacert.linalg import gramian_integral

        A = stable_matrix(rng, 4)
        Q = random_psd(rng, 4)
        P = lyap_solve_integral(A, Q)
        W1 = gramian_integral(A, Q, 0.25)
        assert np.linalg.eigvalsh(P - W1)[0] >= -1e-10 * np.linalg.norm(P, 2)


class TestTensorValidation:
    def test_exponent_below_one_rejected(self):
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                projective_norm(np.eye(2), p)

    @pytest.mark.parametrize("op", [
        lambda R: pairing(np.eye(2), R),
        symmetric_project,
        lambda R: tensor_semigroup_apply(-np.eye(2), -np.eye(2), 1.0, R),
        projective_norm,
    ], ids=["pairing", "symmetric_project", "tensor_semigroup_apply",
            "projective_norm"])
    def test_grid_validated(self, op):
        with pytest.raises(DimensionError, match="must be square"):
            op(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            op(np.array([[1.0, math.nan], [0.0, 1.0]]))


class TestPositivityInvariants:
    def test_lyapunov_semigroup_positive(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = random_matrix(rng, n)
            P = random_psd(rng, n)
            t = rng.uniform(0, 5)
            out = implemented_apply(A, A, t, P)
            out = 0.5 * (out + out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * max(
                np.linalg.norm(P, 2), np.linalg.norm(out, 2)
            )

    def test_tensor_semigroup_law(self, rng):
        A = random_matrix(rng, 3)
        rho = rng.standard_normal((3, 3))
        s, t = 1.1, 0.6
        once = tensor_semigroup_apply(A, A, s + t, rho)
        twice = tensor_semigroup_apply(A, A, s, tensor_semigroup_apply(A, A, t, rho))
        assert np.linalg.norm(once - twice) <= 1e-9 * max(
            np.linalg.norm(once), 1.0
        )
