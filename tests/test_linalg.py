import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lyacert.detect import ObservedPair, observability_gramian
from lyacert.exceptions import DimensionError, NotStableError, NumericalError
from lyacert.linalg import (
    GrowthBound,
    NormInterval,
    cesaro_integral,
    check_exponent,
    dual_exponent,
    expm,
    gramian_doubling,
    gramian_integral,
    growth_fit,
    induced_norm,
    integral_exp,
    nuclear_norm,
    schur_form,
    spectral_abscissa,
    sym_basis,
    sym_to_vec,
    vec_to_sym,
    vector_norm,
)
from lyacert.semigroup import SemigroupProbe, lemma_AS_suite

from conftest import expm_norms_on_grid, random_matrix, simpson_matrix_quadrature

#: public entries that validate their time argument through linalg.check_time
TIME_ENTRIES = {
    "expm": lambda t: expm(-np.eye(2), t),
    "integral_exp": lambda t: integral_exp(-np.eye(2), t),
    "cesaro_integral": lambda t: cesaro_integral(-np.eye(2), t),
    "gramian_integral": lambda t: gramian_integral(-np.eye(2), np.eye(2), t),
    "gramian_doubling": lambda t: next(gramian_doubling(-np.eye(2), np.eye(2), t)),
    "observability_gramian": lambda t: observability_gramian(
        ObservedPair(A=-np.eye(2), C=np.eye(2)), t),
    "lemma_AS_suite": lambda t: lemma_AS_suite(SemigroupProbe(A=-np.eye(2)), t=t),
    "lemma_AS_suite_step": lambda h: lemma_AS_suite(
        SemigroupProbe(A=-np.eye(2)), t=1.0, h=h),
}


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0], ids=["inf", "nan", "-1"])
@pytest.mark.parametrize("entry", sorted(TIME_ENTRIES))
def test_time_must_be_finite_and_nonnegative(entry, t):
    with pytest.raises(ValueError, match="must be (finite|nonnegative|positive)"):
        TIME_ENTRIES[entry](t)


class TestExpm:
    def test_t_zero_is_identity(self, rng):
        A = random_matrix(rng, 5)
        assert np.array_equal(expm(A, 0.0), np.eye(5))

    def test_diagonal(self):
        E = expm(np.diag([-1.0, -2.0]), 1.0)
        np.testing.assert_allclose(E, np.diag([np.exp(-1), np.exp(-2)]), rtol=1e-14)

    def test_nilpotent_series_terminates(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 1.0, 7.5):
            np.testing.assert_allclose(
                expm(A, t), np.array([[1.0, t], [0.0, 1.0]]), atol=1e-15
            )

    def test_semigroup_law(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = random_matrix(rng, n)
            s, t = rng.uniform(0, 5, size=2)
            lhs = expm(A, s + t)
            rhs = expm(A, s) @ expm(A, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            expm(np.ones((2, 3)), 1.0)


class TestIntegralExp:
    def test_zero_generator(self):
        np.testing.assert_allclose(integral_exp(np.zeros((2, 2)), 3.0), 3.0 * np.eye(2))

    def test_scalar_axis(self):
        np.testing.assert_allclose(
            integral_exp(-np.eye(3), 1.0), (1 - np.exp(-1)) * np.eye(3), rtol=1e-13
        )

    def test_fundamental_identity_invertible(self, rng):
        A = random_matrix(rng, 4) + 0.5 * np.eye(4)
        for t in (0.2, 1.0, 4.0):
            S = integral_exp(A, t)
            lhs = A @ S
            rhs = expm(A, t) - np.eye(4)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_against_simpson_oracle(self, rng):
        for n in (2, 4, 6):
            A = random_matrix(rng, n)
            t = 1.5
            oracle = simpson_matrix_quadrature(lambda s: expm(A, s), 0.0, t, 2001)
            S = integral_exp(A, t)
            assert np.linalg.norm(S - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_first_order_derivative(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            A = random_matrix(rng, n)
            t, h = 1.0, 1e-4
            approx = (integral_exp(A, t + h) - integral_exp(A, t)) / h
            T = expm(A, t)
            bound = 2.0 * h * np.linalg.norm(A @ T, 2) + 1e-12
            assert np.linalg.norm(approx - T, 2) <= bound


class TestCesaroIntegral:
    def test_zero_generator(self):
        np.testing.assert_allclose(cesaro_integral(np.zeros((2, 2)), 2.0), 2.0 * np.eye(2))

    def test_scalar_axis(self):
        np.testing.assert_allclose(
            cesaro_integral(-np.eye(2), 1.0), np.exp(-1) * np.eye(2), rtol=1e-13
        )

    def test_against_simpson_of_integral_exp(self, rng):
        for n in (2, 4, 6):
            A = random_matrix(rng, n)
            t = 1.2
            oracle = simpson_matrix_quadrature(
                lambda tau: integral_exp(A, tau), 0.0, t, 801
            )
            C = cesaro_integral(A, t)
            scale = max(np.linalg.norm(oracle), 1.0)
            assert np.linalg.norm(C - oracle) <= 1e-8 * scale

    def test_generator_identity(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            A = random_matrix(rng, n)
            t = 1.7
            lhs = A @ cesaro_integral(A, t)
            rhs = integral_exp(A, t) - t * np.eye(n)
            scale = max(np.linalg.norm(rhs), 1.0)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale


class TestGramianIntegral:
    def test_zero_generator(self):
        W = gramian_integral(np.zeros((2, 2)), np.eye(2), 2.0)
        np.testing.assert_allclose(W, 2.0 * np.eye(2), rtol=1e-13)

    def test_against_simpson_oracle(self, rng):
        A = random_matrix(rng, 4)
        Q = np.eye(4) + 0.3 * random_matrix(rng, 4) @ random_matrix(rng, 4).T
        Q = 0.5 * (Q + Q.T)
        t = 2.0
        oracle = simpson_matrix_quadrature(
            lambda s: expm(A, s).T @ Q @ expm(A, s), 0.0, t, 2001
        )
        W = gramian_integral(A, Q, t)
        assert np.linalg.norm(W - oracle) <= 1e-8 * np.linalg.norm(oracle)


class TestGramianDoubling:
    def test_one_exponential_per_run(self, rng, monkeypatch):
        # e^{hA} is the lower-right block of the exponential that gives W(h)
        import scipy.linalg

        calls = []
        scipy_expm = scipy.linalg.expm

        def counted(M):
            calls.append(M.shape)
            return scipy_expm(M)

        A = random_matrix(rng, 4) - 2.0 * np.eye(4)
        Q = np.eye(4)
        first = gramian_integral(A, Q, 0.25)
        monkeypatch.setattr(scipy.linalg, "expm", counted)
        run = [W for _, (_, W) in zip(range(6), gramian_doubling(A, Q, 0.25))]
        assert calls == [(8, 8)]
        np.testing.assert_array_equal(run[0], first)


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_rotation(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_companion_roots_oracle(self):
        # characteristic polynomial lambda^2 + 3 lambda + 2
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        roots = np.roots([1.0, 3.0, 2.0])
        assert spectral_abscissa(A) == pytest.approx(float(roots.real.max()))
        assert spectral_abscissa(A) == pytest.approx(-1.0)


class TestSchurForm:
    def test_matches_scipy_schur_of_transpose(self, rng):
        import scipy.linalg

        for n in (1, 2, 5, 13):
            A = random_matrix(rng, n)
            form = schur_form(A)
            T, U = scipy.linalg.schur(A.T, output="real")
            assert np.array_equal(form.T, T) and np.array_equal(form.U, U)
            assert np.array_equal(form.A, A)
            np.testing.assert_allclose(np.sort_complex(form.w),
                                       np.sort_complex(np.linalg.eigvals(A)),
                                       atol=1e-10)
            assert form.abscissa == float(form.w.real.max())

    def test_rotation_eigenvalues(self):
        form = schur_form(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(np.sort_complex(form.w), [-1j, 1j], atol=1e-15)
        assert form.abscissa == pytest.approx(0.0, abs=1e-15)

    def test_solve_and_shift(self, rng):
        A = random_matrix(rng, 6)
        R = random_matrix(rng, 6)
        for eps in (0.0, 0.7):
            form = schur_form(A).shift(eps)
            A_eps = A + eps * np.eye(6)
            X = form.solve(R)
            assert np.linalg.norm(A_eps.T @ X + X @ A_eps - R) <= 1e-10 * (
                np.linalg.norm(R) + np.linalg.norm(A_eps) * np.linalg.norm(X))
            assert form.abscissa == pytest.approx(spectral_abscissa(A) + eps)

    def test_gees_failure_is_numerical_error(self, monkeypatch):
        import scipy.linalg

        get_lapack_funcs = scipy.linalg.get_lapack_funcs

        def failing(names, arrays):
            gees = get_lapack_funcs(names, arrays)
            if names != "gees":
                return gees

            def no_convergence(*args, **kwargs):
                *out, info = gees(*args, **kwargs)
                return (*out, info if kwargs.get("lwork") == -1 else 1)
            return no_convergence

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
        with pytest.raises(NumericalError, match="gees info 1"):
            schur_form(np.eye(2))


def envelope_holds(A, gb, horizon, steps):
    """||e^{tA}||_2 <= M e^{-eps t} (1 + 1e-9) on a uniform grid of [0, horizon]."""
    ts, norms = expm_norms_on_grid(A, horizon, steps)
    return bool(np.all(norms <= gb.M * np.exp(-gb.eps * ts) * (1 + 1e-9)))


class TestGrowthFit:
    def test_normal_matrix(self):
        A = np.diag([-1.0, -2.0])
        gb = growth_fit(schur_form(A))
        assert gb.eps == pytest.approx(0.95)
        assert gb.M == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k, sup", [(2, 7.38), (3, 109.0), (4, 1797.0)])
    def test_jordan_block_bound_holds(self, k, sup):
        # a grid fit misses these sups between or beyond its grid points
        A = -np.eye(k) + np.diag(np.ones(k - 1), 1)
        gb = growth_fit(schur_form(A))
        assert gb.eps == pytest.approx(0.95)
        assert gb.M >= sup
        assert envelope_holds(A, gb, 400.0, 40000)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        alpha=st.floats(-1.0, -0.05),
        scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_for_all_t(self, n, alpha, scale, seed):
        rng = np.random.default_rng(seed)
        B = scale * random_matrix(rng, n)
        A = B - (spectral_abscissa(B) - alpha) * np.eye(n)
        gb = growth_fit(schur_form(A))
        assert envelope_holds(A, gb, 30.0 / gb.eps, 3000)

    @pytest.mark.xfail(raises=NumericalError,
                       reason="ROADMAP item 2: lambda_min(P) of the shifted solve "
                              "is lost to rounding on strongly non-normal A")
    def test_non_normal_triangular_gets_a_bound(self):
        # lambda_max(P_I) reaches about 3e16 while the sampled sup of
        # ||e^{tA}|| e^{eps t} is about 5.5e4
        B = np.random.default_rng(2).standard_normal((30, 30)) / np.sqrt(30)
        T = np.triu(B)
        A = T - (spectral_abscissa(T) + 1e-6) * np.eye(30)
        gb = growth_fit(schur_form(A))
        assert envelope_holds(A, gb, 30.0 / gb.eps, 40000)

    def test_unstable_rejected(self):
        with pytest.raises(NotStableError):
            growth_fit(schur_form(np.zeros((2, 2))))

    def test_bound_holds_on_dense_grid(self, rng):
        from conftest import stable_matrix

        A = stable_matrix(rng, 5)
        gb = growth_fit(schur_form(A))
        for t in np.linspace(0, 10.0 / gb.eps, 50):
            assert np.linalg.norm(expm(A, t), 2) <= gb.M * np.exp(-gb.eps * t) * (
                1 + 1e-6
            )

    def test_growth_bound_invariant(self):
        with pytest.raises(ValueError):
            GrowthBound(M=0.5, eps=1.0)
        with pytest.raises(ValueError):
            GrowthBound(M=float("nan"), eps=1.0)
        with pytest.raises(ValueError):
            GrowthBound(M=2.0, eps=0.0)

    def test_near_marginal_generator(self):
        # sup_t t e^{-5e-11 t} = 7.4e9 at t = 2e10
        A = np.array([[-1e-9, 1.0], [0.0, -1e-9]])
        gb = growth_fit(schur_form(A))
        assert np.isfinite(gb.M) and gb.M >= 7.4e9


class TestInducedNorm:
    def test_identity_2_2(self):
        assert induced_norm(np.eye(3), 2, 2) == pytest.approx(1.0)

    def test_l1_column_sums(self):
        assert induced_norm(np.array([[1.0, 1.0], [0.0, 0.0]]), 1, 1) == pytest.approx(1.0)

    def test_diag_2_2(self):
        assert induced_norm(np.diag([3.0, 4.0]), 2, 2) == pytest.approx(4.0)

    def test_inf_row_sums(self):
        M = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert induced_norm(M, math.inf, math.inf) == pytest.approx(3.5)

    def test_matches_largest_singular_value(self, rng):
        for _ in range(10):
            M = rng.standard_normal((5, 4))
            sv = np.linalg.svd(M, compute_uv=False)[0]
            assert abs(induced_norm(M, 2, 2) - sv) <= 1e-12 * sv

    def test_interval_brackets_diagonal_p3(self):
        # for diagonal maps the p->p norm is the largest |diagonal| entry
        M = np.diag([3.0, -1.0, 2.0])
        result = induced_norm(M, 3.0, 3.0)
        assert isinstance(result, NormInterval)
        assert result.lower <= 3.0 + 1e-12
        assert result.upper >= 3.0 - 1e-12
        assert result.lower <= result.upper

    def test_interval_generic(self, rng):
        M = rng.standard_normal((4, 4))
        result = induced_norm(M, 3.0, 1.5)
        assert result.lower <= result.upper
        assert result.lower > 0


    def test_lower_bound_near_angle_scan_maximum(self):
        # 2x2 maps: the unit circle is scanned at 200001 angles, whose best
        # ratio is a lower bound as good as the power iteration's to 1e-3
        pairs = [(1.5, 1.5), (3.0, 3.0), (4.0, 4.0), (1.5, 3.0), (3.0, 1.5),
                 (math.inf, 1.0), (2.0, 1.0)]
        theta = np.linspace(0.0, np.pi, 200001)
        X = np.vstack([np.cos(theta), np.sin(theta)])
        rng = np.random.default_rng(0)
        for k in range(300):
            pf, pt = pairs[k % len(pairs)]
            M = rng.standard_normal((2, 2))
            ratios = np.linalg.norm(M @ X, ord=pt, axis=0) / np.linalg.norm(X, ord=pf, axis=0)
            scan = float(ratios.max())
            result = induced_norm(M, pf, pt)
            assert result.lower >= (1.0 - 1e-3) * scan
            assert result.upper >= (1.0 - 1e-12) * scan

    def test_inf_norm_is_the_vertex_maximum(self):
        # ||Mx|| is convex, so over the l_inf ball it peaks at a sign vector;
        # up to 11 columns the interval is that maximum, lower = upper
        def vertex_max(M, pt):
            X = np.array(list(itertools.product((1.0, -1.0), repeat=M.shape[1]))).T
            return float(np.linalg.norm(M @ X, ord=pt, axis=0).max())

        rng = np.random.default_rng(0)
        for k in range(400):
            M = rng.standard_normal(rng.integers(1, 7, size=2))
            pt = (1.0, 1.5, 2.0, 3.0)[k % 4]
            result = induced_norm(M, math.inf, pt)
            assert result.lower == result.upper
            assert result.lower == pytest.approx(vertex_max(M, pt), rel=1e-14)
        # above 11 columns the power iteration's enclosure holds it
        M = rng.standard_normal((3, 12))
        result = induced_norm(M, math.inf, 1.0)
        assert result.lower <= vertex_max(M, 1.0) * (1.0 + 1e-14) <= result.upper

    @pytest.mark.parametrize("d", [(1e200, -1.0), (1e-200, 1e-201)], ids=["1e200", "1e-200"])
    def test_interval_holds_at_extreme_scale(self, d):
        # ||diag(d)||_{3->3} = max |d|: no |x_i|^3 may overflow or underflow
        result = induced_norm(np.diag(d), 3.0, 3.0)
        norm = max(abs(v) for v in d)
        assert (1.0 - 1e-14) * norm <= result.lower <= norm <= result.upper


class TestVectorNorm:
    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_no_overflow_or_underflow(self, p):
        assert vector_norm([1e200, 0.0], p) == pytest.approx(1e200, rel=1e-15)
        assert vector_norm([1e-200, 0.0], p) == pytest.approx(1e-200, rel=1e-15)
        assert vector_norm([0.0, 0.0], p) == 0.0

    @pytest.mark.parametrize("p", [1100.0, 1e7, 1e308])
    def test_no_underflow_at_large_exponent(self, p):
        # every |x_i|^p of the binade-scaled vector underflows above p ~ 1074
        assert vector_norm([1.0, 0.5], p) == 1.0
        assert vector_norm([1e200, 0.0], p) == 1e200
        assert vector_norm([3.0, 3.0], p) == pytest.approx(3.0 * 2.0 ** (1.0 / p),
                                                           rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_power_of_two_scaling_is_exact(self, rng, p):
        # sums, squares, sqrt and max commute with power-of-two scaling
        for _ in range(50):
            x = rng.standard_normal(7) * 10.0 ** rng.uniform(-5, 5)
            assert vector_norm(x, p) == np.linalg.norm(x, ord=p)


class TestNuclearNorm:
    def test_rank_one(self):
        assert nuclear_norm(np.outer([3.0, 4.0], [1.0, 0.0])) == pytest.approx(5.0)

    def test_diagonal(self):
        assert nuclear_norm(np.diag([2.0, 3.0])) == pytest.approx(5.0)

    def test_identity(self):
        for n in (1, 3, 6):
            assert nuclear_norm(np.eye(n)) == pytest.approx(float(n))

    @settings(max_examples=60, deadline=None)
    @given(
        A=arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
        B=arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
        c=st.floats(-5, 5),
    )
    def test_is_a_norm(self, A, B, c):
        sum_norm = nuclear_norm(A + B)
        assert sum_norm <= nuclear_norm(A) + nuclear_norm(B) + 1e-10
        assert abs(nuclear_norm(c * A) - abs(c) * nuclear_norm(A)) <= 1e-10 * max(
            nuclear_norm(A), 1.0
        )


class TestValidation:
    def test_non_finite_entries_rejected(self):
        from lyacert.linalg import as_matrix

        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            expm(np.array([[np.inf]]), 1.0)

    def test_space_norm_validation(self):
        # 1/p + 1/q = 1 for the exponents of an l_p space and its dual
        assert dual_exponent(1.0) == math.inf
        assert dual_exponent(math.inf) == 1.0
        assert dual_exponent(1.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [0.5, math.nan], ids=["0.5", "nan"])
    def test_exponent_rule(self, p):
        # p >= 1 or no norm: each side of an induced norm is checked
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="p >= 1"):
            vector_norm([1.0, 1.0], p)
        with pytest.raises(ValueError, match="p_from"):
            induced_norm(M, p, 2.0)
        with pytest.raises(ValueError, match="p_to"):
            induced_norm(M, 2.0, p)
        with pytest.raises(ValueError, match="p >= 1"):
            check_exponent(p)
        assert check_exponent(math.inf) == math.inf

    def test_check_symmetric_rejects_asymmetric(self):
        from lyacert.linalg import check_symmetric

        # the defect is weighed against the matrix's own scale, at any scale
        for scale in (1.0, 1e-13):
            with pytest.raises(ValueError, match="not symmetric"):
                check_symmetric(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSymCoordinates:
    def test_basis_orthonormal(self):
        for n in (1, 2, 4):
            B = sym_basis(n)
            np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-14)

    def test_roundtrip(self, rng):
        for n in (1, 2, 3, 5, 40):
            P = rng.standard_normal((n, n))
            P = 0.5 * (P + P.T)
            np.testing.assert_allclose(vec_to_sym(sym_to_vec(P), n), P, atol=1e-14)

    def test_coordinates_match_basis(self, rng):
        # sym_basis and the index arithmetic of sym_to_vec / vec_to_sym are
        # separate code and must agree on the coordinate order
        for n in (1, 2, 5):
            B = sym_basis(n)
            for k, e in enumerate(np.eye(B.shape[1])):
                E = vec_to_sym(e, n)
                np.testing.assert_array_equal(B[:, k], E.ravel(order="F"))
            P = rng.standard_normal((n, n))
            P = 0.5 * (P + P.T)
            np.testing.assert_allclose(
                sym_to_vec(P), B.T @ P.ravel(order="F"), rtol=1e-15, atol=1e-15
            )

    def test_inner_product_preserved(self, rng):
        n = 4
        P = rng.standard_normal((n, n))
        P = 0.5 * (P + P.T)
        Q = rng.standard_normal((n, n))
        Q = 0.5 * (Q + Q.T)
        assert sym_to_vec(P) @ sym_to_vec(Q) == pytest.approx(
            float(np.trace(P @ Q)), rel=1e-12
        )
