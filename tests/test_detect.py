import math
import warnings

import numpy as np
import pytest

from lyacert.detect import (
    DetectabilityReport,
    FinalObservability,
    ObservedPair,
    detectability_report,
    duhamel_residual,
    final_observability,
    final_observability_constant,
    hautus_detectable,
    l2_detectable,
    observability_gramian,
    observer_implies_detector_audit,
    pi_detector_check,
    stabilizing_output_injection,
    unobservable_subspace,
)
from lyacert.exceptions import (
    DimensionError,
    InternalInconsistencyError,
    NoInjectionExistsError,
    NotObserverError,
    NotStableError,
    NumericalError,
)
from lyacert.linalg import expm, spectral_abscissa

from conftest import (
    benchmark_module,
    classify_integral_values,
    gramian_value_sequence,
    random_observed_pair,
    random_psd,
    simpson_matrix_quadrature,
    stable_matrix,
    undetectable_pair,
    unstable_matrix,
)


class TestHautus:
    def test_observed_unstable_mode(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[1.0, 0.0]]))
        assert hautus_detectable(pair)

    def test_hidden_unstable_mode(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[0.0, 1.0]]))
        assert not hautus_detectable(pair)

    def test_invertible_output(self, rng):
        A = unstable_matrix(rng, 3)
        pair = ObservedPair(A=A, C=np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
        assert hautus_detectable(pair)

    @pytest.mark.parametrize("stable", [True, False])
    def test_no_svd_on_a_stable_generator(self, rng, monkeypatch, stable):
        # ||A||_2 scales the rank test, which only non-decaying modes need
        svds = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counted_svd(a, *args, **kwargs):
            svds.append("svd")
            return svd(a, *args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                svds.append("norm")
            return norm(x, ord, *args, **kwargs)

        A = stable_matrix(rng, 4) if stable else unstable_matrix(rng, 4)
        pair = ObservedPair(A=A, C=rng.standard_normal((2, 4)))
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        assert hautus_detectable(pair)
        if stable:
            assert svds == []
        else:
            assert svds[:2] == ["norm", "svd"]


class TestUnobservableSubspace:
    def test_invertible_output_observable(self):
        pair = ObservedPair(A=np.diag([1.0, -1.0]), C=np.eye(2))
        assert unobservable_subspace(pair).shape == (2, 0)

    def test_hidden_axis(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[0.0, 1.0]]))
        basis = unobservable_subspace(pair)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_random_observable_pairs(self, rng):
        # rank oracle on the stacked observability matrix
        for _ in range(10):
            pair = random_observed_pair(rng, 5, 2)
            blocks = [pair.C]
            for _ in range(4):
                blocks.append(blocks[-1] @ pair.A)
            O = np.vstack(blocks)
            if np.linalg.matrix_rank(O) == 5:
                assert unobservable_subspace(pair).shape == (5, 0)

    def test_zero_output(self):
        pair = ObservedPair(A=np.diag([-1.0, -2.0]), C=np.zeros((1, 2)))
        assert unobservable_subspace(pair).shape == (2, 2)


class TestL2Detectable:
    def test_observed_unstable_mode(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[1.0, 0.0]]))
        assert l2_detectable(pair)
        # quadrature spot-check: x = e1 makes the premise fail
        x = np.array([1.0, 0.0])
        assert classify_integral_values(
            gramian_value_sequence(pair.A, pair.Q, [x])[0]) is False

    def test_hidden_unstable_mode_with_quadrature_witness(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[0.0, 1.0]]))
        assert not l2_detectable(pair)
        x = np.array([1.0, 0.0])
        # the premise holds, the conclusion fails
        assert classify_integral_values(
            gramian_value_sequence(pair.A, pair.Q, [x])[0]) is True
        assert classify_integral_values(
            gramian_value_sequence(pair.A, np.eye(2), [x])[0]) is False

    def test_zero_output_stable(self):
        pair = ObservedPair(A=-np.eye(2), C=np.zeros((1, 2)))
        assert l2_detectable(pair)

    def test_quadrature_agrees_on_random_instances(self, rng):
        for _ in range(10):
            stable = rng.uniform() < 0.5
            pair = random_observed_pair(rng, 4, 2, stable=stable)
            verdict = l2_detectable(pair)
            for _ in range(3):
                x = rng.standard_normal(4)
                premise = classify_integral_values(
                    gramian_value_sequence(pair.A, pair.Q, [x])[0])
                conclusion = classify_integral_values(
                    gramian_value_sequence(pair.A, np.eye(4), [x])[0])
                if verdict and premise is True:
                    assert conclusion is not False


class TestOutputInjection:
    def test_scalar_riccati(self):
        pair = ObservedPair(A=np.array([[1.0]]), C=np.array([[1.0]]))
        F = stabilizing_output_injection(pair)
        assert F[0, 0] == pytest.approx(1.0 + np.sqrt(2.0))
        assert spectral_abscissa(pair.A - F @ pair.C) == pytest.approx(-np.sqrt(2.0))

    def test_zero_output_stable_generator(self):
        pair = ObservedPair(A=np.diag([-1.0, -3.0]), C=np.zeros((1, 2)))
        F = stabilizing_output_injection(pair)
        np.testing.assert_allclose(F, np.zeros((2, 1)))

    def test_undetectable_rejected(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[0.0, 1.0]]))
        with pytest.raises(NoInjectionExistsError):
            stabilizing_output_injection(pair)

    def test_failed_riccati_reordering_is_numerical_error(self, monkeypatch):
        # a detectable pair has no imaginary-axis Hamiltonian eigenvalue, so
        # every CARE failure is numerical, never a verdict disagreement
        pair = ObservedPair(A=np.array([[1.0]]), C=np.array([[1.0]]))
        for error in (ValueError, np.linalg.LinAlgError):
            def fail(*args, **kwargs):
                raise error("Reordering of (A, B) failed")

            monkeypatch.setattr("scipy.linalg.solve_continuous_are", fail)
            with pytest.raises(NumericalError, match="output injection: Riccati"):
                stabilizing_output_injection(pair)
            with pytest.raises(NumericalError, match="output injection: Riccati"):
                detectability_report(pair)

    def test_witness_stabilizes_random_pairs(self, rng):
        for _ in range(15):
            pair = random_observed_pair(rng, 5, 2, stable=False)
            report = detectability_report(pair)
            if report.exponential:
                assert spectral_abscissa(pair.A - report.F @ pair.C) < 0

    def test_exponential_implies_l2(self, rng):
        for _ in range(15):
            stable = rng.uniform() < 0.5
            pair = random_observed_pair(rng, 4, 2, stable=stable)
            if detectability_report(pair).exponential:
                assert l2_detectable(pair)


class TestGramian:
    def test_zero_generator(self):
        pair = ObservedPair(A=np.zeros((2, 2)), C=np.eye(2))
        np.testing.assert_allclose(observability_gramian(pair, 2.0), 2.0 * np.eye(2),
                                   rtol=1e-13)

    def test_scalar_closed_form(self):
        pair = ObservedPair(A=np.array([[-1.0]]), C=np.array([[1.0]]))
        W = observability_gramian(pair, 1.0)
        assert W[0, 0] == pytest.approx((1 - np.exp(-2)) / 2, rel=1e-12)

    def test_against_simpson_oracle(self, rng):
        pair = random_observed_pair(rng, 4, 2)
        t0 = 1.5
        oracle = simpson_matrix_quadrature(
            lambda t: expm(pair.A, t).T @ pair.Q @ expm(pair.A, t), 0.0, t0, 2001
        )
        W = observability_gramian(pair, t0)
        assert np.linalg.norm(W - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_additivity(self, rng):
        # W(s + t) = W(s) + e^{sA'} W(t) e^{sA}
        for _ in range(5):
            pair = random_observed_pair(rng, 4, 2)
            s, t = 0.7, 1.1
            lhs = observability_gramian(pair, s + t)
            E = expm(pair.A, s)
            rhs = observability_gramian(pair, s) + E.T @ observability_gramian(
                pair, t
            ) @ E
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)

    def test_energy_monotone_in_horizon(self, rng):
        pair = random_observed_pair(rng, 3, 1)
        x = rng.standard_normal(3)
        values = [
            float(x @ observability_gramian(pair, t0) @ x)
            for t0 in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_long_horizon_overflow_is_numerical_error(self):
        # W(t0) = (1 - e^{-2 t0})/2 I is finite, but the block e^{-t0 A'} of
        # the Van Loan exponential overflows at t0 = 1000: a located error,
        # not an all-NaN Gramian with RuntimeWarnings
        pair = ObservedPair(A=-np.eye(2), C=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(observability_gramian(pair, 400.0),
                                       0.5 * np.eye(2), rtol=1e-13)
            with pytest.raises(NumericalError, match="at t0 = 1000"):
                observability_gramian(pair, 1000.0)

    @pytest.mark.xfail(raises=NumericalError, strict=True,
                       reason="ROADMAP item 16: the block exponential of "
                              "gramian_integral overflows at long horizons")
    def test_long_horizon_true_value(self):
        pair = ObservedPair(A=-np.eye(2), C=np.eye(2))
        np.testing.assert_allclose(observability_gramian(pair, 1000.0),
                                   0.5 * np.eye(2), rtol=1e-13)


class TestFinalObservability:
    def test_zero_generator_full_output(self):
        pair = ObservedPair(A=np.zeros((2, 2)), C=np.eye(2))
        assert final_observability_constant(pair, 2.0) == pytest.approx(2.0)

    def test_hidden_mode_gives_zero(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[0.0, 1.0]]))
        for t0 in (0.5, 1.0, 2.0):
            assert abs(final_observability_constant(pair, t0)) <= 1e-8

    def test_observable_pairs_positive(self, rng):
        for _ in range(10):
            pair = random_observed_pair(rng, 4, 4, stable=True)
            if unobservable_subspace(pair).shape[1] == 0:
                assert final_observability_constant(pair, 1.0) > 0

    def test_final_observability_implies_l2_detectability(self, rng):
        # continuous final observability at any horizon forces L2
        # detectability (observer => detector direction)
        checked = 0
        for _ in range(30):
            stable = rng.uniform() < 0.5
            pair = random_observed_pair(rng, 4, 2, stable=stable)
            if any(
                final_observability_constant(pair, t0) > 1e-8
                for t0 in (0.5, 1.0, 2.0)
            ):
                assert l2_detectable(pair)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("t0", [1.0, 10.0, 30.0])
    def test_time_reversed_gramian_closed_form(self, t0):
        # eps* is lambda_min of the Gramian of (C, -A); for this pair its
        # entries are sums of I_k = (e^{kt} - 1)/k.  The 2 x 2 eigenvalue
        # formula cancels in double precision, so the reference is taken at
        # 50 digits as det / lambda_max, whose terms do not cancel
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        t = mp.mpf(t0)

        def I(k):
            return (mp.exp(k * t) - 1) / k

        a = I(1)
        b = (I(1) - I(mp.mpf("3.5"))) / mp.mpf("2.5")
        c = (I(1) - 2 * I(mp.mpf("3.5")) + I(6)) / mp.mpf("6.25")
        lam_max = (a + c + mp.sqrt((a - c) ** 2 + 4 * b * b)) / 2
        expected = float((a * c - b * b) / lam_max)
        pair = ObservedPair(A=np.array([[-0.5, 1.0], [0.0, -3.0]]),
                            C=np.array([[1.0, 0.0]]))
        assert final_observability_constant(pair, t0) == pytest.approx(
            expected, rel=1e-12)

    def test_gramian_overflow_is_numerical_error(self):
        pair = ObservedPair(A=-np.eye(1), C=np.eye(1))
        with pytest.raises(NumericalError, match="final observability"):
            final_observability_constant(pair, 1000.0)


def _benchmark_pair(problem):
    """ObservedPair of a benchmarks/problems.py entry (C-form or Q-form)."""
    from lyacert.certify import parse_problem

    return parse_problem(problem["text"]).pair


#: the gallery's stable_detectable pair
GALLERY_A = np.array([[0.0, 1.0], [-2.0, -3.0]])


class TestFinalObservabilityDecision:
    def test_blind_to_output_scale(self):
        # eps* is homogeneous of degree 2 in C; the decision does not move
        unscaled = final_observability(ObservedPair(A=GALLERY_A, C=np.array([[1.0, 0.0]])), 1.0)
        scaled = final_observability(ObservedPair(A=GALLERY_A, C=np.array([[1e-6, 0.0]])), 1.0)
        assert unscaled.observable and scaled.observable
        assert scaled.eps_star == pytest.approx(1e-12 * unscaled.eps_star, rel=1e-9)
        assert scaled.eps_star < 1e-10

    @pytest.mark.parametrize("t0", [1.0, 10.0])
    def test_full_rank_output_decided_by_the_gramian(self, monkeypatch, t0):
        # n = 60 with a square Gaussian C: the Krylov rank test misranks it
        # (not A-invariant), so the Gramian must decide, at t0 = 10 on the
        # horizon 1/||A||_2, where e^{-tA} is well scaled
        problems = benchmark_module("problems")
        pair = _benchmark_pair(problems.stable(np.random.default_rng(0), 60, -0.5, 60))
        with pytest.raises(InternalInconsistencyError):
            unobservable_subspace(pair)

        def no_rank_test(pair):
            raise AssertionError("rank test called")

        monkeypatch.setattr("lyacert.detect.unobservable_subspace", no_rank_test)
        assert final_observability(pair, t0).observable is True

    def test_unresolved_gramian_falls_back_to_rank(self):
        # n = 22, rank-3 Q: eps* rounds to -1.0e-15 at t0 = 1 (and the
        # 1/||A|| horizon does no better); the SVD rank test finds no
        # unobservable direction
        pair = _benchmark_pair(benchmark_module("problems").mid_size(1)[17])
        final = final_observability(pair, 1.0)
        assert final.eps_star < 0 and final.observable is True

    @pytest.mark.parametrize("C", [[[1.0, 0.0]], [[0.0, 0.0]]], ids=["e2", "zero"])
    def test_unobservable(self, C):
        pair = ObservedPair(A=np.diag([-1.0, -2.0]), C=np.array(C))
        assert final_observability(pair, 1.0).observable is False

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: neither Gramian resolves this single-output pair and "
        "the Krylov rank test misranks it, so it is reported as not observable"))
    def test_rank_test_failure_is_reported_not_raised(self):
        # the planted, observable n = 20 mid-size known failure: no
        # exception escapes, the decision is False until item 1's staircase
        problems = benchmark_module("problems")
        known = [p for p in problems.mid_size(1) if p["known_failure"]]
        assert final_observability(_benchmark_pair(known[0]), 1.0).observable is True


class TestPiDetector:
    def test_identity_rhs_always_detects(self, rng):
        for stable in (True, False):
            A = stable_matrix(rng, 3) if stable else unstable_matrix(rng, 3)
            assert pi_detector_check((A, np.eye(3))).is_detector

    def test_blind_rhs_witnessed(self):
        result = pi_detector_check((np.diag([1.0, -2.0]), np.diag([0.0, 1.0])))
        assert not result.is_detector
        np.testing.assert_allclose(np.abs(result.witness), [1.0, 0.0], atol=1e-10)

    def test_stable_any_psd(self, rng):
        for _ in range(5):
            A = stable_matrix(rng, 4)
            Q = random_psd(rng, 4)
            assert pi_detector_check((A, Q)).is_detector

    def test_accepts_pair(self):
        pair = ObservedPair(A=np.diag([1.0, -2.0]), C=np.array([[1.0, 0.0]]))
        assert pi_detector_check(pair).is_detector

    @pytest.mark.parametrize("Q, verdict", [
        (np.diag([1.0, 0.0]), True),
        (np.diag([0.0, 1.0]), False),
    ], ids=["detector", "blind"])
    def test_hautus_disagreement_raises(self, monkeypatch, Q, verdict):
        import lyacert.detect

        target = (np.diag([1.0, -2.0]), Q)
        assert pi_detector_check(target).is_detector is verdict
        monkeypatch.setattr(lyacert.detect, "hautus_detectable",
                            lambda pair: not verdict)
        with pytest.raises(InternalInconsistencyError,
                           match="detectability notions disagree"):
            pi_detector_check(target)

    def test_witness_is_unobserved(self, rng):
        # a hidden unstable rotation (complex eigenvector) and hidden real
        # unstable modes: C T(t) w = 0 needs C w = 0 first of all
        S, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.1, 1.0], [-1.0, 0.1]]
        A[2:, 2:] = stable_matrix(rng, 2)
        C = np.hstack([np.zeros((1, 2)), rng.standard_normal((1, 2))])
        pairs = [ObservedPair(A=S @ A @ S.T, C=C @ S.T)]
        pairs += [undetectable_pair(rng, 6, 2, k_unstable=2) for _ in range(5)]
        for pair in pairs:
            result = pi_detector_check((pair.A, pair.Q))
            assert not result.is_detector
            assert np.linalg.norm(result.witness) == pytest.approx(1.0)
            assert np.linalg.norm(pair.C @ result.witness) <= 1e-10


class TestObserverAudit:
    def test_scalar_closed_form(self):
        # per-axis: eps* = (e^2 - 1)/2, all three integrals in closed form
        pair = ObservedPair(A=-np.eye(1), C=np.eye(1))
        report = observer_implies_detector_audit(pair, t0=1.0)
        assert report.eps_star == pytest.approx((np.e**2 - 1) / 2, rel=1e-10)
        assert report.max_violation <= 1e-12

    def test_random_observable_stable_pairs(self, rng):
        for _ in range(10):
            pair = random_observed_pair(rng, 5, 2, stable=True)
            if unobservable_subspace(pair).shape[1]:
                continue
            if final_observability_constant(pair, 0.5) <= 1e-8:
                continue  # numerically unobservable on this horizon
            for t0 in (0.5, 1.0):
                report = observer_implies_detector_audit(pair, t0=t0)
                assert report.eps_star > 0
                assert report.max_violation <= 1e-6

    def test_exact_worst_violation(self, monkeypatch):
        # in the eigenbasis of A = S diag(-1, -2) S' with C = S', Q = I, so
        # P_C = P_inf = diag(1/2, 1/4) and W(1) = diag((1 - e^-2)/2,
        # (1 - e^-4)/4); with eps* = 10 the slowest axis is violated by
        # 1 - (1 - e^-2 + 0.1) = e^-2 - 0.1, which sampling only bounds below
        c, s = np.cos(0.3), np.sin(0.3)
        S = np.array([[c, -s], [s, c]])
        pair = ObservedPair(A=S @ np.diag([-1.0, -2.0]) @ S.T, C=S.T)
        monkeypatch.setattr("lyacert.detect.final_observability",
                            lambda pair, t0: FinalObservability(10.0, True))
        report = observer_implies_detector_audit(pair, t0=1.0)
        assert report.max_violation == pytest.approx(np.exp(-2) - 0.1, abs=1e-10)

    def test_small_output_scale_audits(self):
        # eps* = 5.8e-13 with C x 1e-6; the inequality is homogeneous in C
        pair = ObservedPair(A=GALLERY_A, C=np.array([[1e-6, 0.0]]))
        report = observer_implies_detector_audit(pair, t0=1.0)
        assert report.eps_star < 1e-10
        assert report.max_violation <= 1e-6

    def test_eps_star_rounding_below_zero_is_numerical_error(self):
        # observable by the rank test, but t0/eps* cannot be formed
        pair = _benchmark_pair(benchmark_module("problems").mid_size(1)[17])
        with pytest.raises(NumericalError, match="rounds to"):
            observer_implies_detector_audit(pair, t0=1.0)

    def test_unstable_rejected(self):
        pair = ObservedPair(A=np.eye(2), C=np.eye(2))
        with pytest.raises(NotStableError):
            observer_implies_detector_audit(pair, t0=1.0)

    def test_one_schur_form(self, factorizations):
        # the abscissa and both Lyapunov solves share one gees
        pair = ObservedPair(A=np.array([[-1.0, 2.0], [0.0, -3.0]]),
                            C=np.array([[1.0, 0.0]]))
        observer_implies_detector_audit(pair, t0=1.0)
        assert len(factorizations["gees"]) == 1
        assert factorizations["eigvals"] == []

    def test_non_observer_rejected(self):
        pair = ObservedPair(A=np.diag([-1.0, -2.0]), C=np.zeros((1, 2)))
        with pytest.raises(NotObserverError):
            observer_implies_detector_audit(pair, t0=1.0)


class TestDuhamel:
    def test_variation_of_parameters_identity(self, rng):
        for _ in range(10):
            pair = random_observed_pair(rng, 4, 2, stable=False)
            report = detectability_report(pair)
            if not report.exponential:
                continue
            x = rng.standard_normal(4)
            t = rng.uniform(0.1, 3.0)
            assert duhamel_residual(pair, report.F, t, x) <= 1e-10

    def test_inputs_checked_before_the_exponential(self):
        pair = ObservedPair(A=-np.eye(2), C=np.array([[1.0, 0.0]]))
        F, x = np.ones((2, 1)), np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                duhamel_residual(pair, F, math.inf, x)
            with pytest.raises(DimensionError, match="F must be 2 x 1"):
                duhamel_residual(pair, np.ones((3, 1)), 1.0, x)


class TestReport:
    def test_constructed_undetectable_consistent(self, rng):
        for _ in range(5):
            pair = undetectable_pair(rng, 5, 2)
            report = detectability_report(pair)
            assert not report.hautus and not report.exponential and not report.l2
            assert report.F is None

    def test_detectable_report_carries_witness(self, rng):
        pair = random_observed_pair(rng, 4, 2, stable=False)
        report = detectability_report(pair, t0=1.0)
        if report.hautus:
            assert report.F is not None
            assert report.eps_star is not None and report.eps_star["t0"] == 1.0

    @pytest.mark.parametrize("hidden", [False, True])
    def test_hautus_runs_once(self, monkeypatch, hidden):
        # the injection's precondition is the Hautus test; the report reuses it
        import lyacert.detect

        calls = []
        original = lyacert.detect.hautus_detectable
        monkeypatch.setattr(lyacert.detect, "hautus_detectable",
                            lambda pair: calls.append(pair) or original(pair))
        C = np.array([[0.0, 1.0]]) if hidden else np.array([[1.0, 0.0]])
        report = detectability_report(ObservedPair(A=np.diag([1.0, -2.0]), C=C))
        assert report.hautus is not hidden
        assert len(calls) == 1

    def test_json_shape(self, rng):
        pair = random_observed_pair(rng, 3, 1, stable=True)
        d = detectability_report(pair, t0=0.5).to_dict()
        assert set(d) == {"F", "l2", "eps_star"}

    def test_verdict_is_stored_once(self):
        report = DetectabilityReport(F=np.zeros((1, 1)), l2=True)
        assert report.hautus and report.exponential
        for name in ("hautus", "exponential"):
            with pytest.raises(AttributeError):
                setattr(report, name, False)

    def test_inconsistency_raises(self):
        with pytest.raises(InternalInconsistencyError):
            DetectabilityReport(F=None, l2=True)
