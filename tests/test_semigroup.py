import numpy as np
import pytest

from lyacert.cones import ConeSpec
from lyacert.exceptions import (
    DefectiveMatrixError,
    InternalInconsistencyError,
    NotStableError,
)
from lyacert.linalg import expm, integral_exp
from lyacert.lyapunov import LyapunovOperator
from lyacert.semigroup import (
    SemigroupProbe,
    is_exponentially_stable,
    is_metzler,
    lemma_AS_suite,
    s_infinity,
    stability_report,
    trajectory,
    weak_L1_stable_on_cone,
    weak_detector_check,
)

from conftest import random_matrix, stable_matrix, stable_metzler


class TestProbe:
    def test_orthant_requires_metzler(self):
        with pytest.raises(ValueError, match="Metzler"):
            SemigroupProbe(A=np.array([[1.0, -0.5], [0.0, 1.0]]),
                           cone=ConeSpec.orthant(2))

    def test_metzler_accepted(self):
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
        assert probe.dim == 2

    def test_default_norm_is_euclidean(self):
        probe = SemigroupProbe(A=np.zeros((3, 3)))
        assert probe.norm.p == 2.0 and probe.norm.dim == 3


class TestTrajectory:
    def test_constant_for_zero_generator(self):
        probe = SemigroupProbe(A=np.zeros((2, 2)))
        rows = trajectory(probe, [1.0, 2.0], [0.0, 1.0, 5.0])
        for _, v, nrm in rows:
            np.testing.assert_allclose(v, [1.0, 2.0])
            assert nrm == pytest.approx(np.sqrt(5.0))

    def test_exponential_decay(self):
        probe = SemigroupProbe(A=-np.eye(2))
        rows = trajectory(probe, [1.0, 0.0], [0.0, 0.5, 1.0, 2.0])
        for t, _, nrm in rows:
            assert nrm == pytest.approx(np.exp(-t), rel=1e-12)

    def test_rotation_preserves_norm(self):
        probe = SemigroupProbe(A=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        for _, _, nrm in trajectory(probe, [1.0, 0.0], np.linspace(0, 6, 7)):
            assert nrm == pytest.approx(1.0, rel=1e-12)

    def test_descending_grid_rejected(self):
        probe = SemigroupProbe(A=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            trajectory(probe, [1.0, 0.0], [1.0, 0.5])


class TestExponentialStability:
    def test_cases(self):
        assert is_exponentially_stable(SemigroupProbe(A=np.diag([-1.0, -2.0])))
        assert not is_exponentially_stable(
            SemigroupProbe(A=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        )
        assert not is_exponentially_stable(SemigroupProbe(A=np.array([[1.0]])))


class TestWeakL1:
    def test_unstable_mode_witnessed(self):
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
        result = weak_L1_stable_on_cone(probe)
        assert not result.stable and result.exact
        phi, x = result.witness
        np.testing.assert_allclose(phi, [1.0, 0.0])
        np.testing.assert_allclose(x, [1.0, 0.0])

    def test_coupled_stable_metzler(self):
        # eigenvalues -0.5 and -1.5: every mode decays
        probe = SemigroupProbe(
            A=np.array([[-1.0, 0.5], [0.5, -1.0]]), cone=ConeSpec.orthant(2)
        )
        result = weak_L1_stable_on_cone(probe)
        assert result.stable and result.exact

    def test_any_stable_is_weak_L1(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            probe = SemigroupProbe(A=stable_metzler(rng, n), cone=ConeSpec.orthant(n))
            assert weak_L1_stable_on_cone(probe).stable

    def test_psd_cone_via_lyapunov_lift(self):
        stable_lift = LyapunovOperator(np.array([[-1.0, 0.5], [0.0, -2.0]])).matrix
        probe = SemigroupProbe(A=stable_lift, cone=ConeSpec.psd(2))
        assert weak_L1_stable_on_cone(probe).stable
        unstable_lift = LyapunovOperator(np.diag([1.0, -1.0])).matrix
        probe = SemigroupProbe(A=unstable_lift, cone=ConeSpec.psd(2))
        assert not weak_L1_stable_on_cone(probe).stable

    def test_defective_falls_back(self):
        jordan_stable = np.array([[-1.0, 1.0], [0.0, -1.0]])
        probe = SemigroupProbe(A=jordan_stable, cone=ConeSpec.orthant(2))
        result = weak_L1_stable_on_cone(probe)
        assert result.stable and not result.exact
        jordan_unstable = np.array([[1.0, 1.0], [0.0, 1.0]])
        probe = SemigroupProbe(A=jordan_unstable, cone=ConeSpec.orthant(2))
        result = weak_L1_stable_on_cone(probe)
        assert not result.stable and not result.exact

    def test_fallback_disabled_raises(self):
        probe = SemigroupProbe(
            A=np.array([[-1.0, 1.0], [0.0, -1.0]]), cone=ConeSpec.orthant(2)
        )
        with pytest.raises(DefectiveMatrixError):
            weak_L1_stable_on_cone(probe, fallback=False)


class TestWeakDetector:
    def test_detector_sees_unstable_mode(self):
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
        assert weak_detector_check(probe, [1.0, 0.0]).is_detector

    def test_blind_element_rejected_with_witness(self):
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
        result = weak_detector_check(probe, [0.0, 1.0])
        assert not result.is_detector
        np.testing.assert_allclose(result.witness, [1.0, 0.0])

    def test_zero_is_detector_for_stable(self, rng):
        probe = SemigroupProbe(A=stable_metzler(rng, 3), cone=ConeSpec.orthant(3))
        assert weak_detector_check(probe, np.zeros(3)).is_detector

    def test_requires_orthant_cone(self):
        probe = SemigroupProbe(A=-np.eye(2))
        with pytest.raises(ValueError, match="orthant"):
            weak_detector_check(probe, [1.0, 0.0])

    def test_cone_dimension_mismatch(self):
        from lyacert.exceptions import DimensionError

        with pytest.raises(DimensionError):
            SemigroupProbe(A=-np.eye(2), cone=ConeSpec.orthant(3))

    def test_lyapw_i_implies_ii(self, rng):
        # whenever A x = -z has a cone solution for a detector z, the
        # semigroup must be weakly L1 stable on the cone
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A = stable_metzler(rng, n)
            if rng.uniform() < 0.4:
                A = A + (abs(np.linalg.eigvals(A).real.max()) + 0.3) * np.eye(n)
                if not is_metzler(A):
                    continue
            probe = SemigroupProbe(A=A, cone=ConeSpec.orthant(n))
            z = rng.exponential(size=n)
            if not weak_detector_check(probe, z).is_detector:
                continue
            x = np.linalg.solve(A, -z)
            if np.min(x) < -1e-12:
                continue
            assert weak_L1_stable_on_cone(probe).stable
            checked += 1
        assert checked >= 10


class TestSInfinity:
    def test_identity(self):
        probe = SemigroupProbe(A=-np.eye(3))
        np.testing.assert_allclose(s_infinity(probe), np.eye(3), atol=1e-12)

    def test_frozen_two_by_two(self):
        # -A^{-1} for A = [[0,1],[-2,-3]]: det = 2, adjugate by hand
        probe = SemigroupProbe(A=np.array([[0.0, 1.0], [-2.0, -3.0]]))
        np.testing.assert_allclose(
            s_infinity(probe), np.array([[1.5, 0.5], [-1.0, 0.0]]), atol=1e-12
        )

    def test_cone_preserving_diagonal(self):
        probe = SemigroupProbe(A=np.diag([-1.0, -2.0]), cone=ConeSpec.orthant(2))
        np.testing.assert_allclose(s_infinity(probe), np.diag([1.0, 0.5]), atol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(NotStableError):
            s_infinity(SemigroupProbe(A=np.eye(2)))

    def test_inverse_identity_residual(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = stable_matrix(rng, n)
            S = s_infinity(SemigroupProbe(A=A))
            assert np.linalg.norm(A @ S + np.eye(n)) <= 1e-10

    def test_cesaro_average_approaches_s_infinity(self, rng):
        # cross-check route: (1/t) int_0^t S(tau) dtau -> S_infinity
        from lyacert.linalg import cesaro_integral

        A = stable_matrix(rng, 4)
        S_inf = s_infinity(SemigroupProbe(A=A))
        t = 200.0
        avg = cesaro_integral(A, t) / t
        assert np.linalg.norm(avg - S_inf) <= 1e-2 * np.linalg.norm(S_inf)


class TestLemmaSuite:
    def test_zero_generator_exact(self):
        report = lemma_AS_suite(SemigroupProbe(A=np.zeros((3, 3))), t=1.0)
        block = ["AS_eq_T_minus_I", "AS_commute", "cesaro_identity", "cesaro_commute"]
        assert report.max_residual(block) == 0.0
        assert report.residuals["dS_dt"] <= 1e-11  # finite-difference rounding

    def test_random_block_identities(self, rng):
        for _ in range(5):
            A = random_matrix(rng, 5)
            report = lemma_AS_suite(SemigroupProbe(A=A), t=1.0, h=1e-5)
            block = ["AS_eq_T_minus_I", "AS_commute", "cesaro_identity",
                     "cesaro_commute"]
            assert report.max_residual(block) <= 1e-9
            assert report.residuals["dS_dt"] <= 1e-6

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            lemma_AS_suite(SemigroupProbe(A=np.eye(2)), t=0.0)


class TestPositivityAndConsistency:
    def test_metzler_semigroup_positive(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = stable_metzler(rng, n)
            for t in np.linspace(0.0, 10.0, 6):
                assert np.min(expm(A, t)) >= -1e-12

    def test_stable_implies_weak_L1(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            probe = SemigroupProbe(A=stable_metzler(rng, n), cone=ConeSpec.orthant(n))
            if is_exponentially_stable(probe):
                assert weak_L1_stable_on_cone(probe).stable

    def test_stability_report_fields(self, rng):
        probe = SemigroupProbe(A=stable_metzler(rng, 3), cone=ConeSpec.orthant(3))
        report = stability_report(probe)
        assert report.exponential and report.weak_L1_on_cone and report.L1_pi
        assert report.growth is not None and report.growth.M >= 1.0
        d = report.to_dict()
        assert set(d) == {"exponential", "growth", "weak_L1_on_cone",
                          "weak_L1_exact", "L1_pi"}

    def test_report_inconsistency_raises(self):
        from lyacert.semigroup import StabilityReport

        with pytest.raises(InternalInconsistencyError):
            StabilityReport(
                exponential=True, growth=None, weak_L1_on_cone=False,
                weak_L1_witness=None, weak_L1_exact=True, L1_pi=True,
            )

    def test_integral_exp_monotone_on_cone(self, rng):
        # S(t)x is nondecreasing for positive semigroups
        A = stable_metzler(rng, 3)
        x = rng.exponential(size=3)
        prev = np.zeros(3)
        for t in (0.5, 1.0, 2.0, 4.0):
            cur = integral_exp(A, t) @ x
            assert np.min(cur - prev) >= -1e-12
            prev = cur
