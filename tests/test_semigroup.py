import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyacert.cones import ConeSpec
from lyacert.exceptions import (
    InternalInconsistencyError,
    NotStableError,
)
from lyacert.linalg import ABSCISSA_TOL, expm, integral_exp
from lyacert.lyapunov import LyapunovOperator
from lyacert.semigroup import (
    SemigroupProbe,
    _integrable,
    is_metzler,
    lemma_AS_suite,
    s_infinity,
    stability_report,
    trajectory,
    weak_L1_stable_on_cone,
    weak_detector_check,
)

from conftest import expm_norms_on_grid, random_matrix, stable_matrix, stable_metzler


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
        assert trajectory(probe, [2.0, 3.0, 6.0], [0.0])[0][2] == 7.0
        assert trajectory(probe, [2.0, 3.0, 6.0], [0.0], p=1.0)[0][2] == 11.0


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

    @pytest.mark.parametrize("p", [0.5, math.nan], ids=["0.5", "nan"])
    def test_exponent_rule(self, p):
        probe = SemigroupProbe(A=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="p >= 1"):
            trajectory(probe, [1.0, 0.0], [0.0], p=p)


class TestExponentialStability:
    def test_cases(self):
        def exponential(A):
            return stability_report(SemigroupProbe(A=np.asarray(A))).exponential

        assert exponential(np.diag([-1.0, -2.0]))
        assert not exponential([[0.0, 1.0], [-1.0, 0.0]])
        assert not exponential([[1.0]])


class TestWeakL1:
    def test_unstable_mode_witnessed(self):
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
        result = weak_L1_stable_on_cone(probe)
        assert not result.stable
        phi, x = result.witness
        np.testing.assert_allclose(phi, [1.0, 0.0])
        np.testing.assert_allclose(x, [1.0, 0.0])

    def test_coupled_stable_metzler(self):
        # eigenvalues -0.5 and -1.5: every mode decays
        probe = SemigroupProbe(
            A=np.array([[-1.0, 0.5], [0.5, -1.0]]), cone=ConeSpec.orthant(2)
        )
        result = weak_L1_stable_on_cone(probe)
        assert result.stable

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
        assert weak_L1_stable_on_cone(probe) == (True, None)
        jordan_unstable = np.array([[1.0, 1.0], [0.0, 1.0]])
        probe = SemigroupProbe(A=jordan_unstable, cone=ConeSpec.orthant(2))
        result = weak_L1_stable_on_cone(probe)
        assert not result.stable
        phi, x = result.witness
        np.testing.assert_array_equal(phi, [1.0, 0.0])
        np.testing.assert_array_equal(x, [1.0, 0.0])

    @pytest.mark.parametrize("alpha", [-1.0, -0.1, -1e-3, 1e-3])
    @pytest.mark.parametrize("cone", ["orthant", "polyhedral", "psd"])
    def test_jordan_block_exact(self, alpha, cone):
        J = np.array([[alpha, 1.0], [0.0, alpha]])
        if cone == "orthant":
            probe = SemigroupProbe(A=J, cone=ConeSpec.orthant(2))
        elif cone == "polyhedral":
            probe = SemigroupProbe(A=J, cone=ConeSpec.polyhedral(np.eye(2)))
        else:
            probe = SemigroupProbe(A=LyapunovOperator(J).matrix,
                                   cone=ConeSpec.psd(2))
        assert weak_L1_stable_on_cone(probe).stable == (alpha < 0)
        report = stability_report(probe)
        assert report.exponential == report.weak_L1_on_cone == (alpha < 0)
        if alpha < 0:
            # the envelope M e^{-eps t} bounds ||e^{tA}|| on 40001 points of
            # [0, 30/eps]; the psd lift is a 3x3 Jordan block at 2 alpha
            gb = report.growth
            ts, norms = expm_norms_on_grid(probe.A, 30.0 / gb.eps, 40000)
            sup = float((norms * np.exp(gb.eps * ts)).max())
            assert gb.M >= sup

    def test_barely_stable_scalar_consistent(self):
        # -5e-10 is below -ABSCISSA_TOL, so both notions must call it stable
        report = stability_report(
            SemigroupProbe(A=np.array([[-5e-10]]), cone=ConeSpec.orthant(1)))
        assert report.exponential and report.weak_L1_on_cone

    def test_polyhedral_span_not_invariant_rejected(self):
        probe = SemigroupProbe(A=np.array([[-1.0, 0.0], [1.0, -1.0]]),
                               cone=ConeSpec.polyhedral([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="span"):
            weak_L1_stable_on_cone(probe)

    def test_polyhedral_restricted_to_span(self):
        # the ray through e_0 sees only the stable entry; e_1 grows outside it
        probe = SemigroupProbe(A=np.diag([-1.0, 1.0]),
                               cone=ConeSpec.polyhedral([[1.0], [0.0]]))
        assert weak_L1_stable_on_cone(probe).stable
        probe = SemigroupProbe(A=np.diag([1.0, -1.0]),
                               cone=ConeSpec.polyhedral([[1.0], [0.0]]))
        result = weak_L1_stable_on_cone(probe)
        assert not result.stable
        assert result.witness[0] is None
        np.testing.assert_array_equal(result.witness[1], [1.0, 0.0])


def _eigen_residue_integrable(A, V, w):
    """Oracle: int (e^{tA})_{ji} dt is finite iff every mode with
    Re lambda >= -ABSCISSA_TOL has a zero residue V[j, k] Vinv[k, i].  A
    structural zero comes out at rounding level, about eps cond(V)."""
    Vinv = np.linalg.inv(V)
    slow = w.real >= -ABSCISSA_TOL
    residues = np.abs(V[:, slow, None] * Vinv[None, slow, :])
    return ~np.any(residues > 1e-13 * np.linalg.cond(V), axis=1)


@st.composite
def sparse_metzler(draw):
    n = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.where(rng.uniform(size=(n, n)) < density,
                 rng.exponential(size=(n, n)), 0.0)
    np.fill_diagonal(A, rng.normal(-1.0, 1.0, size=n))
    return A


class TestAgainstEigenResidues:
    @settings(max_examples=50, deadline=None)
    @given(A=sparse_metzler())
    def test_integrability_and_detectors(self, A):
        w, V = np.linalg.eig(A)
        assume(np.min(np.abs(w.real + ABSCISSA_TOL)) >= 1e-6)
        assume(np.linalg.cond(V) <= 1e8)
        oracle = _eigen_residue_integrable(A, V, w)
        np.testing.assert_array_equal(_integrable(A), oracle)
        n = A.shape[0]
        probe = SemigroupProbe(A=A, cone=ConeSpec.orthant(n))
        for i in range(n):
            blind = [j for j in range(n) if oracle[j, i] and not oracle[j].all()]
            result = weak_detector_check(probe, np.eye(n)[i])
            assert result.is_detector == (not blind)
            if blind:
                np.testing.assert_array_equal(result.witness, np.eye(n)[blind[0]])


class TestWeakDetector:
    def test_paper_jordan_case(self):
        # z = e_2 is not an order unit, yet -A^{-1} z = (1, 1) >= 0
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        z = np.array([0.0, 1.0])
        probe = SemigroupProbe(A=A, cone=ConeSpec.orthant(2))
        assert weak_detector_check(probe, z) == (True, None)
        np.testing.assert_allclose(np.linalg.solve(A, -z), [1.0, 1.0])
        assert weak_L1_stable_on_cone(probe).stable

    def test_chain_with_unstable_source(self):
        # 0 -> 1 -> 2; the class {0} grows and feeds everything downstream
        A = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        probe = SemigroupProbe(A=A, cone=ConeSpec.orthant(3))
        assert weak_detector_check(probe, [1.0, 0.0, 0.0]).is_detector
        result = weak_detector_check(probe, [0.0, 0.0, 1.0])
        assert not result.is_detector
        np.testing.assert_array_equal(result.witness, [1.0, 0.0, 0.0])

    def test_negative_z_rejected(self):
        probe = SemigroupProbe(A=-np.eye(2), cone=ConeSpec.orthant(2))
        with pytest.raises(ValueError, match="negative"):
            weak_detector_check(probe, [1.0, -1.0])

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

    def test_polyhedral_cone(self):
        # A = G B G^{-1} with B Metzler and stable: e^{tA} keeps cone(G), and
        # S_inf = G (-B^{-1}) G^{-1} maps every generator into it
        G = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[-2.0, 1.0], [1.0, -2.0]])
        A = G @ B @ np.linalg.inv(G)
        probe = SemigroupProbe(A=A, cone=ConeSpec.polyhedral(G))
        np.testing.assert_allclose(
            s_infinity(probe), G @ -np.linalg.inv(B) @ np.linalg.inv(G), atol=1e-12
        )

    def test_polyhedral_cone_claim_refuted(self):
        # -B^{-1} = [[1, -2], [0, 1]]: the second generator leaves the cone
        G = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[-1.0, -2.0], [0.0, -1.0]])
        probe = SemigroupProbe(A=G @ B @ np.linalg.inv(G),
                               cone=ConeSpec.polyhedral(G))
        with pytest.raises(InternalInconsistencyError, match="preserve the cone") as exc:
            s_infinity(probe)
        np.testing.assert_array_equal(exc.value.diagnostics["witness"], [1.0, 1.0])

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
        assert report.residuals["dS_dt"] <= 1e-11  # rounding of (t + h) - t

    def test_random_block_identities(self, rng):
        for _ in range(5):
            A = random_matrix(rng, 5)
            report = lemma_AS_suite(SemigroupProbe(A=A), t=1.0, h=1e-5)
            block = ["AS_eq_T_minus_I", "AS_commute", "cesaro_identity",
                     "cesaro_commute"]
            assert report.max_residual(block) <= 1e-9
            assert report.residuals["dS_dt"] <= 1e-6

    # t = 0 is refused, see test_nonpositive_time_rejected
    @pytest.mark.parametrize("h", [1e-5, 1e-2, 2.0])
    @pytest.mark.parametrize("t", [1e-6, 1.0])
    def test_increment_identity_is_exact(self, t, h):
        rng = np.random.default_rng(23)
        probes = [SemigroupProbe(A=-np.eye(2))]
        probes += [SemigroupProbe(A=stable_matrix(rng, 4)) for _ in range(5)]
        for probe in probes:
            assert lemma_AS_suite(probe, t=t, h=h).residuals["dS_dt"] <= 1e-12

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
            if stability_report(probe).exponential:
                assert weak_L1_stable_on_cone(probe).stable

    def test_stability_report_fields(self, rng):
        probe = SemigroupProbe(A=stable_metzler(rng, 3), cone=ConeSpec.orthant(3))
        report = stability_report(probe)
        assert report.exponential and report.weak_L1_on_cone
        assert not hasattr(report, "L1_pi")
        assert report.growth is not None and report.growth.M >= 1.0
        d = report.to_dict()
        assert set(d) == {"exponential", "growth", "weak_L1_on_cone"}

    def test_report_inconsistency_raises(self):
        from lyacert.semigroup import StabilityReport

        with pytest.raises(InternalInconsistencyError):
            StabilityReport(
                exponential=True, growth=None, weak_L1_on_cone=False,
                weak_L1_witness=None,
            )
        # L1 pi-stability is exponential stability: no field can contradict it
        with pytest.raises(TypeError):
            StabilityReport(
                exponential=True, growth=None, weak_L1_on_cone=True,
                weak_L1_witness=None, L1_pi=False,
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
