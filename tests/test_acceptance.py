"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Each test prints "ACCEPTANCE <n> <name>: PASS|FAIL" (visible with -s or -v;
pytest's own verdict line mirrors it).  Tolerances appear literally in the
assertions, nothing is deferred to calibration.
"""

import functools
import time

import numpy as np
import pytest
import scipy.optimize

from lyacert.certify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    ProblemSpec,
    problem_from_dict,
    wonham_certify,
)
from lyacert.cones import ConeSpec, decompose_pm
from lyacert.detect import (
    ObservedPair,
    detectability_report,
    final_observability_constant,
    observer_implies_detector_audit,
    unobservable_subspace,
)
from lyacert.linalg import NormInterval, spectral_abscissa
from lyacert.lyapunov import (
    implemented_apply,
    lyap_solve_direct,
    monomial,
    pairing,
    projective_norm,
    tensor_semigroup_apply,
)
from lyacert.semigroup import (
    SemigroupProbe,
    lemma_AS_suite,
    s_infinity,
    weak_L1_stable_on_cone,
    weak_detector_check,
)

from conftest import (
    classify_integral_values,
    gramian_value_sequence,
    random_matrix,
    random_psd,
    random_symmetric,
    stable_matrix,
    stable_metzler,
    unstable_matrix,
)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {name}: PASS")
        return wrapper
    return decorate


def _detectable_pair(rng, stable):
    while True:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        A = stable_matrix(rng, n) if stable else unstable_matrix(rng, n)
        pair = ObservedPair(A=A, C=rng.standard_normal((m, n)))
        if unobservable_subspace(pair).shape[1] == 0:
            return pair


@criterion(1, "Wonham round-trip")
def test_criterion_01_wonham_roundtrip():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    for _ in range(200):
        pair = _detectable_pair(rng, stable=True)
        cert = wonham_certify(ProblemSpec(A=pair.A, C=pair.C))
        assert cert.verdict == VERDICT_STABLE
        Q = pair.Q
        P = np.asarray(cert.P)
        residual = np.linalg.norm(pair.A.T @ P + P @ pair.A + Q)
        assert residual <= 1e-8 * np.linalg.norm(Q)
        assert np.linalg.eigvalsh(P)[0] >= -1e-9 * np.linalg.norm(P, 2)
    for _ in range(200):
        pair = _detectable_pair(rng, stable=False)
        assert spectral_abscissa(pair.A) > 1e-6
        cert = wonham_certify(ProblemSpec(A=pair.A, C=pair.C))
        assert cert.verdict == VERDICT_UNSTABLE
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"400 certificates took {elapsed:.1f}s"


@criterion(2, "hypothesis necessity")
def test_criterion_02_hypothesis_necessity():
    # P = 0 solves A'P + PA = -0 and is PSD, yet A = [1] is unstable: with
    # the detector hypothesis broken the verdict must stay Inconclusive
    A = np.array([[1.0]])
    P = lyap_solve_direct(A, np.array([[0.0]]))
    np.testing.assert_allclose(P, [[0.0]])
    assert np.linalg.eigvalsh(P)[0] >= 0.0
    cert = wonham_certify(problem_from_dict({"A": [[1.0]], "Q": [[0.0]]}))
    assert cert.verdict == VERDICT_INCONCLUSIVE
    assert cert.verdict != VERDICT_STABLE
    assert not cert.detectability.l2


@criterion(3, "integrated-semigroup lemma suite")
def test_criterion_03_lemma_suite():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        probe = SemigroupProbe(A=random_matrix(rng, n))
        for t in (0.1, 1.0, 10.0):
            report = lemma_AS_suite(probe, t=t, h=1e-4)
            assert report.residuals["AS_eq_T_minus_I"] <= 1e-8
            assert report.residuals["AS_commute"] <= 1e-8
            assert report.residuals["cesaro_identity"] <= 1e-8
            assert report.residuals["dS_dt"] <= 1e-8


@criterion(4, "tensor duality and semigroup law")
def test_criterion_04_tensor_duality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        V = A if rng.uniform() < 0.5 else random_matrix(rng, n)
        P = rng.standard_normal((n, n))
        rho = rng.standard_normal((n, n))
        t = rng.uniform(0.0, 5.0)
        lhs = pairing(implemented_apply(A, V, t, P), rho)
        rhs = pairing(P, tensor_semigroup_apply(A, V, t, rho))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        rho = rng.standard_normal((n, n))
        s, t = rng.uniform(0.0, 2.5, size=2)
        once = tensor_semigroup_apply(A, A, s + t, rho)
        twice = tensor_semigroup_apply(A, A, s, tensor_semigroup_apply(A, A, t, rho))
        scale = max(np.linalg.norm(once), 1.0)
        assert np.linalg.norm(once - twice) <= 1e-9 * scale


@criterion(5, "positivity of the Lyapunov semigroup")
def test_criterion_05_positivity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = random_matrix(rng, n)
        # keep ||e^{tA}|| <= e^t so the floating-point eigenvalue error of
        # the congruence stays far below the 1e-10 ||P|| tolerance
        mu = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
        if mu > 1.0:
            A = A / mu
        P = random_psd(rng, n)
        t = rng.uniform(0.0, 5.0)
        out = implemented_apply(A, A, t, P)
        out = 0.5 * (out + out.T)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10 * np.linalg.norm(P, 2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        rho = random_symmetric(rng, n)
        plus, minus = decompose_pm(ConeSpec.psd(n), rho)
        err = np.linalg.norm(rho - (plus - minus))
        assert err <= 1e-12 * max(np.linalg.norm(rho), 1.0)
        assert np.linalg.eigvalsh(plus)[0] >= -1e-12
        assert np.linalg.eigvalsh(minus)[0] >= -1e-12


def _l1_decomposition_search(R, rng, starts=6):
    """Brute-force search over decompositions R = sum_k x_k y_k'.

    Any invertible X gives the feasible decomposition x_k = X[:, k],
    y_k = (X^{-1} R)[k, :]; the cost is minimized over X from several
    starts (the identity start realizes the row decomposition)."""
    n = R.shape[0]

    def cost(flat):
        X = flat.reshape(n, n)
        if abs(np.linalg.det(X)) < 1e-8:
            return 1e9
        Y = np.linalg.solve(X, R)
        return float(
            sum(np.abs(X[:, k]).sum() * np.abs(Y[k, :]).sum() for k in range(n))
        )

    best = cost(np.eye(n).ravel())
    for _ in range(starts):
        x0 = rng.standard_normal(n * n)
        res = scipy.optimize.minimize(
            cost, x0, method="Powell",
            options={"maxiter": 4000, "xtol": 1e-10, "ftol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best


@criterion(6, "projective norm identities")
def test_criterion_06_projective_norm():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        val = projective_norm(monomial(x, y))
        exact = float(np.linalg.norm(x) * np.linalg.norm(y))
        assert abs(val - exact) <= 1e-12 * max(exact, 1.0)
    # l1: the entrywise-sum formula against the decomposition search
    for n in (2, 3):
        for _ in range(3):
            R = rng.standard_normal((n, n))
            formula = projective_norm(R, 1.0)
            assert formula == pytest.approx(float(np.abs(R).sum()))
            searched = _l1_decomposition_search(R, rng)
            assert searched >= formula * (1.0 - 1e-6) - 1e-9  # duality floor
            assert searched <= formula * (1.0 + 1e-6) + 1e-9  # achieved
    # general p: certified interval; the gap ratio is informational
    ratios = []
    for p in (1.5, 3.0):
        for _ in range(10):
            rho = rng.standard_normal((4, 4))
            result = projective_norm(rho, p)
            assert isinstance(result, NormInterval)
            assert result.lower <= result.upper
            ratios.append(result.ratio)
    print(f"[info] general-p interval ratios: max {max(ratios):.3f}, "
          f"mean {np.mean(ratios):.3f}")


@criterion(7, "observer implies detector audit")
def test_criterion_07_observer_audit():
    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        pair = ObservedPair(A=stable_matrix(rng, n), C=rng.standard_normal((m, n)))
        if unobservable_subspace(pair).shape[1]:
            continue
        # the audit's precondition is continuous final observability, i.e.
        # a resolvable eps*; rank-observable pairs can still be numerically
        # unobservable on a short horizon
        if final_observability_constant(pair, 0.5) <= 1e-8:
            continue
        count += 1
        for t0 in (0.5, 1.0):
            report = observer_implies_detector_audit(pair, t0=t0)
            assert report.eps_star > 0
            assert report.max_violation <= 1e-6


@criterion(8, "detectability equivalences")
def test_criterion_08_detectability_equivalences():
    from conftest import undetectable_pair

    rng = np.random.default_rng(8)
    pairs = []
    for i in range(400):
        stable = i % 2 == 0
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        A = stable_matrix(rng, n) if stable else unstable_matrix(rng, n)
        pairs.append(ObservedPair(A=A, C=rng.standard_normal((m, n))))
    for _ in range(100):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        pairs.append(undetectable_pair(rng, n, m))
    assert len(pairs) == 500

    undetectable_seen = 0
    for k, pair in enumerate(pairs):
        report = detectability_report(pair)  # construction cross-checks
        assert report.hautus == report.exponential == report.l2
        if not report.hautus:
            undetectable_seen += 1
        if report.exponential:
            assert spectral_abscissa(pair.A - report.F @ pair.C) < 0
        if report.l2:
            xs = [rng.standard_normal(pair.n) for _ in range(10)]
            premise_vals = gramian_value_sequence(pair.A, pair.Q, xs)
            conclusion_vals = gramian_value_sequence(pair.A, np.eye(pair.n), xs)
            for pv, cv in zip(premise_vals, conclusion_vals):
                premise = classify_integral_values(pv)
                conclusion = classify_integral_values(cv)
                assert not (premise is True and conclusion is False), (
                    f"pair {k}: quadrature counterexample to an l2-true verdict"
                )
    assert undetectable_seen >= 100


@criterion(9, "weak-L1 machinery")
def test_criterion_09_weak_L1():
    rng = np.random.default_rng(9)
    probe = SemigroupProbe(A=np.diag([1.0, -1.0]), cone=ConeSpec.orthant(2))
    assert weak_detector_check(probe, [1.0, 0.0]).is_detector
    rejected = weak_detector_check(probe, [0.0, 1.0])
    assert not rejected.is_detector
    np.testing.assert_allclose(rejected.witness, [1.0, 0.0])

    for k in range(50):
        n = int(rng.integers(2, 6))
        A = stable_metzler(rng, n)
        probe = SemigroupProbe(A=A, cone=ConeSpec.orthant(n))
        z = rng.exponential(size=n)
        assert weak_detector_check(probe, z).is_detector
        x = np.linalg.solve(A, -z)
        assert np.min(x) >= -1e-12 * max(np.linalg.norm(x), 1.0)
        assert weak_L1_stable_on_cone(probe).stable
        S_inf = s_infinity(probe)  # also verifies cone preservation
        assert np.linalg.norm(A @ S_inf + np.eye(n)) <= 1e-10
        assert np.min(S_inf) >= -1e-12
        if k < 5:
            # cross-check route: the Cesaro average of S approaches
            # S_infinity with error A^{-1} S(t)/t, so check against that
            # O(1/t) law rather than a fixed constant
            from lyacert.linalg import cesaro_integral

            t = 400.0
            avg = cesaro_integral(A, t) / t
            err = np.linalg.norm(avg - S_inf) / np.linalg.norm(S_inf)
            bound = np.linalg.norm(S_inf @ S_inf) / (t * np.linalg.norm(S_inf))
            assert err <= 1.5 * bound + 1e-10


@criterion(10, "order-unit norm is the spectral norm")
def test_criterion_10_order_unit_norm():
    from lyacert.cones import order_unit_norm

    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        X = random_symmetric(rng, n)
        val = order_unit_norm(ConeSpec.psd(n), np.eye(n), X)
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(X))))
        assert abs(val - spectral) <= 1e-10 * max(spectral, 1.0)
