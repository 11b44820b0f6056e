"""Independent output checks for the certify benchmark.

Reference values never come from lyacert: the expected verdict follows from
how each problem was built (see problems.py), and every Lyapunov solution is
compared with SciPy's Bartels-Stewart solver.  Only numpy and scipy are used.
"""

import json

import numpy as np
import scipy.linalg

from problems import INCONCLUSIVE, STABLE, UNSTABLE

#: relative residual of A'P + PA + Q, the program's documented default
RESIDUAL_RTOL = 1e-8
#: relative distance of P from scipy.linalg.solve_continuous_lyapunov
REFERENCE_RTOL = 1e-6
#: lambda_min(P) >= -PSD_RTOL * ||P|| counts as positive semidefinite
PSD_RTOL = 1e-9


def check(problem, cert_text):
    """List of the ways ``cert_text`` is wrong for ``problem`` (empty if
    the certificate is right)."""
    cert = json.loads(cert_text)
    errors = []
    expect = problem["expect"]
    if cert["verdict"] != expect:
        errors.append(f"verdict {cert['verdict']}, built as {expect}")
    l2 = cert["detectability"]["l2"]
    if l2 != (expect != INCONCLUSIVE):
        errors.append(f"detectability l2={l2} for a {problem['kind']} problem")
    has_t0 = "t0" in json.loads(problem["text"])
    if (cert["eps_star"] is None) == has_t0:
        errors.append("eps_star present iff t0 is given")

    P = cert["P"]
    if problem["kind"] in ("undetectable", "resonant"):
        if P is not None:
            errors.append(f"a {problem['kind']} problem carries a solution P")
        if problem["kind"] == "resonant" and cert["method"] != "spectral-only":
            errors.append(f"resonant spectrum certified by {cert['method']}")
        return errors
    if P is None:
        return errors + ["no solution P"]

    A, Q = problem["A"], problem["Q"]
    P = np.array(P, dtype=float)
    scale = max(float(np.linalg.norm(Q)), 1e-300)
    residual = float(np.linalg.norm(A.T @ P + P @ A + Q))
    if residual > RESIDUAL_RTOL * scale:
        errors.append(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g} * ||Q||")
    reference = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
    gap = float(np.linalg.norm(P - reference)) / max(float(np.linalg.norm(reference)), 1.0)
    if gap > REFERENCE_RTOL:
        errors.append(f"P differs from the Bartels-Stewart solution by {gap:.3e}")

    lam = np.linalg.eigvalsh(0.5 * (P + P.T))
    tol = PSD_RTOL * max(abs(lam[0]), abs(lam[-1]))
    if cert["verdict"] == STABLE:
        if lam[0] < -tol:
            errors.append(f"stable P is not PSD: lambda_min {lam[0]:.3e}")
        growth = cert["growth"] or {}
        M, eps = growth.get("M"), growth.get("eps")
        if M is None or not M >= 1.0:
            errors.append(f"growth M={M} is below 1")
        if eps is None or not 0.0 < eps <= -problem["alpha"]:
            errors.append(f"growth eps={eps} outside (0, {-problem['alpha']:g}]")
    elif cert["verdict"] == UNSTABLE:
        if not lam[0] < -tol or not lam[-1] > tol:
            errors.append(f"unstable P is not indefinite: "
                          f"spectrum [{lam[0]:.3e}, {lam[-1]:.3e}]")
    return errors


def self_test(problem, cert_text):
    """The checker must pass a right certificate and reject a flipped
    verdict and a perturbed P.  Raises AssertionError otherwise."""
    if check(problem, cert_text):
        raise AssertionError(f"checker rejects a right certificate: "
                             f"{check(problem, cert_text)}")
    cert = json.loads(cert_text)
    flipped = dict(cert, verdict=UNSTABLE if cert["verdict"] == STABLE else STABLE)
    if not check(problem, json.dumps(flipped)):
        raise AssertionError("checker accepts a flipped verdict")
    P = np.array(cert["P"])
    P[0, 0] += 1e-3 * np.linalg.norm(P)
    if not check(problem, json.dumps(dict(cert, P=P.tolist()))):
        raise AssertionError("checker accepts a perturbed P")


def envelope_ratio(A, M, eps, points=3001, span=30.0):
    """sup of ||e^{tA}||_2 e^{eps t} / M over t in [0, span/eps] on a uniform
    grid; above 1 means the certified envelope M e^{-eps t} is exceeded."""
    horizon = span / eps
    dt = horizon / (points - 1)
    F = scipy.linalg.expm(dt * A)
    E = np.eye(A.shape[0])
    worst = 1.0 / M
    for k in range(1, points):
        E = E @ F
        worst = max(worst, float(np.linalg.norm(E, 2)) * np.exp(eps * k * dt) / M)
    return worst
