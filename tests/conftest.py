"""Shared instance generators for the test suite.

All randomness is seeded through numpy Generators so every run is
reproducible; constructed instances keep their decisive eigenvalues well
away from the imaginary axis.
"""

import numpy as np
import pytest

from lyacert.linalg import spectral_abscissa


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) / np.sqrt(n)


def stable_matrix(rng, n, margin=0.3):
    """Random matrix shifted so the spectral abscissa lands in
    [-margin - 0.7, -margin]."""
    A = random_matrix(rng, n)
    shift = spectral_abscissa(A) + margin + rng.uniform(0.0, 0.7)
    return A - shift * np.eye(n)


def unstable_matrix(rng, n, margin=0.2):
    """Random matrix shifted so the spectral abscissa lands in
    [margin, margin + 0.8]."""
    A = random_matrix(rng, n)
    shift = spectral_abscissa(A) - margin - rng.uniform(0.0, 0.8)
    return A - shift * np.eye(n)


def stable_metzler(rng, n):
    """Strictly diagonally dominant Metzler matrix (hence stable)."""
    A = np.abs(rng.standard_normal((n, n)))
    np.fill_diagonal(A, 0.0)
    diag = -(A.sum(axis=1) + rng.uniform(0.1, 1.0, size=n))
    return A + np.diag(diag)


def random_symmetric(rng, n):
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def random_psd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T


def random_observed_pair(rng, n, m, stable=True):
    from lyacert.detect import ObservedPair

    A = stable_matrix(rng, n) if stable else unstable_matrix(rng, n)
    C = rng.standard_normal((m, n))
    return ObservedPair(A=A, C=C)


def undetectable_pair(rng, n, m, k_unstable=1):
    """Pair with an unstable block hidden from the output map.

    A is block-diagonal in a random orthogonal basis; C acts only on the
    stable block's coordinates, so the unstable block is unobservable."""
    from lyacert.detect import ObservedPair

    S, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = k_unstable
    Au = np.diag(rng.uniform(0.2, 1.0, size=k))
    As = stable_matrix(rng, n - k, margin=0.2)
    A_rot = np.zeros((n, n))
    A_rot[:k, :k] = Au
    A_rot[k:, k:] = As
    C_rot = np.zeros((m, n))
    C_rot[:, k:] = rng.standard_normal((m, n - k))
    return ObservedPair(A=S @ A_rot @ S.T, C=C_rot @ S.T)


def slow_decay_problem(alpha, n=6, seed=4):
    """Problem dict of a stable single-output pair with spectral abscissa
    alpha (planted on the diagonal of a real Schur form T, A = S T S'),
    strongly non-normal through the coupling above the diagonal.  With
    seed 4, ||P|| is about 1.3e7 at alpha = -1e-5 and 1.3e8 at -1e-6."""
    rng = np.random.default_rng(seed)
    T = np.triu(rng.standard_normal((n, n)), 1)
    T[np.diag_indices(n)] = [alpha] + list(-rng.uniform(0.2, 1.0, n - 1))
    S, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return {"A": (S @ T @ S.T).tolist(), "C": rng.standard_normal((1, n)).tolist()}


def simpson_matrix_quadrature(f, a, b, nodes):
    """Composite Simpson rule for a matrix-valued function (odd node count)."""
    if nodes % 2 == 0:
        nodes += 1
    ts = np.linspace(a, b, nodes)
    vals = np.array([f(t) for t in ts])
    h = (b - a) / (nodes - 1)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(weights, vals, axes=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def factorizations(monkeypatch):
    """Counts the spectral factorizations made while a test runs.

    ``gees`` counts LAPACK gees Schur factorizations (workspace queries
    excluded), ``eigvals`` holds the argument of every np.linalg.eigvals
    call; scipy.linalg.schur and solve_continuous_lyapunov raise."""
    import scipy.linalg

    counts = {"gees": 0, "eigvals": []}
    get_lapack_funcs = scipy.linalg.get_lapack_funcs
    eigvals = np.linalg.eigvals

    def counted_lapack(names, arrays):
        func = get_lapack_funcs(names, arrays)
        if names != "gees":
            return func

        def gees(*args, **kwargs):
            counts["gees"] += kwargs.get("lwork") != -1
            return func(*args, **kwargs)
        return gees

    def counted_eigvals(a):
        counts["eigvals"].append(np.array(a))
        return eigvals(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second Schur route was called")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_lapack)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
    return counts
