"""Shared instance generators for the test suite.

All randomness is seeded through numpy Generators so every run is
reproducible; constructed instances keep their decisive eigenvalues well
away from the imaginary axis.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from lyacert.linalg import expm, gramian_doubling, spectral_abscissa

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_module(name):
    """benchmarks/<name>.py loaded as a module, read-only, without putting
    benchmarks/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def heat_equation_problem(n=100):
    """Problem dict of the 1-D heat equation on n interior grid points,
    A = (n+1)^2 tridiag(1, -2, 1), observed at the first point; ||A|| is
    about 4(n+1)^2, so the Krylov blocks C A^k overflow for n = 100."""
    A = (n + 1) ** 2 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
                        + np.diag(np.ones(n - 1), -1))
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return {"A": A.tolist(), "C": C.tolist()}


def expm_norms_on_grid(A, horizon, steps):
    """(t_k, ||e^{t_k A}||_2) on the uniform grid t_k = k*horizon/steps,
    k = 0..steps: one expm, then repeated multiplication by e^{dt A}."""
    F = expm(A, horizon / steps)
    mats = np.empty((steps + 1,) + F.shape)
    mats[0] = np.eye(F.shape[0])
    for k in range(1, steps + 1):
        mats[k] = mats[k - 1] @ F
    ts = np.linspace(0.0, horizon, steps + 1)
    return ts, np.linalg.norm(mats, ord=2, axis=(1, 2))


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


def gramian_value_sequence(A, Q, xs):
    """x' W(t) x for each x in xs at t = 1, 2, 4, ..., 256: an independent
    quadrature reference for the exact detectability decisions.

    linalg.gramian_doubling adds PSD terms only, so it stays accurate at
    horizons where one block exponential loses precision.  Divergent
    sequences saturate to non-finite values and are truncated."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    out = [[] for _ in xs]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, W in gramian_doubling(A, Q, 1.0):
            if t > 256.0:
                break
            for i, x in enumerate(xs):
                out[i].append(float(x @ W @ x))
    return out


def classify_integral_values(vals):
    """Finite-vs-divergent verdict for one horizon-doubled value sequence.

    False on any non-finite value or a 1e14-fold blowup over the first
    value; True when the LAST doubling changed the value by under 1%
    (judged at the end of the sequence: a weakly excited unstable mode can
    sit below the stable-mode energy for many doublings, so an early
    near-flat step proves nothing); None when the horizon ran out without
    either."""
    first = None
    for val in vals:
        if not np.isfinite(val):
            return False
        first = first if first is not None else max(val, 1e-300)
        if val > 1e14 * max(first, 1.0):
            return False
    if len(vals) >= 2 and vals[-1] <= vals[-2] * 1.01 + 1e-12 * max(first, 1.0):
        return True
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def perturbed_trsyl(monkeypatch):
    """Every LAPACK trsyl solve returns 1.01 Y: the direct solve and its
    refinement step then leave P = 0.9999 P_true, a relative backward error
    of about 3e-5, far above lyapunov.RESIDUAL_RTOL; gees is unchanged."""
    import scipy.linalg

    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def perturbed(names, arrays):
        trsyl = get_lapack_funcs(names, arrays)
        if names != "trsyl":
            return trsyl

        def scaled(*args, **kwargs):
            Y, factor, info = trsyl(*args, **kwargs)
            return 1.01 * Y, factor, info
        return scaled

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", perturbed)


@pytest.fixture
def factorizations(monkeypatch):
    """Records the spectral factorizations made while a test runs.

    ``gees`` holds the generator A of every LAPACK gees Schur factorization
    (workspace queries excluded; linalg.schur_form factors A', so A is the
    transpose of the argument), ``eigvals`` the argument of every
    np.linalg.eigvals and np.linalg.eig call; scipy.linalg.schur and
    solve_continuous_lyapunov raise."""
    import scipy.linalg

    counts = {"gees": [], "eigvals": []}
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counted_lapack(names, arrays):
        func = get_lapack_funcs(names, arrays)
        if names != "gees":
            return func

        def gees(select, a, **kwargs):
            if kwargs.get("lwork") != -1:
                counts["gees"].append(np.array(a).T)
            return func(select, a, **kwargs)
        return gees

    def recorded(solver):
        def call(a):
            counts["eigvals"].append(np.array(a))
            return solver(a)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("a second Schur route was called")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_lapack)
    monkeypatch.setattr(np.linalg, "eigvals", recorded(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eig", recorded(np.linalg.eig))
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
    return counts
