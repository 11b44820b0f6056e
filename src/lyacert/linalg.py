"""Deterministic dense linear algebra kernel.

Matrix exponentials, exact block-augmented time integrals, spectral
quantities (among them the real Schur form that one certificate shares),
induced and nuclear norms, and the orthonormal coordinates on Sym(n) used
by the Lyapunov machinery.  Everything here is a pure function of its
inputs.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, NotStableError, NumericalError

__all__ = [
    "GrowthBound",
    "NormInterval",
    "SchurForm",
    "as_matrix",
    "as_square",
    "as_vector",
    "check_symmetric",
    "check_time",
    "check_exponent",
    "vector_norm",
    "dual_exponent",
    "expm",
    "integral_exp",
    "cesaro_integral",
    "gramian_integral",
    "gramian_doubling",
    "spectral_abscissa",
    "schur_form",
    "spectrum_is_psd",
    "growth_fit",
    "induced_norm",
    "nuclear_norm",
    "sym_basis",
    "sym_to_vec",
    "vec_to_sym",
    "sym_dim",
    "sym_index",
]

#: eigenvalues with Re >= -DECAY_TOL count as non-decaying (conservative)
DECAY_TOL = 1e-9
#: exponential stability means a spectral abscissa below -ABSCISSA_TOL
ABSCISSA_TOL = 1e-10
#: the slack for calling a solution P or a right-hand side Q PSD:
#: lambda_min >= -PSD_RTOL * max |lambda| (spectrum_is_psd)
PSD_RTOL = 1e-9
#: steps of the p-norm power iteration behind an induced-norm lower bound
POWER_STEPS = 5
#: up to this many columns an (inf, p) norm is the exact vertex maximum; a
#: cost cap: on one core that costs at most the power iteration's enclosure
#: up to 11 columns (0.10 vs 0.29 ms) and 2.3x it at 12
VERTEX_MAX_COLS = 11


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthBound:
    """Exponential envelope ||e^{tA}||_2 <= M * exp(-eps * t) for all t >= 0."""

    M: float
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.M) and self.M >= 1.0):
            raise ValueError(f"growth constant must satisfy M >= 1, got {self.M}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"decay rate must be positive, got {self.eps}")


class NormInterval(NamedTuple):
    """Certified enclosure [lower, upper] of a norm with no closed form
    (lower == upper where the pair has one on some shapes only)."""

    lower: float
    upper: float

    @property
    def ratio(self):
        return self.upper / self.lower if self.lower > 0 else math.inf


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_square(a, name="matrix"):
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(x, dim=None, name="vector"):
    v = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionError(f"{name} must have length {dim}, got {v.size}")
    return v


def check_symmetric(a, name="matrix"):
    """Validate symmetry within 1e-12 * max |m_ij| and return the
    symmetrized matrix.

    The bound is relative at every scale, so a tiny grid is held to the
    same test as a unit one.  Exactly symmetric entries are kept bit for
    bit; the others are averaged as 0.5 m + 0.5 m', which cannot overflow."""
    m = as_square(a, name)
    scale = np.abs(m).max()
    defect = np.abs(m - m.T).max()
    if defect > 1e-12 * scale:
        raise ValueError(
            f"{name} is not symmetric: defect {defect:.3e} exceeds 1e-12 * scale"
        )
    return np.where(m == m.T, m, 0.5 * m + 0.5 * m.T)


def check_time(t, name="time", positive=False):
    """float(t), which must be finite and >= 0 (> 0 when ``positive``)."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {t}")
    if t < 0.0 or (positive and t == 0.0):
        need = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {need}, got {t}")
    return t


def check_exponent(p, name="p"):
    """float(p) for an l_p norm exponent, which must satisfy p >= 1 (inf is
    allowed, NaN is not): the one exponent check of every norm here."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"norm exponent {name} must satisfy p >= 1, got {p}")
    return p


def vector_norm(x, p):
    """l_p norm, p in [1, inf], scaled as in _lp_norms: it overflows or
    underflows only where the norm itself does."""
    p = check_exponent(p)
    return float(_lp_norms(np.asarray(x, dtype=float).ravel(), p, axis=None))


def _lp_norms(X, p, axis=0):
    """Column l_p norms of X (axis=None: of the vector X), of an exponent
    already checked.  For p in {1, 2, inf}, 2^k ||2^-k x||_p with 2^k the
    binade of max |x_i|, which is exact; for any other p, m ||x / m||_p with
    m = max |x_i|, whose largest entry adds exactly 1 to the sum of powers,
    so that no p, however large, underflows the sum to 0."""
    m = np.max(np.abs(X), axis=axis, keepdims=True, initial=0.0)
    if p in (1.0, 2.0, math.inf):
        k = np.frexp(m)[1]
        return np.ldexp(np.linalg.norm(np.ldexp(X, -k), ord=p, axis=axis), k.squeeze(axis))
    m = np.where(m > 0.0, m, 1.0)
    return m.squeeze(axis) * np.linalg.norm(X / m, ord=p, axis=axis)


def _duality_vec(X, p):
    """The l_p duality map j, column by column (or on the vector X):
    <j(x), x> = ||x||_p and ||j(x)||_q = 1, with j(0) = 0."""
    if math.isinf(p):  # sign(x_i) e_i at the first largest |x_i|
        return np.eye(len(X))[np.argmax(np.abs(X), axis=0)].T * np.sign(X)
    nx = _lp_norms(X, p)
    return np.sign(X) * np.abs(X / np.where(nx > 0.0, nx, 1.0)) ** (p - 1.0)


# ---------------------------------------------------------------------------
# Matrix exponential and exact time integrals
# ---------------------------------------------------------------------------

def expm(A, t=1.0):
    """e^{tA} by scaling-and-squaring with the degree-13 Pade approximant.

    Parameters
    ----------
    A : (n, n) array_like
        Generator.
    t : float
        Nonnegative time (t = 0 returns the identity exactly).
    """
    A = as_square(A, "A")
    t = check_time(t)
    if t == 0.0:
        return np.eye(A.shape[0])
    return scipy.linalg.expm(t * A)


def integral_exp(A, t):
    """Integrated semigroup S(t) = int_0^t e^{sA} ds, computed exactly.

    Uses the top-right block of exp(t * [[A, I], [0, 0]]); no quadrature.
    """
    return _iterated_integral(A, t, 1)


def cesaro_integral(A, t):
    """int_0^t S(tau) dtau via a doubly augmented block exponential.

    Top-right block of exp(t * [[A, I, 0], [0, 0, I], [0, 0, 0]]); the
    caller divides by t for the Cesaro average.
    """
    return _iterated_integral(A, t, 2)


def _iterated_integral(A, t, k):
    """k-fold time integral of e^{sA} over [0, t]: the top-right n x n block
    of exp(t M), M = A in the first diagonal block and identities on the k
    blocks above the diagonal (zero at t = 0)."""
    A = as_square(A, "A")
    t = check_time(t)
    n = A.shape[0]
    if t == 0.0:
        return np.zeros((n, n))
    M = np.zeros(((k + 1) * n, (k + 1) * n))
    M[:n, :n] = A
    for j in range(k):
        M[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = np.eye(n)
    E = scipy.linalg.expm(t * M)
    return E[:n, k * n :]


def gramian_integral(A, Q, t):
    """W(t) = int_0^t e^{sA'} Q e^{sA} ds via the 2n-block exponential.

    With E = exp(t * [[-A', Q], [0, A]]) partitioned into n x n blocks,
    W(t) = E22' @ E12 (Van Loan's construction); exact up to expm accuracy.
    """
    return _van_loan(A, Q, t)[0]


def _van_loan(A, Q, t):
    """(W(t), e^{tA}) from gramian_integral's exponential E: e^{tA} = E22."""
    A = as_square(A, "A")
    Q = as_square(Q, "Q")
    if Q.shape != A.shape:
        raise DimensionError(f"Q must match A, got {Q.shape} vs {A.shape}")
    t = check_time(t)
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -A.T
    M[:n, n:] = Q
    M[n:, n:] = A
    E = scipy.linalg.expm(t * M)
    W = E[n:, n:].T @ E[:n, n:]
    return 0.5 * (W + W.T), E[n:, n:]


def gramian_doubling(A, Q, t):
    """Yield (t, W(t)) at t, 2t, 4t, ... by W(2t) = W(t) + e^{tA'} W(t) e^{tA}
    (squared Smith iteration), from the one exponential that gives W(t) and
    e^{tA} (gramian_integral's); ends after the first non-finite W or e^{tA}."""
    W, E = _van_loan(A, Q, t)
    while True:
        yield t, W
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(E)):
            return
        W = W + E.T @ W @ E
        E = E @ E
        t *= 2.0


# ---------------------------------------------------------------------------
# Spectral quantities
# ---------------------------------------------------------------------------

def spectral_abscissa(A):
    """max Re(lambda) over the spectrum of A, read from schur_form(A): one
    LAPACK gees, the form every spectral question of a certificate reads."""
    return schur_form(A).abscissa


def spectrum_is_psd(lam, rtol, floor=1e-300):
    """Whether ascending eigenvalues lam of a symmetric matrix make it PSD
    up to a relative slack: lam[0] >= -rtol * max(floor, max |lam|)."""
    return bool(lam[0] >= -rtol * max(floor, -float(lam[0]), float(lam[-1])))


@dataclass(frozen=True)
class SchurForm:
    """Real Schur form A' = U T U' of a generator A, with the eigenvalues
    w = wr + i wi of A that LAPACK reads off T's diagonal blocks.

    One form serves every spectral question about A: its abscissa, the
    eigenvalues for the Hautus and resonance tests, and the Bartels-Stewart
    solves of ``solve``."""

    A: np.ndarray
    T: np.ndarray
    U: np.ndarray
    w: np.ndarray

    @property
    def abscissa(self):
        """max Re(lambda) over the spectrum of A."""
        return float(np.max(self.w.real))

    def shift(self, eps):
        """The form of A + eps I: the same U, with T + eps I."""
        eye = np.eye(self.A.shape[0])
        return SchurForm(A=self.A + eps * eye, T=self.T + eps * eye, U=self.U,
                         w=self.w + eps)

    def solve(self, R):
        """X with A'X + XA = R, by one LAPACK trsyl solve of
        T Y + Y T' = U'RU and X = U Y U' (Bartels-Stewart).

        X is not symmetrised.  trsyl's info = 1 (a near-resonant T, solved
        perturbed) is left to the caller's check of X."""
        T, U = self.T, self.U
        trsyl = scipy.linalg.get_lapack_funcs("trsyl", (T,))
        Y, factor, info = trsyl(T, T, U.T.dot(R.dot(U)), tranb="T")
        if info < 0:
            raise NumericalError(f"Lyapunov solve: trsyl argument {-info} is illegal")
        return U.dot(factor * Y).dot(U.T)


def schur_form(A):
    """SchurForm of A from one LAPACK gees call on A' (after its workspace
    query), made as SciPy's real Schur decomposition of A' makes it, so T
    and U match that decomposition bit for bit.

    Raises NumericalError when the QR algorithm does not converge."""
    A = as_square(A, "A")
    gees = scipy.linalg.get_lapack_funcs("gees", (A,))
    no_sort = lambda *_: None  # noqa: E731 (never called: sort_t = 0)
    lwork = int(gees(no_sort, A.T, lwork=-1)[-2][0].real)
    T, _, wr, wi, U, _, info = gees(no_sort, A.T, lwork=lwork)
    if info != 0:
        raise NumericalError(f"Schur form of shape {A.shape} failed: gees info {info}")
    return SchurForm(A=A, T=T, U=U, w=wr + 1j * wi)


#: safety margin between the spectral bound and the envelope's decay rate
GROWTH_MARGIN = 0.05

#: c / mu for the candidate P_c = I + c P_I in growth_fit: c must exceed mu,
#: and kappa(P_c) grows with c
LOGNORM_SLACK = 1.01


def growth_fit(form):
    """Envelope ||e^{tA}||_2 <= M e^{-eps t} for all t >= 0, from the
    SchurForm of A.

    eps = 0.95 |alpha| with alpha the form's abscissa.  With A_eps = A +
    eps I, any P > 0 with R = A_eps'P + P A_eps <= 0 bounds the envelope by
    M = sqrt(kappa(P)): for y = e^{t A_eps} x, d/dt y'Py = y'Ry <= 0, so
    lambda_min(P) |y|^2 <= y'Py <= x'Px <= lambda_max(P) |x|^2, and
    e^{tA} = e^{-eps t} e^{t A_eps}.

    If mu = lambda_max(A_eps + A_eps') <= 0, P = I qualifies and M = 1 (the
    logarithmic-norm bound, taken by every normal A).  Otherwise one
    Lyapunov solve A_eps'P_I + P_I A_eps = -I on the shifted form
    T + eps I gives two candidates, P_I and P_c = I + c P_I with c just
    above mu, whose R is A_eps + A_eps' - cI.  A candidate counts only if
    R, computed from A_eps and the back-transformed P, has
    lambda_max < 0 and its lambda_min(P) > 0; M is the smaller sqrt(kappa).

    Raises
    ------
    NotStableError
        If the spectral abscissa is not negative.
    NumericalError
        If neither candidate passes its check.
    """
    alpha = form.abscissa
    if alpha >= 0.0:
        raise NotStableError(f"generator is not stable: spectral abscissa {alpha:.3e}")
    eps = -alpha * (1.0 - GROWTH_MARGIN)
    shifted = form.shift(eps)
    A_eps = shifted.A
    n = A_eps.shape[0]
    mu = float(np.linalg.eigvalsh(A_eps + A_eps.T)[-1])
    if mu <= 0.0:
        return GrowthBound(M=1.0, eps=eps)
    P_I = shifted.solve(-np.eye(n))
    P_I = 0.5 * (P_I + P_I.T)
    if not np.all(np.isfinite(P_I)):
        raise NumericalError(f"shifted Lyapunov solve is not finite (eps {eps:.3e})")
    kappa = math.inf
    for P in (P_I, np.eye(n) + LOGNORM_SLACK * mu * P_I):
        AP = A_eps.T @ P  # R = AP + AP' as P is symmetric
        lam = np.linalg.eigvalsh(P)
        if np.linalg.eigvalsh(AP + AP.T)[-1] < 0.0 and lam[0] > 0.0:
            kappa = min(kappa, lam[-1] / lam[0])
    if not math.isfinite(kappa):
        raise NumericalError(
            f"no shifted Lyapunov solution passed its check (eps {eps:.3e})"
        )
    return GrowthBound(M=max(1.0, math.sqrt(kappa)), eps=eps)


# ---------------------------------------------------------------------------
# Induced and nuclear norms
# ---------------------------------------------------------------------------

def dual_exponent(p):
    """q with 1/p + 1/q = 1 (q = inf when p = 1, q = 1 when p = inf)."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def induced_norm(M, p_from, p_to):
    """Operator norm of M : (R^cols, l_{p_from}) -> (R^rows, l_{p_to}).

    Exact closed forms: (1,1) max column sum, (2,2) largest singular value,
    (inf,inf) max row sum, p_from = 1 (max column l_{p_to} norm), and
    p_to = inf (max row l_{dual(p_from)} norm).  Any other pair returns a
    certified NormInterval, never a point estimate: the upper bound from
    norm interpolation, the lower bound after POWER_STEPS p-norm power steps
    x <- j_q(M' j_p(Mx)) (Higham, Numer. Math. 62, 1992) from e_j, the top
    right singular vector and the ones vector, with no sampling.  For
    p_from = inf and at most VERTEX_MAX_COLS columns the interval is the
    norm itself, [v, v]: the convex ||Mx|| peaks over the cube at a vertex,
    so v is the largest ||Mx|| over the 2^(cols-1) sign vectors x up to +-x.
    """
    M = as_matrix(M, "M")
    pf, pt = check_exponent(p_from, "p_from"), check_exponent(p_to, "p_to")

    if pf == 1.0:  # extreme points of the l1 ball are +-e_j
        return float(_lp_norms(M, pt).max())
    if math.isinf(pt):
        return float(_lp_norms(M.T, dual_exponent(pf)).max())
    if pf == 2.0 and pt == 2.0:
        return float(np.linalg.norm(M, 2))
    if math.isinf(pf) and M.shape[1] <= VERTEX_MAX_COLS:
        return _vertex_norm(M, pt)
    return _induced_norm_interval(M, pf, pt)


def _vertex_norm(M, pt):
    """||M||_{inf -> pt} as the degenerate NormInterval [v, v]: the convex
    ||Mx||_pt peaks over the cube at a vertex, so v is the largest
    ||Mx||_pt over the 2^(cols-1) sign vectors x with x_1 = 1."""
    n = M.shape[1]
    signs = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    X = np.hstack([np.ones((len(signs), 1)), 1.0 - 2.0 * signs]).T
    v = float(_lp_norms(M @ X, pt).max())
    return NormInterval(lower=v, upper=v)


def _induced_norm_upper(M, pf, pt):
    """Valid upper bounds for ||M||_{pf -> pt}; the smallest wins."""
    n_cols, n_rows = M.shape[1], M.shape[0]
    sigma = float(np.linalg.norm(M, 2))
    # route through l2: ||x||_2 <= n^{max(0,1/2-1/pf)} ||x||_pf, and back
    c_in = n_cols ** max(0.0, 0.5 - (0.0 if math.isinf(pf) else 1.0 / pf))
    c_out = n_rows ** max(0.0, (0.0 if math.isinf(pt) else 1.0 / pt) - 0.5)
    bounds = [c_in * c_out * sigma]
    if pf == pt:
        # Riesz-Thorin between the exact (1,1) and (inf,inf) endpoints, as
        # ninf (n1/ninf)^theta: n1^theta ninf^(1-theta) is |ln ninf| ulps off
        n1 = float(np.abs(M).sum(axis=0).max())
        ninf = float(np.abs(M).sum(axis=1).max())
        theta = 0.0 if math.isinf(pf) else 1.0 / pf
        bounds.append(ninf * (n1 / ninf) ** theta if ninf > 0.0 else 0.0)
    return min(bounds)


def _induced_norm_interval(M, pf, pt):
    upper = _induced_norm_upper(M, pf, pt)
    n = M.shape[1]
    # e_j, the top right singular vector (near-optimal for nearby p) and ones
    X = np.column_stack([np.eye(n), np.linalg.svd(M)[2][0], np.ones(n)])
    for _ in range(POWER_STEPS):  # Higham's step: ||Mx|| / ||x|| cannot decrease
        X = _duality_vec(M.T @ _duality_vec(M @ X, pt), dual_exponent(pf))
    nx = _lp_norms(X, pf)
    ratio = np.divide(_lp_norms(M @ X, pt), nx, out=np.zeros_like(nx), where=nx > 0)
    return NormInterval(lower=min(float(ratio.max()), upper), upper=upper)


def nuclear_norm(M):
    """Sum of singular values (trace norm)."""
    M = as_matrix(M, "M")
    try:
        return float(np.linalg.svd(M, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on shape {M.shape}: {exc}") from exc


# ---------------------------------------------------------------------------
# Orthonormal coordinates on Sym(n)
# ---------------------------------------------------------------------------

def sym_dim(n):
    """Dimension of Sym(n)."""
    return n * (n + 1) // 2


def sym_index(n):
    """(n, n) integer array whose entry (p, q) is the sym_to_vec coordinate of
    the pair {p, q}: p for p = q, then n, n + 1, ... for p < q in row-major
    order."""
    index = np.empty((n, n), dtype=np.intp)
    index[np.diag_indices(n)] = np.arange(n)
    i, j = np.triu_indices(n, 1)
    index[i, j] = index[j, i] = np.arange(n, sym_dim(n))
    return index


def sym_basis(n):
    """Orthonormal basis of Sym(n) inside R^{n^2} (column-major vec).

    Columns of the returned (n^2, n(n+1)/2) matrix are vec(E) in the
    coordinate order of sym_to_vec: first E = e_i e_i' for i = 0..n-1, then
    E = (e_i e_j' + e_j e_i') / sqrt(2) for i < j in row-major order;
    orthonormal under the Frobenius inner product.
    """
    d = sym_dim(n)
    B = np.zeros((n * n, d))
    diag = np.arange(n)
    B[diag * (n + 1), diag] = 1.0
    i, j = np.triu_indices(n, 1)
    cols = np.arange(n, d)
    s = 1.0 / math.sqrt(2.0)
    B[i + j * n, cols] = s
    B[j + i * n, cols] = s
    return B


def sym_to_vec(P):
    """Coordinates of a symmetric matrix in the orthonormal Sym(n) basis: the
    diagonal P[i, i], then sqrt(2) P[i, j] for i < j in row-major order."""
    P = check_symmetric(P, "P")
    i, j = np.triu_indices(P.shape[0], 1)
    return np.concatenate([np.diag(P), math.sqrt(2.0) * P[i, j]])


def vec_to_sym(v, n):
    """Inverse of sym_to_vec: the first n coordinates fill the diagonal, the
    rest fill P[i, j] = P[j, i] (i < j, row-major order) scaled by 1/sqrt(2)."""
    v = as_vector(v, sym_dim(n), "coordinates")
    return np.concatenate([v[:n], (1.0 / math.sqrt(2.0)) * v[n:]])[sym_index(n)]
