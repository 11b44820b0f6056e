"""Lyapunov generator, implemented/tensor semigroups, projective duality.

The Lyapunov generator L_A : P -> A'P + PA acts on Sym(n); its semigroup
T(t)P = e^{tA'} P e^{tA} is the adjoint of the tensor semigroup
x tensor y -> (e^{tA} x) tensor (e^{tA} y) under the trace pairing
<<P, x tensor y>> = <Px, y>.  A tensor of R^n tensor R^n is its n x n
coefficient grid R, R[i, j] the coefficient of e_i tensor e_j; the PSD
split R = R+ - R- is cones.decompose_pm.  This module realizes both
semigroups, the matrix of L_A on the orthonormal Sym(n) coordinates of
linalg.sym_to_vec, the projective tensor norms, the symmetric calculus,
the RKHS factorization Q = C'C, and two independent Lyapunov solvers:
-L_A^{-1}Q by Bartels-Stewart on the real Schur form of A' (a
linalg.SchurForm a caller may pass in place of A), and the integral of
the implemented semigroup by horizon doubling.
"""

import math
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionError,
    DivergenceError,
    InternalInconsistencyError,
    NotPsdError,
    NumericalError,
    ResonantSpectrumError,
)
from .linalg import (
    PSD_RTOL,
    NormInterval,
    SchurForm,
    _duality_vec,
    _induced_norm_upper,
    as_matrix,
    as_square,
    as_vector,
    check_exponent,
    check_symmetric,
    dual_exponent,
    expm,
    gramian_doubling,
    induced_norm,
    nuclear_norm,
    schur_form,
    spectral_abscissa,  # noqa: F401 (kept importable from this module)
    spectrum_is_psd,
    sym_dim,
    sym_index,
    vector_norm,
)

__all__ = [
    "LyapunovOperator",
    "monomial",
    "lyap_apply",
    "implemented_apply",
    "tensor_semigroup_apply",
    "pairing",
    "projective_norm",
    "symmetric_project",
    "grothendieck_decompose",
    "rkhs_factor",
    "lyap_solve_direct",
    "lyap_solve_integral",
]

#: |lambda_i + lambda_j| below this is a resonant (singular) Lyapunov operator
RESONANCE_TOL = 1e-10
#: rkhs_factor keeps the eigenpairs of Q with lambda >= RANK_TOL * lambda_max
RANK_TOL = 1e-12
#: lyap_solve_direct's backward-error gate: the Frobenius residual
#: ||A'P + PA + Q|| may be at most RESIDUAL_RTOL (2 ||A|| ||P|| + ||Q||)
RESIDUAL_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------

def monomial(x, y):
    """The rank-one tensor x tensor y: the grid outer(x, y)."""
    x = as_vector(x, name="x")
    y = as_vector(y, len(x), name="y")
    return np.outer(x, y)


def pairing(P, R):
    """<<P, R>> = sum_ij R[i,j] (P e_i)_j = trace(P @ R).

    On monomials this is <Px, y>."""
    P = as_square(P, "P")
    R = as_square(R, "R")
    if P.shape != R.shape:
        raise DimensionError(f"P is {P.shape}, tensor grid {R.shape}")
    return float(np.trace(P @ R))


def symmetric_project(R):
    """Project onto the symmetric tensors: R <- (R + R')/2."""
    R = as_square(R, "R")
    return 0.5 * (R + R.T)


def grothendieck_decompose(R):
    """Symmetric tensors decompose as sum_i a_i u_i tensor u_i.

    Returns eigenpairs (a_i, u_i) of the grid R, which must pass
    check_symmetric, descending in a_i, with a deterministic sign
    convention.  Grouping signs gives the split of cones.decompose_pm.
    """
    R = check_symmetric(R, "R")
    lam, U = np.linalg.eigh(R)
    order = np.argsort(lam)[::-1]
    out = []
    for k in order:
        u = U[:, k].copy()
        nz = np.flatnonzero(np.abs(u) > 1e-12 * np.abs(u).max())
        if nz.size and u[nz[0]] < 0:
            u = -u
        out.append((float(lam[k]), u))
    return out


# ---------------------------------------------------------------------------
# Implemented and tensor semigroups
# ---------------------------------------------------------------------------

def lyap_apply(A, P):
    """Lyapunov generator action A'P + PA (transpose realizes the adjoint)."""
    A = as_square(A, "A")
    P = check_symmetric(P, "P")
    if P.shape != A.shape:
        raise DimensionError(f"P must match A, got {P.shape} vs {A.shape}")
    out = A.T @ P + P @ A
    return 0.5 * (out + out.T)


def implemented_apply(A, V, t, P):
    """Implemented semigroup e^{tV'} P e^{tA}.

    With V = A and symmetric P this is the Lyapunov semigroup
    T(t)P = e^{tA'} P e^{tA}, a positive map on Sym(n)."""
    A = as_square(A, "A")
    V = as_square(V, "V")
    P = as_matrix(P, "P")
    if V.shape[0] != P.shape[0] or P.shape[1] != A.shape[0]:
        raise DimensionError(
            f"shape mismatch: V {V.shape}, P {P.shape}, A {A.shape}"
        )
    return expm(V, t).T @ P @ expm(A, t)


def tensor_semigroup_apply(A, V, t, R):
    """Tensor semigroup on coefficient grids: R -> e^{tA} R e^{tV'}.

    Monomials map as x tensor y -> (e^{tA} x) tensor (e^{tV} y); this is
    the pre-adjoint of implemented_apply under the trace pairing."""
    A = as_square(A, "A")
    V = as_square(V, "V")
    R = as_square(R, "R")
    if A.shape != R.shape or V.shape != R.shape:
        raise DimensionError("generator dimensions do not match the tensor")
    return expm(A, t) @ R @ expm(V, t).T


class LyapunovOperator:
    """The generator P -> A'P + PA as a matrix on Sym(n) coordinates.

    Column c of ``matrix`` holds the sym_to_vec coordinates of the image of
    the c-th orthonormal basis element.  The entries are formed directly
    from A, each with at most one rounding: column e_k e_k' holds 2 a_kk at
    its own row and sqrt(2) a_km at the row of (k, m); column
    (e_k e_l' + e_l e_k') / sqrt(2) holds a_kk + a_ll at its own row,
    sqrt(2) a_lk and sqrt(2) a_kl at the diagonal rows k and l, and a_lm
    and a_km at the rows of (k, m) and (l, m) for every other m.
    """

    def __init__(self, A):
        self.A = as_square(A, "A")

    @property
    def n(self):
        return self.A.shape[0]

    @cached_property
    def matrix(self):
        n = self.n
        A = self.A
        d = sym_dim(n)
        index = sym_index(n)
        root2 = math.sqrt(2.0)
        L = np.zeros((d, d))
        # columns e_k e_k'
        diag = np.arange(n)
        L[diag, diag] = 2.0 * np.diag(A)
        k, m = np.nonzero(~np.eye(n, dtype=bool))
        L[index[k, m], k] = root2 * A[k, m]
        # columns (e_k e_l' + e_l e_k') / sqrt(2), k < l
        k, l = np.triu_indices(n, 1)
        c = index[k, l]
        L[c, c] = A[k, k] + A[l, l]
        L[k, c] = root2 * A[l, k]
        L[l, c] = root2 * A[k, l]
        other = (diag != k[:, None]) & (diag != l[:, None])
        k, l, m = (np.broadcast_to(v, other.shape)[other]
                   for v in (k[:, None], l[:, None], diag))
        c = index[k, l]
        L[index[k, m], c] = A[l, m]
        L[index[l, m], c] = A[k, m]
        return L


# ---------------------------------------------------------------------------
# Projective tensor norm
# ---------------------------------------------------------------------------

def projective_norm(R, p=2.0):
    """pi(R) = inf sum ||x_i||_p ||y_i||_p over decompositions, p >= 1.

    Exact for p = 2 (nuclear norm of the grid) and p = 1 (entrywise
    absolute sum); any other exponent returns a certified NormInterval
    (upper bound from explicit decompositions, lower bound from the
    duality with explicit operators P: E_ij, the duality-map outer products
    of the singular pairs and sign(R'); no sampling).
    """
    R = as_square(R, "R")
    p = check_exponent(p)
    if p == 2.0:
        return nuclear_norm(R)
    if p == 1.0:
        return float(np.abs(R).sum())
    return _projective_interval(R, p)


def _projective_interval(R, p):
    n, m = R.shape

    # upper bounds: any explicit decomposition sum ||x_k|| ||y_k||
    U, sig, Vt = np.linalg.svd(R)
    uppers = [
        sum(
            s * vector_norm(U[:, k], p) * vector_norm(Vt[k, :], p)
            for k, s in enumerate(sig)
        ),
        float(np.abs(R).sum()),  # entrywise e_i tensor e_j pieces
        sum(vector_norm(R[i, :], p) for i in range(n)),  # row peeling
        sum(vector_norm(R[:, j], p) for j in range(m)),  # column peeling
    ]
    upper = min(uppers)

    # lower bounds: trace(P R) / ||P||_{p->q} for explicit P
    lower = float(np.abs(R).max())  # E_ij candidates have norm exactly 1
    # norm comparison: ||x||_p >= c ||x||_2 termwise bounds any l_p
    # decomposition cost below by c_x c_y times the exact l_2 (nuclear) norm
    c_x = 1.0 if p <= 2.0 else n ** (1.0 / p - 0.5)
    c_y = 1.0 if p <= 2.0 else m ** (1.0 / p - 0.5)
    lower = max(lower, c_x * c_y * float(sig.sum()))
    for k in range(len(sig)):
        if sig[k] <= 0:
            continue
        P = np.outer(_duality_vec(Vt[k, :], p), _duality_vec(U[:, k], p))
        lower = max(lower, float(np.trace(P @ R)))  # ||P||_{p->q} <= 1 exactly
    P = np.sign(R.T)
    ub = _induced_norm_upper(P, p, dual_exponent(p))
    if ub > 0:
        lower = max(lower, float(np.trace(P @ R)) / ub)
    return NormInterval(lower=min(lower, upper), upper=upper)


# ---------------------------------------------------------------------------
# RKHS factorization and Lyapunov solvers
# ---------------------------------------------------------------------------

def rkhs_factor(Q):
    """Spectral factor C with C'C = Q for PSD Q.

    Rows of C span the reproducing-kernel coordinates of Q; eigenpairs
    with lambda < RANK_TOL * lambda_max are truncated, so C has
    numerical-rank-many rows and ||C'C - Q|| <= n * RANK_TOL * lambda_max.
    Q counts as PSD down to lambda_min >= -PSD_RTOL * max |lambda|.
    """
    Q = check_symmetric(Q, "Q")
    lam, U = np.linalg.eigh(Q)
    lam_max = float(lam[-1])
    if not spectrum_is_psd(lam, PSD_RTOL):
        raise NotPsdError(
            f"Q is not PSD: lambda_min = {lam[0]:.3e}"
        )
    if lam_max <= 0.0:
        return np.zeros((0, Q.shape[0]))
    keep = np.flatnonzero(lam >= RANK_TOL * lam_max)[::-1]  # descending
    return (np.sqrt(lam[keep])[:, None]) * U[:, keep].T


def output_map(C, Q):
    """The output map of a right-hand side: C when given, else the RKHS
    factor of Q (C'C = Q) padded to one zero row when Q has rank 0."""
    if C is not None:
        return C
    C = rkhs_factor(Q)
    if C.shape[0] == 0:
        C = np.zeros((1, Q.shape[0]))  # C'C unchanged
    return C


def _check_nonresonant(w):
    """Raise on the first pair (i <= j, row-major) of the eigenvalues w,
    taken in np.sort_complex order, with lambda_i + lambda_j = 0."""
    w = np.sort_complex(w)
    resonant = np.triu(np.abs(w[:, None] + w[None, :]) < RESONANCE_TOL)
    if resonant.any():
        i, j = (int(k[0]) for k in np.nonzero(resonant))
        raise ResonantSpectrumError(
            f"resonant spectrum: lambda_{i} + lambda_{j} = {w[i] + w[j]:.3e}",
            pair=(complex(w[i]), complex(w[j])),
        )


def lyap_solve_direct(A, Q):
    """Solve A'P + PA = -Q by Bartels-Stewart on the real Schur form of A'.

    ``A`` is the generator or its linalg.SchurForm; a caller that holds the
    form passes it, and the form is built here otherwise.  The Schur solve
    is followed by one refinement step on its residual, through the same
    form; P passes the fixed backward-error gate
    ||A'P + PA + Q|| <= RESIDUAL_RTOL (2 ||A|| ||P|| + ||Q||) (Frobenius).
    Raises ResonantSpectrumError when some eigenvalue pair of A sums to
    zero, carrying the offending pair, and NumericalError when P is not
    finite.
    """
    form = A if isinstance(A, SchurForm) else schur_form(A)
    A = form.A
    Q = check_symmetric(Q, "Q")
    if Q.shape != A.shape:
        raise DimensionError(f"Q must match A, got {Q.shape} vs {A.shape}")
    _check_nonresonant(form.w)
    P = np.zeros_like(Q)
    # an overflowing step leaves a non-finite P, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):  # the Schur solve, then one step on its residual
            D = form.solve(-(lyap_apply(A, P) + Q))
            P = P + 0.5 * (D + D.T)
    if not np.all(np.isfinite(P)):
        raise NumericalError("Lyapunov solve: P is not finite")
    # rounding alone leaves a residual of about eps ||A|| ||P||
    residual = vector_norm(A.T @ P + P @ A + Q, 2)
    scale = 2.0 * vector_norm(A, 2) * vector_norm(P, 2) + vector_norm(Q, 2)
    if residual > RESIDUAL_RTOL * scale:
        raise InternalInconsistencyError(
            "Lyapunov solve residual too large",
            diagnostics={"residual": residual, "scale": scale},
        )
    return P


#: the integral stops once a doubling adds less than this, relative to W(t)
INTEGRAL_RTOL = 1e-12
#: doublings of the initial step before the integral counts as divergent
MAX_DOUBLINGS = 64


def lyap_solve_integral(A, Q):
    """P = int_0^inf e^{tA'} Q e^{tA} dt by linalg.gramian_doubling.

    Doubles from h = 1/(1 + ||A||_1) until an increment W(2t) - W(t), each
    checked PSD, is below INTEGRAL_RTOL * ||W(t)||.  Raises DivergenceError
    when W(t) or e^{tA} overflows (unstable A; named by t) or has not
    converged after MAX_DOUBLINGS doublings (marginal A).
    """
    A = as_square(A, "A")
    Q = check_symmetric(Q, "Q")
    lam_q = np.linalg.eigvalsh(Q)
    if not spectrum_is_psd(lam_q, PSD_RTOL):
        raise NotPsdError(f"Q is not PSD: lambda_min = {lam_q[0]:.3e}")
    step = 1.0 / (1.0 + induced_norm(A, 1, 1))
    P = np.zeros_like(Q)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t, W) in zip(range(MAX_DOUBLINGS + 1), gramian_doubling(A, Q, step)):
            # the norm can overflow while every entry is finite
            w_norm = vector_norm(W, 2)
            if not math.isfinite(w_norm):
                raise DivergenceError(f"integral diverges: W(t) overflows at t = {t:.3e}")
            inc = W - P
            lam_min_inc = float(np.linalg.eigvalsh(inc)[0])
            if lam_min_inc < -1e-12 * max(w_norm, 1.0):
                raise InternalInconsistencyError(
                    "integral increment not PSD: partial sums must be monotone",
                    diagnostics={"step": k, "lambda_min": lam_min_inc},
                )
            P = W
            if vector_norm(inc, 2) <= INTEGRAL_RTOL * w_norm:
                return 0.5 * (P + P.T)
    if k < MAX_DOUBLINGS:  # gramian_doubling stopped on e^{tA}
        reason = f": e^{{tA}} overflows at t = {t:.3e} after {k} doublings"
    else:
        reason = f" within {MAX_DOUBLINGS} doublings (horizon t = {t:.3e})"
    raise DivergenceError(f"integral did not converge{reason}")
