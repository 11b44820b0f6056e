"""Detectability and observability machinery for observed pairs (C, A).

Hautus, exponential and L2 detectability coincide at finite dimension and
are cross-checked against each other; disagreement raises, never passes
silently.  The L2 decision rests on one reduction: the implication
"int ||C T(t)x||^2 < inf  =>  int ||T(t)x||^2 < inf" holds for all x iff
the restriction of A to the unobservable subspace is stable (for x with an
unstable observable component the premise already fails).  Every test
here is exact: none samples states or horizons.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionError,
    InternalInconsistencyError,
    NoInjectionExistsError,
    NotObserverError,
    NotStableError,
    NumericalError,
)
from .linalg import (
    DECAY_TOL,
    as_matrix,
    as_square,
    as_vector,
    check_time,
    expm,
    gramian_integral,
    schur_form,
    spectral_abscissa,
)
from .lyapunov import lyap_solve_direct

__all__ = [
    "ObservedPair",
    "DetectabilityReport",
    "PiDetectorResult",
    "ObserverAuditReport",
    "hautus_detectable",
    "unobservable_subspace",
    "l2_detectable",
    "stabilizing_output_injection",
    "observability_gramian",
    "final_observability_constant",
    "FinalObservability",
    "final_observability",
    "pi_detector_check",
    "observer_implies_detector_audit",
    "detectability_report",
    "duhamel_residual",
]


@dataclass(frozen=True)
class ObservedPair:
    """State generator A with output map C into an m-dimensional space.

    ``schur`` is the real Schur form of A (linalg.SchurForm), built on first
    use and shared by every test and solve on the pair."""

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = as_square(self.A, "A")
        C = as_matrix(self.C, "C")
        if C.shape[1] != A.shape[0]:
            raise DimensionError(
                f"C must have {A.shape[0]} columns, got {C.shape[1]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.C.shape[0]

    @cached_property
    def Q(self):
        """Q = C'C, PSD by construction."""
        return self.C.T @ self.C

    @cached_property
    def schur(self):
        return schur_form(self.A)


def hautus_detectable(pair):
    """Rank test: for every eigenvalue with Re >= -DECAY_TOL, the stacked
    matrix [A - lambda I; C] must have full column rank
    (sigma_min >= DECAY_TOL max(||A||, 1)); a stable A needs no ||A||."""
    A, C = pair.A, pair.C
    n = pair.n
    w = pair.schur.w[pair.schur.w.real >= -DECAY_TOL]
    scale = max(float(np.linalg.norm(A, 2)), 1.0) if w.size else 1.0
    for lam in w:
        stacked = np.vstack([A - lam * np.eye(n), C.astype(complex)])
        smin = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        if smin < DECAY_TOL * scale:
            return False
    return True


def unobservable_subspace(pair):
    """Orthonormal basis of ker [C; CA; ...; CA^{n-1}] (empty when observable).

    Singular values up to max(shape) * machine epsilon * sigma_max count
    as zero.  The subspace is A-invariant; that is verified, not assumed.
    A Krylov block C A^k that overflows, or an SVD that fails, raises
    NumericalError.
    """
    A, C = pair.A, pair.C
    n = pair.n
    blocks = [C]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            blocks.append(blocks[-1] @ A)
    O = np.vstack(blocks)
    finite = np.isfinite(O).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite)) // pair.m
        raise NumericalError(
            f"unobservable subspace: Krylov block C A^{k} is not finite"
        )
    try:
        _, sig, Vt = np.linalg.svd(O)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"unobservable subspace: SVD failed: {exc}") from exc
    rtol = max(O.shape) * np.finfo(float).eps
    smax = sig[0] if sig.size else 0.0
    if smax == 0.0:
        basis = np.eye(n)
    else:
        rank = int(np.sum(sig > rtol * smax))
        basis = Vt[rank:].T
    if basis.shape[1]:
        resid = np.linalg.norm(A @ basis - basis @ (basis.T @ A @ basis))
        if resid > 1e-8 * max(float(np.linalg.norm(A)), 1.0):
            raise InternalInconsistencyError(
                "unobservable subspace is not A-invariant",
                diagnostics={"residual": resid},
            )
    return basis


def l2_detectable(pair):
    """Does int ||C T x||^2 < inf force int ||T x||^2 < inf for every x?

    Decided exactly: true iff A restricted to the unobservable subspace has
    spectral abscissa < -DECAY_TOL.  For x with an unstable or neutral
    observable component the premise fails, so the implication is vacuous
    there.
    """
    return _l2_decision(pair.A, unobservable_subspace(pair))


def _check_notions_agree(hautus, l2):
    """Hautus (= exponential) and L2 detectability coincide at finite
    dimension; a disagreement raises InternalInconsistencyError."""
    if hautus != l2:
        raise InternalInconsistencyError(
            "detectability notions disagree",
            diagnostics={"hautus": hautus, "l2": l2},
        )


def _l2_decision(A, basis):
    """L2 verdict from the orthonormal ``basis`` of the unobservable
    subspace: A restricted to it has spectral abscissa < -DECAY_TOL."""
    if basis.shape[1] == 0:
        return True
    return spectral_abscissa(basis.T @ A @ basis) < -DECAY_TOL


def stabilizing_output_injection(pair):
    """F with A - FC exponentially stable, via the dual Riccati equation
    A S + S A' - S C'C S + I = 0 solved on the Hamiltonian pencil;
    F = S C'.  The postcondition spectral_abscissa(A - FC) < 0 is verified
    on the real Schur form of A - FC (one LAPACK gees, as for A itself)."""
    A, C = pair.A, pair.C
    n, m = pair.n, pair.m
    if not hautus_detectable(pair):
        raise NoInjectionExistsError("pair is not detectable")
    if float(np.linalg.norm(C)) == 0.0:
        # detectable with zero output means A is already stable
        F = np.zeros((n, m))
    else:
        try:
            # the CARE's balancing can overflow on huge C; the stability
            # postcondition below decides
            with np.errstate(over="ignore", invalid="ignore"):
                sigma = scipy.linalg.solve_continuous_are(
                    A.T, C.T, np.eye(n), np.eye(m)
                )
        except ValueError as exc:  # LinAlgError is one
            # Hautus rules out imaginary-axis Hamiltonian eigenvalues, so
            # any failure here is numerical
            raise NumericalError(
                f"output injection: Riccati solve failed: {exc}"
            ) from exc
        F = sigma @ C.T
    alpha = spectral_abscissa(A - F @ C)
    if alpha >= 0.0:
        raise InternalInconsistencyError(
            "output injection failed to stabilize",
            diagnostics={"abscissa": alpha},
        )
    return F


def _finite_gramian(A, Q, t0, name):
    """gramian_integral(A, Q, t0) at t0 > 0; a non-finite W (its block
    exponential overflows) raises NumericalError naming ``name`` and t0."""
    t0 = check_time(t0, "t0", positive=True)
    with np.errstate(over="ignore", invalid="ignore"):
        W = gramian_integral(A, Q, t0)
    if not np.all(np.isfinite(W)):
        raise NumericalError(f"{name} overflows at t0 = {t0:g}")
    return W


def observability_gramian(pair, t0):
    """W(t0) = int_0^{t0} e^{tA'} C'C e^{tA} dt (block-exponential, exact).

    x' W x is the output energy int_0^{t0} ||C T(t) x||^2 dt."""
    return _finite_gramian(pair.A, pair.Q, t0, "observability Gramian")


def _reversed_gramian_spectrum(pair, t0):
    """Ascending eigenvalues of the Gramian of (C, -A) on [0, t0]."""
    name = "final observability: Gramian of (C, -A)"
    W = _finite_gramian(-pair.A, pair.Q, t0, name)
    try:
        return np.linalg.eigvalsh(W)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"final observability: eigensolve failed: {exc}") from exc


def final_observability_constant(pair, t0):
    """Best eps with int_0^{t0} ||C T x||^2 >= eps ||T(t0) x||^2 for all x.

    With y = T(t0) x the ratio is y' e^{-t0 A'} W(t0) e^{-t0 A} y / ||y||^2,
    and that matrix is the Gramian of the time-reversed pair (C, -A) on
    [0, t0]; eps* is its smallest eigenvalue, as computed: it can round to
    a tiny or negative number on an observable pair, so the decision is
    final_observability's, not the sign of this value."""
    return float(_reversed_gramian_spectrum(pair, t0)[0])


class FinalObservability(NamedTuple):
    eps_star: float   # final_observability_constant at t0
    observable: bool  # finally observable at t0, that is, observable


def final_observability(pair, t0):
    """eps* at t0 and the one decision "finally observable".

    At finite dimension and t0 > 0 the pair is finally observable iff it is
    observable, iff the Gramian of (C, -A) is positive definite on any
    horizon.  It is taken as positive definite when its smallest eigenvalue
    exceeds 10 n u times its largest (u the unit roundoff; homogeneous in
    C, so blind to the output's scale), at t0 or at 1/||A||_2 < t0, where
    e^{-tA} stays within a factor e and stiff pairs resolve.  When neither
    Gramian resolves, the rank test of unobservable_subspace decides; if
    that test fails itself (a Krylov misrank or overflow), the pair is
    reported as not observable."""
    lam = _reversed_gramian_spectrum(pair, t0)
    norm = float(np.linalg.norm(pair.A, 2))
    observable = _resolved(lam, pair.n) or (
        norm * t0 > 1.0
        and _resolved(_reversed_gramian_spectrum(pair, 1.0 / norm), pair.n)
    )
    if not observable:
        try:
            observable = unobservable_subspace(pair).shape[1] == 0
        except (InternalInconsistencyError, NumericalError):
            pass
    return FinalObservability(eps_star=float(lam[0]), observable=bool(observable))


def _resolved(lam, n):
    """Ascending Gramian eigenvalues ``lam``: positive definite beyond
    rounding."""
    return bool(lam[0] > 10 * n * np.finfo(float).eps * lam[-1])


class PiDetectorResult(NamedTuple):
    is_detector: bool
    witness: Optional[np.ndarray]  # state x breaking the implication


def pi_detector_check(target):
    """Is Q a pi-detector: int <Q T x, T x> < inf => int ||T x||^2 < inf?

    Accepts an ObservedPair or a tuple (A, Q) with PSD Q (factored through
    its reproducing-kernel coordinates, Q = C'C).  The decision is the
    exact L2 reduction, cross-checked against the Hautus test; if the two
    disagree, InternalInconsistencyError is raised.  When Q is no
    pi-detector, the witness w is a unit state in the unobservable subspace
    from the least-decaying eigenvector of A there: C T(t) w = 0 for all t,
    while T(t) w decays no faster than e^{-DECAY_TOL t}.  With Q = I the
    premise equals the conclusion and every generator passes."""
    if isinstance(target, ObservedPair):
        pair = target
    else:
        from .certify import output_map  # certify imports this module

        A, Q = target
        pair = ObservedPair(A=A, C=output_map(None, Q))
    basis = unobservable_subspace(pair)
    decision = _l2_decision(pair.A, basis)
    _check_notions_agree(hautus_detectable(pair), decision)
    witness = None
    if not decision:
        restricted = basis.T @ pair.A @ basis
        w, V = np.linalg.eig(restricted)
        k = int(np.argmax(w.real))
        v = (basis @ V[:, k]).real
        if np.linalg.norm(v) < 1e-12:
            v = (basis @ V[:, k]).imag
        witness = v / np.linalg.norm(v)
    return PiDetectorResult(is_detector=decision, witness=witness)


# ---------------------------------------------------------------------------
# Observer => detector audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObserverAuditReport:
    t0: float
    eps_star: float
    max_violation: float


def observer_implies_detector_audit(pair, t0):
    """Verify the chain inequality behind "final observer => L1 detector".

    Integrating the observability estimate over shifted windows bounds the
    tail energy by the observed energy:

        int_0^inf ||T x||^2 <= int_0^{t0} ||T x||^2
                               + (t0/eps*) int_0^inf ||C T x||^2,

    with eps* the final-observability constant.  All three integrals are
    exact Gramians (the infinite ones via the Lyapunov solver), so the
    inequality for all x is the matrix inequality P_inf <= W(t0) + (t0/eps*)
    P_C.  Reported is its worst relative violation over all x,
    max(0, 1 - lambda_min) of the pencil (W(t0) + (t0/eps*) P_C, P_inf),
    which must be <= 1e-6.  A pair that final_observability refuses raises
    NotObserverError; an observable pair whose eps* rounds to <= 0 raises
    NumericalError.  The abscissa and both solves read the pair's one Schur
    form."""
    form = pair.schur
    alpha = form.abscissa
    if alpha >= 0.0:
        raise NotStableError(
            f"audit requires a stable generator (abscissa {alpha:.3e})"
        )
    final = final_observability(pair, t0)
    eps_star = final.eps_star
    if not final.observable:
        raise NotObserverError(
            f"pair is not finally observable at t0={t0}: eps* = {eps_star:.3e}"
        )
    if eps_star <= 0.0:
        raise NumericalError(
            f"observer audit: eps* of the observable pair rounds to "
            f"{eps_star:.3e} at t0={t0}"
        )
    eye = np.eye(pair.n)
    P_inf = lyap_solve_direct(form, eye)
    P_C = lyap_solve_direct(form, pair.Q)
    W = _finite_gramian(pair.A, eye, t0, "observer audit: W(t0)")
    bound = W + (t0 / eps_star) * P_C
    try:
        lam_min = scipy.linalg.eigh(bound, P_inf, eigvals_only=True)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"observer audit: pencil eigensolve failed: {exc}"
        ) from exc
    return ObserverAuditReport(
        t0=t0, eps_star=eps_star, max_violation=max(0.0, 1.0 - float(lam_min))
    )


def duhamel_residual(pair, F, t, x):
    """Relative residual of the variation-of-parameters identity

        T(t)x = T_{A-FC}(t)x + int_0^t T_{A-FC}(t-s) FC T(s)x ds,

    with the convolution integral computed exactly as the off-diagonal
    block of exp(t [[A-FC, FC], [0, A]])."""
    A, C = pair.A, pair.C
    n = pair.n
    F = as_matrix(F, "F")
    if F.shape != (n, pair.m):
        raise DimensionError(f"F must be {n} x {pair.m}, got {F.shape}")
    t = check_time(t)
    x = as_vector(x, n, "x")
    Acl = A - F @ C
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = Acl
    M[:n, n:] = F @ C
    M[n:, n:] = A
    E = scipy.linalg.expm(t * M)
    lhs = expm(A, t) @ x
    rhs = expm(Acl, t) @ x + E[:n, n:] @ x
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    return float(np.linalg.norm(lhs - rhs) / scale)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectabilityReport:
    """Detectability verdicts for one pair: hautus = exponential = (F is
    not None), F being the stabilizing injection; l2 must agree."""

    F: Optional[np.ndarray]
    l2: bool
    eps_star: Optional[dict] = None

    def __post_init__(self):
        _check_notions_agree(self.hautus, self.l2)

    @property
    def hautus(self):
        return self.F is not None

    exponential = hautus  # an injection exists iff the Hautus test passes

    def to_dict(self):
        return {
            "F": None if self.F is None else self.F.tolist(),
            "l2": self.l2,
            "eps_star": self.eps_star,
        }


def detectability_report(pair, t0=None):
    """Run all detectability tests on a pair, cross-checking the verdicts;
    eps_star is included when an observation horizon t0 is given.  The
    Hautus verdict is the injection's precondition, so it runs once."""
    try:
        F = stabilizing_output_injection(pair)
    except NoInjectionExistsError:
        F = None
    l2 = l2_detectable(pair)
    eps = None
    if t0 is not None:
        eps = {"t0": float(t0), "value": final_observability_constant(pair, t0)}
    return DetectabilityReport(F=F, l2=l2, eps_star=eps)
