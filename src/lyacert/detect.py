"""Detectability and observability machinery for observed pairs (C, A).

Hautus, exponential and L2 detectability coincide at finite dimension and
are cross-checked against each other; disagreement raises, never passes
silently.  The L2 decision rests on one reduction: the implication
"int ||C T(t)x||^2 < inf  =>  int ||T(t)x||^2 < inf" holds for all x iff
the restriction of A to the unobservable subspace is stable (for x with an
unstable observable component the premise already fails).  That reduction
is guarded by quadrature cross-checks wherever randomness enters.
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
    expm,
    gramian_doubling,
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
    "pi_detector_check",
    "observer_implies_detector_audit",
    "detectability_report",
    "duhamel_residual",
    "gramian_value_sequence",
    "classify_integral_values",
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

    @property
    def Q(self):
        """Q = C'C, PSD by construction."""
        return self.C.T @ self.C

    @cached_property
    def schur(self):
        return schur_form(self.A)


def hautus_detectable(pair):
    """Rank test: for every eigenvalue with Re >= -DECAY_TOL, the stacked
    matrix [A - lambda I; C] must have full column rank
    (sigma_min >= DECAY_TOL ||A||)."""
    A, C = pair.A, pair.C
    n = pair.n
    scale = max(float(np.linalg.norm(A, 2)), 1.0)
    for lam in pair.schur.w:
        if lam.real < -DECAY_TOL:
            continue
        stacked = np.vstack([A - lam * np.eye(n), C.astype(complex)])
        smin = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        if smin < DECAY_TOL * scale:
            return False
    return True


def unobservable_subspace(pair):
    """Orthonormal basis of ker [C; CA; ...; CA^{n-1}] (empty when observable).

    Singular values up to max(shape) * machine epsilon * sigma_max count
    as zero.  The subspace is A-invariant; that is verified, not assumed.
    """
    A, C = pair.A, pair.C
    n = pair.n
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    O = np.vstack(blocks)
    _, sig, Vt = np.linalg.svd(O)
    rank_tol = max(O.shape) * np.finfo(float).eps
    smax = sig[0] if sig.size else 0.0
    if smax == 0.0:
        basis = np.eye(n)
    else:
        rank = int(np.sum(sig > rank_tol * smax))
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


def _l2_decision(A, basis):
    """L2 verdict from the orthonormal ``basis`` of the unobservable
    subspace: A restricted to it has spectral abscissa < -DECAY_TOL."""
    if basis.shape[1] == 0:
        return True
    return spectral_abscissa(basis.T @ A @ basis) < -DECAY_TOL


def stabilizing_output_injection(pair):
    """F with A - FC exponentially stable, via the dual Riccati equation
    A S + S A' - S C'C S + I = 0 solved on the Hamiltonian pencil;
    F = S C'.  The postcondition spectral_abscissa(A - FC) < 0 is verified."""
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


def observability_gramian(pair, t0):
    """W(t0) = int_0^{t0} e^{tA'} C'C e^{tA} dt (block-exponential, exact).

    x' W x is the output energy int_0^{t0} ||C T(t) x||^2 dt."""
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    return gramian_integral(pair.A, pair.Q, t0)


def final_observability_constant(pair, t0):
    """Best eps with int_0^{t0} ||C T x||^2 >= eps ||T(t0) x||^2 for all x.

    With y = T(t0) x the ratio is y' e^{-t0 A'} W(t0) e^{-t0 A} y / ||y||^2,
    and that matrix is the Gramian of the time-reversed pair (C, -A) on
    [0, t0]; eps* is its smallest eigenvalue.  The pair is continuously
    finally observable iff the returned value is positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        W = observability_gramian(ObservedPair(A=-pair.A, C=pair.C), t0)
    if not np.all(np.isfinite(W)):
        raise NumericalError(
            f"final observability: Gramian of (C, -A) overflows at t0 = {t0:g}"
        )
    try:
        return float(np.linalg.eigvalsh(W)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"final observability: eigensolve failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Quadrature classification (cross-check machinery)
# ---------------------------------------------------------------------------

def gramian_value_sequence(A, Q, xs):
    """x' W(t) x for each x in xs at t = 1, 2, 4, ..., 256.

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


class PiDetectorResult(NamedTuple):
    is_detector: bool
    witness: Optional[np.ndarray]  # state x breaking the implication


def pi_detector_check(target):
    """Is Q a pi-detector: int <Q T x, T x> < inf => int ||T x||^2 < inf?

    Accepts an ObservedPair or a tuple (A, Q) with PSD Q (factored through
    its reproducing-kernel coordinates, Q = C'C).  The decision is the
    exact L2 reduction; 8 seeded random states and the witness are
    additionally cross-checked by horizon-doubling quadrature.  With Q = I
    the premise equals the conclusion and every generator passes."""
    if isinstance(target, ObservedPair):
        pair = target
    else:
        from .certify import output_map  # certify imports this module

        A, Q = target
        pair = ObservedPair(A=A, C=output_map(None, Q))
    basis = unobservable_subspace(pair)
    decision = _l2_decision(pair.A, basis)
    witness = None
    if not decision:
        restricted = basis.T @ pair.A @ basis
        w, V = np.linalg.eig(restricted)
        k = int(np.argmax(w.real))
        v = (basis @ V[:, k]).real
        if np.linalg.norm(v) < 1e-12:
            v = (basis @ V[:, k]).imag
        witness = v / np.linalg.norm(v)

    rng = np.random.default_rng(0)
    checks = [rng.standard_normal(pair.n) for _ in range(8)]
    if witness is not None:
        checks.append(witness)
    # W(t) does not depend on x: one doubling run per integrand serves all
    premises = gramian_value_sequence(pair.A, pair.Q, checks)
    conclusions = gramian_value_sequence(pair.A, np.eye(pair.n), checks)
    for x, premise, conclusion in zip(checks, premises, conclusions):
        if (decision and classify_integral_values(premise) is True
                and classify_integral_values(conclusion) is False):
            raise InternalInconsistencyError(
                "quadrature found a counterexample to a positive pi-detector "
                "verdict",
                diagnostics={"x": x},
            )
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
    which must be <= 1e-6.  The pair counts as finally observable when
    eps* > 1e-10.  The abscissa and both solves read the pair's one Schur
    form."""
    form = pair.schur
    alpha = form.abscissa
    if alpha >= 0.0:
        raise NotStableError(
            f"audit requires a stable generator (abscissa {alpha:.3e})"
        )
    eps_star = final_observability_constant(pair, t0)
    if eps_star <= 1e-10:
        raise NotObserverError(
            f"pair is not finally observable at t0={t0}: eps* = {eps_star:.3e}"
        )
    eye = np.eye(pair.n)
    P_inf = lyap_solve_direct(form, eye)
    P_C = lyap_solve_direct(form, pair.Q)
    bound = gramian_integral(pair.A, eye, t0) + (t0 / eps_star) * P_C
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
        if self.hautus != self.l2:
            raise InternalInconsistencyError(
                "detectability notions disagree",
                diagnostics={
                    "hautus": self.hautus,
                    "exponential": self.exponential,
                    "l2": self.l2,
                },
            )

    @property
    def hautus(self):
        return self.F is not None

    exponential = hautus  # an injection exists iff the Hautus test passes

    def to_dict(self):
        return {
            "hautus": self.hautus,
            "exponential": self.exponential,
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
