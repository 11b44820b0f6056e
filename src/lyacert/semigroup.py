"""Semigroup objects over a matrix generator A.

Trajectories of T(t) = e^{tA}, stability analyses (exponential, weak-L1 on
a cone), the S_infinity = -A^{-1} construction, and a verification harness
for the integrated-semigroup identities.

Improper integrals int_0^inf <phi, T(t)x> dt are decided without
eigenvectors or quadrature, so defective generators get exact answers: on
the orthant from the graph of A and the M-matrix test on its strongly
connected classes, on other cones from the spectrum of A restricted to the
cone's span.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cones import ORTHANT, PSD, ConeSpec, map_preserves_cone
from .exceptions import (
    DimensionError,
    InternalInconsistencyError,
    NotStableError,
    NumericalError,
)
from .linalg import (
    ABSCISSA_TOL,
    GROWTH_MARGIN,
    GrowthBound,
    as_square,
    as_vector,
    cesaro_integral,
    check_exponent,
    check_time,
    expm,
    growth_fit,
    integral_exp,
    schur_form,
    spectral_abscissa,
    sym_to_vec,
    vector_norm,
)

__all__ = [
    "SemigroupProbe",
    "StabilityReport",
    "WeakL1Result",
    "DetectorResult",
    "LemmaReport",
    "trajectory",
    "weak_L1_stable_on_cone",
    "weak_detector_check",
    "s_infinity",
    "lemma_AS_suite",
    "stability_report",
]

def is_metzler(A):
    """Off-diagonal entries >= 0, with no slack: positivity is structural."""
    A = as_square(A, "A")
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= 0.0)


@dataclass(frozen=True)
class SemigroupProbe:
    """Generator A with an optional state cone.

    When the cone is the orthant the constructor verifies that A is Metzler
    (off-diagonal >= 0, no negative slack), which is exactly positivity of
    e^{tA} on the orthant.  A PSD or polyhedral cone records the caller's
    claim that the semigroup is positive; it is not verified structurally.
    """

    A: np.ndarray
    cone: Optional[ConeSpec] = None

    def __post_init__(self):
        A = as_square(self.A, "A")
        object.__setattr__(self, "A", A)
        if self.cone is not None and self.cone.ambient_dim != A.shape[0]:
            raise DimensionError(
                f"cone ambient dimension {self.cone.ambient_dim} does not "
                f"match generator dimension {A.shape[0]}"
            )
        if self.cone is not None and self.cone.kind == ORTHANT:
            if not is_metzler(A):
                raise ValueError(
                    "orthant-positive semigroup requires a Metzler generator"
                )

    @property
    def dim(self):
        return self.A.shape[0]


class WeakL1Result(NamedTuple):
    stable: bool
    witness: Optional[tuple]  # failing (phi, x) pair


class DetectorResult(NamedTuple):
    is_detector: bool
    witness: Optional[np.ndarray]  # failing dual functional phi


# ---------------------------------------------------------------------------
# Weak-L1 stability and weak detectors
# ---------------------------------------------------------------------------

def _integrable(A):
    """finite[j, i] is True iff int_0^inf (e^{tA})_{ji} dt < inf, for
    Metzler A.

    (e^{tA})_{ji} > 0 for t > 0 iff j is reachable from i in the graph of A
    (edge i -> j when A_ji != 0), and the entry is integrable iff every
    strongly connected class K on a path i -> K -> j decays.  K decays iff
    -(A_KK + ABSCISSA_TOL I) is a nonsingular M-matrix, i.e. iff
    (A_KK + ABSCISSA_TOL I) y = -1 has a solution y > 0 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, 1994, ch. 6).
    """
    n = A.shape[0]
    reach = (A != 0) | np.eye(n, dtype=bool)  # reach[j, i]: path i -> j
    for k in range(n):  # Warshall closure
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    classes = reach & reach.T
    bad = np.zeros(n, dtype=bool)  # members of non-decaying classes
    for i in range(n):
        K = np.flatnonzero(classes[i])
        if K[0] < i:
            continue  # class decided at its first member
        try:
            y = np.linalg.solve(A[np.ix_(K, K)] + ABSCISSA_TOL * np.eye(K.size),
                                -np.ones(K.size))
        except np.linalg.LinAlgError:
            y = -np.ones(K.size)
        bad[K] = not np.all(y > 0)
    through_bad = reach[:, bad].astype(int) @ reach[bad, :].astype(int)
    return through_bad == 0


def weak_L1_stable_on_cone(probe):
    """Decide int_0^inf <phi, T(t)x> dt < inf for all phi in K*, x in K.

    Orthant: entrywise, from the graph of A (exact for defective A); the
    witness is the first failing coordinate pair (e_j, e_i) in row-major
    order.  PSD and polyhedral cones: a pointed cone has a generating dual,
    so finite integrals for every phi in K* and x in K give
    int ||T(t)v|| dt < inf on span K, which at finite dimension
    (Datko-Pazy) is exponential stability of A restricted to span K.  A
    generator that does not leave span K invariant cannot be positive on K
    and is refused with ValueError.
    """
    cone = probe.cone
    if cone is None:
        raise ValueError("probe has no cone")
    A = probe.A
    if cone.kind == ORTHANT:
        failing = np.argwhere(~_integrable(A))
        if failing.size:
            eye = np.eye(probe.dim)
            j, i = failing[0]
            return WeakL1Result(stable=False, witness=(eye[j], eye[i]))
        return WeakL1Result(stable=True, witness=None)
    if cone.kind == PSD:
        restricted = A
        unit = sym_to_vec(np.eye(cone.dim))
        witness = (unit, unit)
    else:
        G = cone.generators
        U, s, _ = np.linalg.svd(G, full_matrices=False)
        V = U[:, s > s[0] * max(G.shape) * np.finfo(float).eps]
        restricted = V.T @ A @ V
        gap = np.linalg.norm(A @ V - V @ restricted)
        if gap > 1e-8 * max(np.linalg.norm(A), 1.0):
            raise ValueError(
                f"generator does not leave the cone's span invariant "
                f"(residual {gap:.2e}), so its semigroup is not positive"
            )
        witness = (None, G.sum(axis=1))
    if spectral_abscissa(restricted) < -ABSCISSA_TOL:
        return WeakL1Result(stable=True, witness=None)
    return WeakL1Result(stable=False, witness=witness)


def weak_detector_check(probe, z):
    """Is z >= 0 a weak-L1 detector: does finiteness of int <phi, T(t)z>
    force finiteness of int <phi, T(t)x> for every positive x?

    Requires an orthant cone (Metzler A); z need not be an order unit.
    Positivity reduces the quantifier over phi >= 0 to the coordinate
    functionals: the premise holds for phi = sum a_j e_j (a_j >= 0) iff it
    holds for every e_j in its support, so a singleton support is the worst
    case.  The premise for e_j holds iff row j of the integrability matrix
    is finite on the support of z.
    """
    if probe.cone is None or probe.cone.kind != ORTHANT:
        raise ValueError("weak detector check requires an orthant cone")
    z = as_vector(z, probe.dim, "z")
    if np.any(z < 0):
        raise ValueError("z must be positive: it has a negative entry")
    finite = _integrable(probe.A)
    blind = finite[:, z > 0].all(axis=1) & ~finite.all(axis=1)
    if blind.any():
        return DetectorResult(is_detector=False,
                              witness=np.eye(probe.dim)[np.argmax(blind)])
    return DetectorResult(is_detector=True, witness=None)


# ---------------------------------------------------------------------------
# Trajectories, stability, S_infinity
# ---------------------------------------------------------------------------

def trajectory(probe, x, grid, p=2.0):
    """Sample (t, T(t)x, ||T(t)x||_p) along a nonnegative ascending grid."""
    p = check_exponent(p)
    x = as_vector(x, probe.dim, "x")
    grid = [float(t) for t in grid]
    if any(t < 0 for t in grid) or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonnegative and ascending")
    out = []
    for t in grid:
        v = expm(probe.A, t) @ x
        out.append((t, v, vector_norm(v, p)))
    return out


def s_infinity(probe):
    """S_infinity = -A^{-1}, the norm limit of S(t).

    Cross-checked against the exact finite-horizon integral S(t_large) at
    t_large = 40/eps (relative gap at most 1e-6), and against cone
    preservation when a cone is set.
    """
    A = probe.A
    alpha = spectral_abscissa(A)
    if alpha >= -ABSCISSA_TOL:
        raise NotStableError(
            f"S_infinity needs an exponentially stable generator "
            f"(abscissa {alpha:.3e})"
        )
    n = A.shape[0]
    try:
        S_inf = np.linalg.solve(A, -np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular generator: {exc}") from exc
    eps = -alpha * (1.0 - GROWTH_MARGIN)
    t_large = 40.0 / eps
    S_t = integral_exp(A, t_large)
    err = np.linalg.norm(S_inf - S_t) / max(np.linalg.norm(S_inf), 1e-300)
    if err > 1e-6:
        raise InternalInconsistencyError(
            "direct inverse and finite-horizon integral disagree",
            diagnostics={"rel_err": err, "t_large": t_large},
        )
    if probe.cone is not None:
        result = map_preserves_cone(probe.cone, S_inf)
        if not result.preserves:
            raise InternalInconsistencyError(
                "-A^{-1} fails to preserve the cone of a positive stable "
                "semigroup",
                diagnostics={"witness": result.witness},
            )
    return S_inf


# ---------------------------------------------------------------------------
# Lemma identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """Max relative residuals of the integrated-semigroup identities."""

    t: float
    h: float
    residuals: dict

    def max_residual(self, keys=None):
        keys = keys or self.residuals.keys()
        return max(self.residuals[k] for k in keys)


def _rel(lhs, rhs):
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    return float(np.linalg.norm(lhs - rhs) / scale)


def lemma_AS_suite(probe, t=1.0, h=1e-5):
    """Residuals of the identities tying A, T(t) and S(t).

    dS_dt            S(t + h) - S(t) = T(t) S(h), the exact increment form
                     of S' = T, for any step h > 0
    AS_eq_T_minus_I  A S(t) = T(t) - I, exact block integrals
    AS_commute       A S(t) = S(t) A
    cesaro_identity  A int_0^t S = (S(t) - t I)
    cesaro_commute   A int_0^t S = int_0^t S A
    """
    t = check_time(t, "t", positive=True)
    h = check_time(h, "h", positive=True)
    A = probe.A
    n = A.shape[0]
    T = expm(A, t)
    S = integral_exp(A, t)
    C = cesaro_integral(A, t)
    residuals = {
        "dS_dt": _rel(integral_exp(A, t + h) - S, T @ integral_exp(A, h)),
        "AS_eq_T_minus_I": _rel(A @ S, T - np.eye(n)),
        "AS_commute": _rel(A @ S, S @ A),
        "cesaro_identity": _rel(A @ C, S - t * np.eye(n)),
        "cesaro_commute": _rel(A @ C, C @ A),
    }
    return LemmaReport(t=t, h=h, residuals=residuals)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Verdicts per stability notion for one probe.

    ``exponential`` is exponential stability; at finite dimension L1
    pi-stability is the same notion (Datko-Pazy), so it has no field of its
    own.  The constructor enforces exponential => weak-L1 consistency.
    """

    exponential: bool
    growth: Optional[GrowthBound]
    weak_L1_on_cone: Optional[bool]
    weak_L1_witness: Optional[tuple]

    def __post_init__(self):
        if (
            self.exponential
            and self.weak_L1_on_cone is not None
            and not self.weak_L1_on_cone
        ):
            raise InternalInconsistencyError(
                "exponentially stable semigroup reported weak-L1 unstable",
                diagnostics={"witness": self.weak_L1_witness},
            )

    def to_dict(self):
        return {
            "exponential": self.exponential,
            "growth": None
            if self.growth is None
            else {"M": self.growth.M, "eps": self.growth.eps},
            "weak_L1_on_cone": self.weak_L1_on_cone,
        }


def stability_report(probe):
    """Assemble the per-notion stability verdicts for a probe; the
    exponential verdict and the growth bound read one Schur form of A."""
    form = schur_form(probe.A)
    exponential = form.abscissa < -ABSCISSA_TOL
    growth = growth_fit(form) if exponential else None
    weak = weak_L1_stable_on_cone(probe) if probe.cone is not None else None
    return StabilityReport(
        exponential=exponential,
        growth=growth,
        weak_L1_on_cone=None if weak is None else weak.stable,
        weak_L1_witness=None if weak is None else weak.witness,
    )
