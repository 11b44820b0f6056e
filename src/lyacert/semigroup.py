"""Semigroup objects over a matrix generator A.

Trajectories of T(t) = e^{tA}, stability analyses (exponential, weak-L1 on
a cone), the S_infinity = -A^{-1} construction, and a verification harness
for the integrated-semigroup identities.

Improper integrals int_0^inf <phi, T(t)x> dt are decided by eigenstructure
(residue coefficients of the non-decaying modes), never by quadrature; a
horizon-doubling heuristic exists only as a clearly flagged fallback for
defective generators.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cones import ORTHANT, PSD, ConeSpec, map_preserves_cone
from .exceptions import (
    DefectiveMatrixError,
    DimensionError,
    InternalInconsistencyError,
    NotStableError,
    NumericalError,
)
from .linalg import (
    ABSCISSA_TOL,
    DECAY_TOL,
    GROWTH_MARGIN,
    GrowthBound,
    SpaceNorm,
    as_square,
    as_vector,
    cesaro_integral,
    expm,
    growth_fit,
    integral_exp,
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
    "is_exponentially_stable",
    "weak_L1_stable_on_cone",
    "weak_detector_check",
    "s_infinity",
    "lemma_AS_suite",
    "stability_report",
]

#: eigenvector-basis condition number beyond which A is treated as defective
EIGEN_COND_LIMIT = 1e8


def is_metzler(A):
    """Off-diagonal entries >= 0, with no slack: positivity is structural."""
    A = as_square(A, "A")
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= 0.0)


@dataclass(frozen=True)
class SemigroupProbe:
    """Generator A with optional state cone and norm.

    When the cone is the orthant the constructor verifies that A is Metzler
    (off-diagonal >= 0, no negative slack), which is exactly positivity of
    e^{tA} on the orthant.  A PSD or polyhedral cone records the caller's
    claim that the semigroup is positive; it is not verified structurally.
    """

    A: np.ndarray
    cone: Optional[ConeSpec] = None
    norm: Optional[SpaceNorm] = None

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
        if self.norm is None:
            object.__setattr__(self, "norm", SpaceNorm(p=2.0, dim=A.shape[0]))

    @property
    def dim(self):
        return self.A.shape[0]


class WeakL1Result(NamedTuple):
    stable: bool
    witness: Optional[tuple]  # failing (phi, x) pair
    exact: bool  # False when the horizon-doubling fallback decided


class DetectorResult(NamedTuple):
    is_detector: bool
    witness: Optional[np.ndarray]  # failing dual functional phi


# ---------------------------------------------------------------------------
# Eigen-residue machinery
# ---------------------------------------------------------------------------

def _eigen_system(A):
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > EIGEN_COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector basis condition {cond:.2e} exceeds {EIGEN_COND_LIMIT:.0e}; "
            "treating the generator as defective"
        )
    return w, V, np.linalg.inv(V)


def _pair_integral_finite(w, V, Vinv, phi, x):
    """Is int_0^inf <phi, e^{tA} x> dt finite?  <phi, T(t)x> is a sum of
    c_k e^{lambda_k t}; for a positive pairing the integral is finite iff
    every coefficient on a non-decaying mode vanishes (|c_k| at most
    1e-9 * max(1, ||phi|| ||x||))."""
    c = (V.T @ phi) * (Vinv @ x)
    scale = 1e-9 * max(1.0, float(np.linalg.norm(phi) * np.linalg.norm(x)))
    bad = (w.real >= -DECAY_TOL) & (np.abs(c) > scale)
    return not bool(np.any(bad))


def _cone_pairs(probe):
    """Generator pairs (phi, x) whose integrability decides weak-L1
    stability on the cone.  Orthant: coordinate pairs (e_j, e_i).  PSD: the
    single order-unit pair (I, I), which dominates every cone pair for a
    positive semigroup."""
    cone = probe.cone
    n = probe.dim
    if cone.kind == ORTHANT:
        eye = np.eye(n)
        return [(eye[j], eye[i]) for j in range(n) for i in range(n)]
    if cone.kind == PSD:
        unit = sym_to_vec(np.eye(cone.dim))
        return [(unit, unit)]
    return None  # polyhedral: dual generators unavailable, fallback only


def weak_L1_stable_on_cone(probe, fallback=True):
    """Decide int_0^inf <phi, T(t)x> dt < inf for all phi, x >= 0.

    Exact path (diagonalizable A): residue test on the cone's generator
    pairs.  The fallback monitors <phi, S(t)x> growth over doubling
    horizons and is flagged non-exact in the result.
    """
    if probe.cone is None:
        raise ValueError("probe has no cone")
    pairs = _cone_pairs(probe)
    if pairs is not None:
        try:
            w, V, Vinv = _eigen_system(probe.A)
        except DefectiveMatrixError:
            if not fallback:
                raise
        else:
            for phi, x in pairs:
                if not _pair_integral_finite(w, V, Vinv, phi, x):
                    return WeakL1Result(stable=False, witness=(phi, x), exact=True)
            return WeakL1Result(stable=True, witness=None, exact=True)
    if not fallback:
        raise DefectiveMatrixError(
            "exact path unavailable and fallback disabled"
        )
    return _weak_L1_fallback(probe)


def _weak_L1_fallback(probe):
    """Heuristic: S(t)x is monotone in the cone order, so weak-L1 stability
    on a cone with generating dual is equivalent to ||S(t)x|| staying
    bounded for the cone's generators, sampled at t = 1, 2, 4, ..., 64."""
    cone = probe.cone
    if cone.kind == ORTHANT:
        gens = list(np.eye(probe.dim))
    elif cone.kind == PSD:
        gens = [sym_to_vec(np.eye(cone.dim))]
    else:
        gens = [cone.generators[:, j] for j in range(cone.generators.shape[1])]
    for x in gens:
        vals = [float(np.linalg.norm(integral_exp(probe.A, 2.0**k) @ x))
                for k in range(7)]
        # converged: the last doubling changed the value by < 1%
        if vals[-2] > 0 and vals[-1] > 1.01 * vals[-2] + 1e-12:
            return WeakL1Result(stable=False, witness=(None, x), exact=False)
    return WeakL1Result(stable=True, witness=None, exact=False)


def weak_detector_check(probe, z):
    """Is z a weak-L1 detector: does finiteness of int <phi, T(t)z> force
    finiteness of int <phi, T(t)x> for every positive x?

    Requires an orthant cone with Metzler diagonalizable A.  Positivity
    reduces the quantifier over phi >= 0 to the coordinate functionals:
    the premise holds for phi = sum a_j e_j (a_j >= 0) iff it holds for
    every e_j in its support, so a singleton support is the worst case.
    """
    if probe.cone is None or probe.cone.kind != ORTHANT:
        raise ValueError("weak detector check requires an orthant cone")
    z = as_vector(z, probe.dim, "z")
    w, V, Vinv = _eigen_system(probe.A)
    n = probe.dim
    eye = np.eye(n)
    for j in range(n):
        phi = eye[j]
        if not _pair_integral_finite(w, V, Vinv, phi, z):
            continue  # premise fails for this functional
        for i in range(n):
            if not _pair_integral_finite(w, V, Vinv, phi, eye[i]):
                return DetectorResult(is_detector=False, witness=phi)
    return DetectorResult(is_detector=True, witness=None)


# ---------------------------------------------------------------------------
# Trajectories, stability, S_infinity
# ---------------------------------------------------------------------------

def trajectory(probe, x, grid):
    """Sample (t, T(t)x, ||T(t)x||_p) along a nonnegative ascending grid."""
    x = as_vector(x, probe.dim, "x")
    grid = [float(t) for t in grid]
    if any(t < 0 for t in grid) or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonnegative and ascending")
    p = probe.norm.p
    out = []
    for t in grid:
        v = expm(probe.A, t) @ x
        out.append((t, v, vector_norm(v, p)))
    return out


def is_exponentially_stable(probe):
    """Spectral abscissa < -ABSCISSA_TOL; equivalent to ||T(t)|| <= M e^{-eps t}."""
    return spectral_abscissa(probe.A) < -ABSCISSA_TOL


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
        result = map_preserves_cone(probe.cone, S_inf, seed=0)
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

    dS_dt            d/dt S(t) = T(t), central difference with step h
    AS_eq_T_minus_I  A S(t) = T(t) - I, exact block integrals
    AS_commute       A S(t) = S(t) A
    cesaro_identity  A int_0^t S = (S(t) - t I)
    cesaro_commute   A int_0^t S = int_0^t S A
    """
    if t <= 0:
        raise ValueError("t must be positive")
    A = probe.A
    n = A.shape[0]
    T = expm(A, t)
    S = integral_exp(A, t)
    C = cesaro_integral(A, t)
    dS = (integral_exp(A, t + h) - integral_exp(A, max(t - h, 0.0))) / (2 * h)
    residuals = {
        "dS_dt": _rel(dS, T),
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

    At finite dimension L1 pi-stability coincides with exponential
    stability (Datko-Pazy), so the two fields always agree; the
    constructor enforces exponential => weak-L1 consistency.
    """

    exponential: bool
    growth: Optional[GrowthBound]
    weak_L1_on_cone: Optional[bool]
    weak_L1_witness: Optional[tuple]
    weak_L1_exact: Optional[bool]
    L1_pi: bool

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
        d = {
            "exponential": self.exponential,
            "growth": None
            if self.growth is None
            else {"M": self.growth.M, "eps": self.growth.eps},
            "weak_L1_on_cone": self.weak_L1_on_cone,
            "weak_L1_exact": self.weak_L1_exact,
            "L1_pi": self.L1_pi,
        }
        return d


def stability_report(probe):
    """Assemble the per-notion stability verdicts for a probe."""
    alpha = spectral_abscissa(probe.A)
    exponential = alpha < -ABSCISSA_TOL
    growth = growth_fit(probe.A, alpha) if exponential else None
    weak = weak_L1_stable_on_cone(probe) if probe.cone is not None else None
    return StabilityReport(
        exponential=exponential,
        growth=growth,
        weak_L1_on_cone=None if weak is None else weak.stable,
        weak_L1_witness=None if weak is None else weak.witness,
        weak_L1_exact=None if weak is None else weak.exact,
        L1_pi=exponential,
    )
