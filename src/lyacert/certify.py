"""Problem ingestion, the Wonham certification pipeline, and reporting.

A certificate's evidence is always the triple (P, residual, detectability):
stability is claimed from a positive solution of A'P + PA = -C'C with a
detectable right-hand side, never from eigenvalues.  One real Schur form of
A (linalg.SchurForm) serves the whole certificate: the Hautus test reads
its eigenvalues, the direct solve and the growth envelope solve through it,
and its spectral abscissa is recorded purely as a cross-check; a verdict
inconsistent with that abscissa raises instead of emitting a silent
certificate.  Every gate is a program constant beside the check that
applies it (lyapunov.RESIDUAL_RTOL, linalg.PSD_RTOL, linalg.ABSCISSA_TOL,
CROSS_CHECK_RTOL), never a field of the problem.
"""

import csv
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import __version__
from .detect import ObservedPair, detectability_report
from .exceptions import (
    InternalInconsistencyError,
    NumericalError,
    ProblemFormatError,
    ResonantSpectrumError,
)
from .linalg import (
    ABSCISSA_TOL,
    PSD_RTOL,
    GrowthBound,
    as_matrix,
    as_square,
    check_symmetric,
    expm,
    growth_fit,
    spectral_abscissa,  # noqa: F401 (kept importable from this module)
    spectrum_is_psd,
    vector_norm,
)
from .lyapunov import (
    lyap_apply,
    lyap_solve_direct,
    lyap_solve_integral,
    output_map,
    rkhs_factor,  # noqa: F401 (benchmarks/spans.py looks it up here)
)

__all__ = [
    "ProblemSpec",
    "Certificate",
    "VERDICT_STABLE",
    "VERDICT_UNSTABLE",
    "VERDICT_INCONCLUSIVE",
    "CERTIFICATE_SCHEMA",
    "parse_problem",
    "problem_from_dict",
    "canonical_json",
    "input_digest",
    "direct_solution",
    "wonham_certify",
    "run_gallery",
    "emit_decay_csv",
]

VERDICT_STABLE = "ExponentiallyStable"
VERDICT_UNSTABLE = "Unstable"
VERDICT_INCONCLUSIVE = "Inconclusive"

#: version of the certificate's key layout, written as its "schema" key
CERTIFICATE_SCHEMA = 1

#: largest relative Frobenius gap ||P_int - P|| / max(||P||, 1) between the
#: integral solver and the direct solution of a stable certificate
CROSS_CHECK_RTOL = 1e-6


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

def _check_positive_number(value, location):
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) \
            and math.isfinite(value) and value > 0
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ProblemFormatError(
            f"must be a finite number above 0, got {value!r}", location=location
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One certification problem: generator A plus either an output map C
    or a PSD right-hand side Q = C'C, which must be finite either way.
    t0, when given, must be finite and positive.  Nothing else is an
    input: the gates a certificate is held to are program constants."""

    A: np.ndarray
    C: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    t0: Optional[float] = None

    def __post_init__(self):
        A = as_square(self.A, "A")
        object.__setattr__(self, "A", A)
        if (self.C is None) == (self.Q is None):
            raise ProblemFormatError("exactly one of C, Q must be present")
        if self.C is not None:
            C = as_matrix(self.C, "C")
            if C.shape[1] != A.shape[0]:
                raise ProblemFormatError(
                    f"C must have {A.shape[0]} columns, got {C.shape[1]}",
                    location="C",
                )
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.all(np.isfinite(C.T @ C)):
                    raise ProblemFormatError("C'C is beyond the float range",
                                             location="C")
            object.__setattr__(self, "C", C)
        if self.Q is not None:
            Q = check_symmetric(self.Q, "Q")
            if Q.shape != A.shape:
                raise ProblemFormatError(
                    f"Q must be {A.shape[0]} x {A.shape[0]}, got {Q.shape}",
                    location="Q",
                )
            object.__setattr__(self, "Q", Q)
        if self.t0 is not None:
            _check_positive_number(self.t0, "t0")
            object.__setattr__(self, "t0", float(self.t0))

    @property
    def n(self):
        return self.A.shape[0]

    @cached_property
    def pair(self):
        """The observed pair (A, C), C = output_map(C, Q); built once and
        shared by every route that reads the problem."""
        return ObservedPair(A=self.A, C=output_map(self.C, self.Q))

    def to_dict(self):
        d = {"A": self.A.tolist()}
        if self.C is not None:
            d["C"] = self.C.tolist()
        if self.Q is not None:
            d["Q"] = self.Q.tolist()
        if self.t0 is not None:
            d["t0"] = self.t0
        return d

    def __eq__(self, other):
        return isinstance(other, ProblemSpec) and self.to_dict() == other.to_dict()


def problem_from_dict(d):
    """Build a ProblemSpec from a decoded problem dictionary."""
    if not isinstance(d, dict):
        raise ProblemFormatError("problem must be a JSON object")
    if "A" not in d:
        raise ProblemFormatError("missing required field", location="A")
    known = {"A", "C", "Q", "t0"}
    unknown = set(d) - known
    if unknown:
        raise ProblemFormatError(
            f"unknown fields {sorted(unknown)}", location=sorted(unknown)[0]
        )
    try:
        return ProblemSpec(
            A=np.asarray(d["A"], dtype=float),
            C=None if d.get("C") is None else np.asarray(d["C"], dtype=float),
            Q=None if d.get("Q") is None else np.asarray(d["Q"], dtype=float),
            t0=d.get("t0"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ProblemFormatError):
            raise
        raise ProblemFormatError(str(exc)) from exc


def parse_problem(text, location="<problem>"):
    """Parse a problem from JSON text."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer beyond Python's digit limit
        raise ProblemFormatError(f"invalid JSON: {exc}", location=location) from exc
    return problem_from_dict(data)


def canonical_json(obj):
    """Canonical serialization: sorted keys, shortest round-trip decimals,
    finite numbers only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def input_digest(spec):
    """Content hash of the canonical problem serialization."""
    return hashlib.sha256(canonical_json(spec.to_dict()).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """A verdict with its evidence.  Construction refuses a stable verdict
    without a solution or with a failed detector hypothesis, and a verdict
    that contradicts the recorded spectral abscissa: stable needs it below
    0, unstable at or above -ABSCISSA_TOL."""

    verdict: str
    P: Optional[np.ndarray]
    residual: Optional[float]
    growth: Optional[GrowthBound]
    detectability: object
    cross_check_abscissa: float
    method: str
    reason: Optional[str]
    tool_version: str
    input_digest: str

    def __post_init__(self):
        if self.verdict == VERDICT_STABLE:
            if self.P is None or self.residual is None:
                raise InternalInconsistencyError(
                    "stable verdict without solution evidence"
                )
            if not self.detectability.l2:
                raise InternalInconsistencyError(
                    "stable verdict with failed detector hypothesis"
                )
        a = self.cross_check_abscissa
        if (self.verdict == VERDICT_STABLE and not a < 0.0) or \
                (self.verdict == VERDICT_UNSTABLE and not a >= -ABSCISSA_TOL):
            raise InternalInconsistencyError(
                "verdict contradicts the spectral cross-check",
                diagnostics={"verdict": self.verdict, "abscissa": a},
            )

    def to_dict(self):
        """Schema 1: each fact once.  ``detectability`` carries only the L2
        decision (the injection F stays on the report), and eps* sits at
        the top level."""
        return {
            "schema": CERTIFICATE_SCHEMA,
            "verdict": self.verdict,
            "P": None if self.P is None else self.P.tolist(),
            "residual": self.residual,
            "growth": None
            if self.growth is None
            else {"M": self.growth.M, "eps": self.growth.eps},
            "detectability": {"l2": self.detectability.l2},
            "eps_star": self.detectability.eps_star,
            "cross_check_abscissa": self.cross_check_abscissa,
            "method": self.method,
            "reason": self.reason,
            "tool_version": self.tool_version,
            "input_digest": self.input_digest,
        }

    def to_json(self):
        return canonical_json(self.to_dict())


def direct_solution(pair):
    """The solution a certificate carries and its Frobenius residual
    ||A'P + PA + Q||: lyap_solve_direct on the pair's Schur form."""
    P = lyap_solve_direct(pair.schur, pair.Q)
    return P, vector_norm(lyap_apply(pair.A, P) + pair.Q, 2)


def wonham_certify(spec):
    """Certify exponential stability from a detectable Lyapunov problem.

    Pipeline: detectability report (fails -> Inconclusive); direct Lyapunov
    solve (resonant spectrum -> spectral-only verdict); positive solution
    -> ExponentiallyStable with growth bound and an independent
    integral-solver cross-check; indefinite solution -> Unstable.  The
    detectability report, the direct solve, the growth bound and the
    recorded spectral abscissa share the pair's one Schur form; any verdict
    inconsistent with that abscissa raises.
    """
    pair = spec.pair
    report = detectability_report(pair, t0=spec.t0)
    form = pair.schur
    abscissa = form.abscissa
    digest = input_digest(spec)

    def finish(verdict, P=None, residual=None, growth=None, method="lyapunov",
               reason=None):
        return Certificate(
            verdict=verdict,
            P=P,
            residual=residual,
            growth=growth,
            detectability=report,
            cross_check_abscissa=abscissa,
            method=method,
            reason=reason,
            tool_version=__version__,
            input_digest=digest,
        )

    if not report.l2:
        return finish(VERDICT_INCONCLUSIVE, reason="detector hypothesis fails")

    try:
        P, residual = direct_solution(pair)
    except ResonantSpectrumError as exc:
        # resonance forces abscissa >= 0: never exponentially stable
        return finish(
            VERDICT_UNSTABLE,
            method="spectral-only",
            reason=f"resonant spectrum: {exc.pair}",
        )

    lam = np.linalg.eigvalsh(P)
    if spectrum_is_psd(lam, PSD_RTOL):
        growth = growth_fit(form)
        P_int = lyap_solve_integral(pair.A, pair.Q)
        gap = vector_norm(P_int - P, 2) / max(vector_norm(P, 2), 1.0)
        if gap > CROSS_CHECK_RTOL:
            raise InternalInconsistencyError(
                "integral solver disagrees with the direct solution",
                diagnostics={"gap": gap},
            )
        return finish(VERDICT_STABLE, P=P, residual=residual, growth=growth)
    return finish(
        VERDICT_UNSTABLE,
        P=P,
        residual=residual,
        reason=f"solution indefinite: lambda_min = {lam[0]:.6e}",
    )


# ---------------------------------------------------------------------------
# Gallery and CSV probes
# ---------------------------------------------------------------------------

GALLERY_FIXTURES = (
    (
        "stable_detectable",
        {"A": [[0.0, 1.0], [-2.0, -3.0]], "C": [[1.0, 0.0]]},
        VERDICT_STABLE,
    ),
    (
        "unstable_detectable",
        {"A": [[1.0, 0.0], [0.0, -2.0]], "C": [[1.0, 0.0]]},
        VERDICT_UNSTABLE,
    ),
    (
        "undetectable_psd_solution",
        {"A": [[1.0]], "Q": [[0.0]]},
        VERDICT_INCONCLUSIVE,
    ),
    (
        "resonant_spectrum",
        {"A": [[0.0, 1.0], [-1.0, 0.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
        VERDICT_UNSTABLE,
    ),
    (
        "metzler_weak_detector",
        {"A": [[1.0, 0.0], [0.0, -1.0]], "C": [[1.0, 0.0]]},
        VERDICT_UNSTABLE,
    ),
)


def run_gallery(out_dir):
    """Write the fixture corpus: problem + certificate pairs pinning the
    pipeline's behavior (stability, detectability, resonance, necessity of
    the detector hypothesis).  Deterministic: re-runs are byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for name, problem, expected in GALLERY_FIXTURES:
        spec = problem_from_dict(problem)
        cert = wonham_certify(spec)
        if cert.verdict != expected:
            raise InternalInconsistencyError(
                f"gallery fixture {name!r} produced {cert.verdict}, "
                f"expected {expected}"
            )
        ppath = os.path.join(out_dir, f"{name}.problem.json")
        cpath = os.path.join(out_dir, f"{name}.certificate.json")
        with open(ppath, "w") as fh:
            fh.write(canonical_json(spec.to_dict()) + "\n")
        with open(cpath, "w") as fh:
            fh.write(cert.to_json() + "\n")
        records.append({"name": name, "problem": ppath, "certificate": cpath,
                        "verdict": cert.verdict})
    return records


def emit_decay_csv(spec, horizon, steps, out):
    """Write the decay observables of the trajectory v(t) = e^{tA}x of the
    normalized all-ones state x to CSV: t, ||v(t)||_2 and <Q v(t), v(t)>,
    at t_k = k*horizon/steps for k = 0..steps.

    One exponential F = e^{(horizon/steps) A} and the recurrence v <- F v
    give the rows, so memory does not grow with ``steps``.  The first t at
    which either observable is not finite raises NumericalError; the rows
    before it stay written.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pair = spec.pair
    v = np.ones(spec.n) / np.sqrt(spec.n)
    with open(out, "w", newline="") as fh, \
            np.errstate(over="ignore", invalid="ignore"):
        F = expm(pair.A, float(horizon) / steps)
        writer = csv.writer(fh)
        writer.writerow(["t", "state_norm", "paired_QTt"])
        for t in np.linspace(0.0, float(horizon), steps + 1):
            norm, paired = vector_norm(v, 2), float(v @ pair.Q @ v)
            if not (math.isfinite(norm) and math.isfinite(paired)):
                raise NumericalError(
                    f"decay probe: state or Q-form is not finite at t = {t:.17g}"
                )
            writer.writerow([f"{t:.17g}", f"{norm:.17g}", f"{paired:.17g}"])
            v = F @ v
    return out
