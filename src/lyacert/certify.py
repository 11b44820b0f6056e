"""Problem ingestion, the Wonham certification pipeline, and reporting.

A certificate's evidence is always the triple (P, residual, detectability):
stability is claimed from a positive solution of A'P + PA = -C'C with a
detectable right-hand side, never from eigenvalues.  One real Schur form of
A (linalg.SchurForm) serves the whole certificate: the Hautus test reads
its eigenvalues, the direct solve and the growth envelope solve through it,
and its spectral abscissa is recorded purely as a cross-check; a verdict
inconsistent with that abscissa raises instead of emitting a silent
certificate.
"""

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .detect import ObservedPair, detectability_report
from .exceptions import (
    InternalInconsistencyError,
    ProblemFormatError,
    ResonantSpectrumError,
)
from .linalg import (
    ABSCISSA_TOL,
    GrowthBound,
    as_matrix,
    as_square,
    check_symmetric,
    expm_grid,
    growth_fit,
    spectral_abscissa,  # noqa: F401 (kept importable from this module)
    spectrum_is_psd,
)
from .lyapunov import (
    lyap_apply,
    lyap_solve_direct,
    lyap_solve_integral,
    rkhs_factor,
)

__all__ = [
    "ProblemSpec",
    "Certificate",
    "VERDICT_STABLE",
    "VERDICT_UNSTABLE",
    "VERDICT_INCONCLUSIVE",
    "parse_problem",
    "problem_from_dict",
    "canonical_json",
    "input_digest",
    "wonham_certify",
    "run_gallery",
    "emit_decay_csv",
]

VERDICT_STABLE = "ExponentiallyStable"
VERDICT_UNSTABLE = "Unstable"
VERDICT_INCONCLUSIVE = "Inconclusive"

DEFAULT_TOLERANCES = {
    "residual": 1e-8,   # relative residual bound for the Lyapunov solve
    "psd": 1e-9,        # relative lambda_min slack for calling P positive
    "abscissa": ABSCISSA_TOL,  # stability threshold on the spectral cross-check
    "cross_check": 1e-6,  # direct vs integral solver agreement
}


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
    t0, when given, and every tolerance must be finite and positive;
    tolerance keys are those of DEFAULT_TOLERANCES."""

    A: np.ndarray
    C: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    t0: Optional[float] = None
    tolerances: dict = field(default_factory=dict)

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
        if not isinstance(self.tolerances, dict):
            raise ProblemFormatError("must be an object", location="tolerances")
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ProblemFormatError(
                    f"unknown tolerance, expected one of {sorted(DEFAULT_TOLERANCES)}",
                    location=f"tolerances.{key}",
                )
            _check_positive_number(value, f"tolerances.{key}")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances)
        object.__setattr__(self, "tolerances", tols)

    @property
    def n(self):
        return self.A.shape[0]

    def to_dict(self):
        d = {
            "A": self.A.tolist(),
            "tolerances": dict(sorted(self.tolerances.items())),
        }
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
    known = {"A", "C", "Q", "t0", "tolerances"}
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
            tolerances=d.get("tolerances", {}),
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

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "P": None if self.P is None else self.P.tolist(),
            "residual": self.residual,
            "growth": None
            if self.growth is None
            else {"M": self.growth.M, "eps": self.growth.eps},
            "detectability": self.detectability.to_dict(),
            "eps_star": self.detectability.eps_star,
            "cross_check_abscissa": self.cross_check_abscissa,
            "method": self.method,
            "reason": self.reason,
            "tool_version": self.tool_version,
            "input_digest": self.input_digest,
        }

    def to_json(self):
        return canonical_json(self.to_dict())


def output_map(C, Q):
    """The output map of a right-hand side: C when given, else the RKHS
    factor of Q (C'C = Q) padded to one zero row when Q has rank 0."""
    if C is not None:
        return C
    C = rkhs_factor(Q)
    if C.shape[0] == 0:
        C = np.zeros((1, Q.shape[0]))  # C'C unchanged
    return C


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
    tols = spec.tolerances
    A = spec.A
    C = output_map(spec.C, spec.Q)
    pair = ObservedPair(A=A, C=C)
    report = detectability_report(pair, t0=spec.t0)
    form = pair.schur
    abscissa = form.abscissa
    digest = input_digest(spec)

    def finish(verdict, P=None, residual=None, growth=None, method="lyapunov",
               reason=None):
        cert = Certificate(
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
        _check_abscissa_consistency(cert, tols)
        return cert

    if not report.l2:
        return finish(VERDICT_INCONCLUSIVE, reason="detector hypothesis fails")

    Q = C.T @ C
    try:
        P = lyap_solve_direct(form, Q, residual_rtol=tols["residual"])
    except ResonantSpectrumError as exc:
        # resonance forces abscissa >= 0: never exponentially stable
        return finish(
            VERDICT_UNSTABLE,
            method="spectral-only",
            reason=f"resonant spectrum: {exc.pair}",
        )

    residual = float(np.linalg.norm(lyap_apply(A, P) + Q))
    lam = np.linalg.eigvalsh(P)
    if spectrum_is_psd(lam, tols["psd"]):
        growth = growth_fit(form)
        P_int = lyap_solve_integral(A, Q)
        gap = np.linalg.norm(P_int - P) / max(np.linalg.norm(P), 1.0)
        if gap > tols["cross_check"]:
            raise InternalInconsistencyError(
                "integral solver disagrees with the direct solution",
                diagnostics={"gap": float(gap)},
            )
        return finish(VERDICT_STABLE, P=P, residual=residual, growth=growth)
    return finish(
        VERDICT_UNSTABLE,
        P=P,
        residual=residual,
        reason=f"solution indefinite: lambda_min = {lam[0]:.6e}",
    )


def _check_abscissa_consistency(cert, tols):
    a = cert.cross_check_abscissa
    ok = {
        VERDICT_STABLE: a < 0.0,
        VERDICT_UNSTABLE: a >= -tols["abscissa"],
        VERDICT_INCONCLUSIVE: True,
    }[cert.verdict]
    if not ok:
        raise InternalInconsistencyError(
            "verdict contradicts the spectral cross-check",
            diagnostics={"verdict": cert.verdict, "abscissa": a},
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
    import os

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
    """Sample decay observables along the trajectory of the normalized
    all-ones state: Euclidean state norm and <Q T(t)x, T(t)x>."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    A = spec.A
    n = spec.n
    C = output_map(spec.C, spec.Q)
    Q = C.T @ C
    x = np.ones(n) / np.sqrt(n)
    ts, mats = expm_grid(A, horizon, steps)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "state_norm", "paired_QTt"])
        for t, E in zip(ts, mats):
            v = E @ x
            writer.writerow(
                [
                    f"{t:.17g}",
                    f"{float(np.linalg.norm(v)):.17g}",
                    f"{float(v @ Q @ v):.17g}",
                ]
            )
    return out
