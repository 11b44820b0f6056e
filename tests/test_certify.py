import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lyacert
from lyacert.certify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    ProblemSpec,
    canonical_json,
    emit_decay_csv,
    input_digest,
    parse_problem,
    problem_from_dict,
    run_gallery,
    wonham_certify,
)
from lyacert.exceptions import (
    InternalInconsistencyError,
    NumericalError,
    ProblemFormatError,
    ResonantSpectrumError,
)
from lyacert.linalg import expm, spectral_abscissa
from lyacert.lyapunov import lyap_solve_direct

from conftest import (
    benchmark_module,
    heat_equation_problem,
    random_observed_pair,
    slow_decay_problem,
)

#: the top-level keys of a schema-1 certificate
SCHEMA_1_KEYS = {
    "schema", "verdict", "P", "residual", "growth", "detectability",
    "eps_star", "cross_check_abscissa", "method", "reason", "tool_version",
    "input_digest",
}


def left_eigenvector_pair(seed):
    """A = S diag(-1, -2, -3, -4) S' with S the Q factor of a seeded
    Gaussian, and C = e_1'S', a left eigenvector of A: the Krylov matrix
    [C; CA; CA^2; CA^3] has rank exactly 1."""
    S, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return S @ np.diag([-1.0, -2.0, -3.0, -4.0]) @ S.T, S[:, :1].T


class TestProblemSpec:
    def test_requires_exactly_one_rhs(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]]})
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]], "C": [[1.0]], "Q": [[1.0]]})

    def test_dimension_check(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]], "C": [[1.0, 2.0]]})

    def test_unknown_field_rejected_with_location(self):
        # no certificate depends on p, cone or seed: they are unknown fields
        for field, value in [("bogus", 1), ("p", 2.0), ("seed", 42),
                             ("cone", {"cone": "psd", "dim": 1})]:
            with pytest.raises(ProblemFormatError,
                               match=rf"unknown fields \['{field}'\]") as info:
                problem_from_dict({"A": [[-1.0]], "C": [[1.0]], field: value})
            assert info.value.location == field

    def test_malformed_json_carries_location(self):
        with pytest.raises(ProblemFormatError, match="problem.json"):
            parse_problem("{not json", location="problem.json")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        original = {
            "A": [[0.0, 1.0], [-2.0, -3.0]],
            "C": [[1.0, 0.3]],
            "t0": 1.0,
        }
        spec = problem_from_dict(original)
        text = canonical_json(spec.to_dict())
        spec2 = parse_problem(text)
        assert spec == spec2
        assert canonical_json(spec2.to_dict()) == text

    def test_floats_roundtrip_bit_exact(self):
        vals = [0.1, 1e-300, 3.141592653589793, -2.2250738585072014e-308]
        spec = problem_from_dict({"A": [[vals[0], vals[1]], [vals[2], vals[3]]],
                                  "Q": [[1.0, 0.0], [0.0, 1.0]]})
        spec2 = parse_problem(canonical_json(spec.to_dict()))
        assert spec2.A.tolist() == spec.A.tolist()

    def test_digest_deterministic_and_content_sensitive(self):
        a = problem_from_dict({"A": [[-1.0]], "C": [[1.0]]})
        b = problem_from_dict({"A": [[-1.0]], "C": [[1.0]]})
        c = problem_from_dict({"A": [[-1.5]], "C": [[1.0]]})
        assert input_digest(a) == input_digest(b)
        assert input_digest(a) != input_digest(c)
        assert len(input_digest(a)) == 64


class TestWonhamCertify:
    def test_stable_fixture(self):
        spec = problem_from_dict({"A": [[-0.5, 0.0], [0.0, -0.5]],
                                  "C": [[1.0, 0.0], [0.0, 1.0]]})
        cert = wonham_certify(spec)
        assert cert.verdict == VERDICT_STABLE
        np.testing.assert_allclose(cert.P, np.eye(2), atol=1e-10)
        assert cert.residual <= 1e-12
        assert cert.growth is not None
        assert cert.method == "lyapunov"

    def test_unstable_detectable(self):
        spec = problem_from_dict({"A": [[1.0, 0.0], [0.0, -2.0]], "C": [[1.0, 0.0]]})
        cert = wonham_certify(spec)
        assert cert.verdict == VERDICT_UNSTABLE
        assert cert.P is not None  # solution exists, fails PSD
        assert np.linalg.eigvalsh(np.asarray(cert.P))[0] < 0

    def test_hypothesis_necessity(self):
        # PSD solution P = 0 exists, but the pair is undetectable: the
        # certificate must refuse to certify
        spec = problem_from_dict({"A": [[1.0]], "Q": [[0.0]]})
        cert = wonham_certify(spec)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.reason == "detector hypothesis fails"
        assert not cert.detectability.l2

    def test_resonant_spectral_only(self):
        spec = problem_from_dict({"A": [[0.0, 1.0], [-1.0, 0.0]],
                                  "C": [[1.0, 0.0], [0.0, 1.0]]})
        cert = wonham_certify(spec)
        assert cert.verdict == VERDICT_UNSTABLE
        assert cert.method == "spectral-only"
        assert cert.P is None

    def test_resonant_reports_first_pair(self):
        # eigenvalues -2, -1, 1, 2: the pairs (0, 3) and (1, 2) both
        # resonate; the first in row-major order is named
        A = np.diag([2.0, 1.0, -1.0, -2.0])
        with pytest.raises(ResonantSpectrumError,
                           match=r"lambda_0 \+ lambda_3 = ") as info:
            lyap_solve_direct(A, np.eye(4))
        assert info.value.pair == (-2 + 0j, 2 + 0j)
        cert = wonham_certify(ProblemSpec(A=A, C=np.ones((1, 4))))
        assert cert.method == "spectral-only"
        assert cert.reason == "resonant spectrum: ((-2+0j), (2+0j))"

    @pytest.mark.parametrize("alpha, seed", [
        pytest.param(-1e-5, 4, id="-1e-05"),
        pytest.param(-1e-6, 4, id="-1e-06"),
        # ||A|| ||P|| / ||Q|| above 1e9: only a backward-error gate passes
        *(pytest.param(-1e-6, seed, id=f"-1e-06-seed{seed}")
          for seed in (3, 6, 9, 11)),
    ])
    def test_slow_decay_certified(self, alpha, seed):
        # slowly decaying and strongly non-normal: both solvers must still
        # meet the residual gate and converge
        spec = problem_from_dict(slow_decay_problem(alpha, seed=seed))
        cert = wonham_certify(spec)
        assert cert.verdict == VERDICT_STABLE
        Q = spec.C.T @ spec.C
        assert np.linalg.norm(cert.P) >= 1e7
        if seed == 4:  # still within the forward bound; the others are not
            assert cert.residual <= 1e-8 * np.linalg.norm(Q)
        else:
            backward = 2 * np.linalg.norm(spec.A) * np.linalg.norm(cert.P) \
                + np.linalg.norm(Q)
            assert cert.residual <= 1e-8 * backward

    def test_certify_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes about a third of a second and 20 MB to
        # import; only polyhedral cones need it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from lyacert import ProblemSpec, wonham_certify\n"
            "A = np.array([[0.0, 1.0], [-2.0, -3.0]])\n"
            "cert = wonham_certify(ProblemSpec(A=A, C=np.array([[1.0, 0.0]])))\n"
            "assert cert.verdict == 'ExponentiallyStable', cert.verdict\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert 'scipy.sparse' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(lyacert.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_verdicts_agree_with_abscissa(self, rng):
        for _ in range(10):
            stable = rng.uniform() < 0.5
            pair = random_observed_pair(rng, 4, 2, stable=stable)
            spec = ProblemSpec(A=pair.A, C=pair.C)
            cert = wonham_certify(spec)
            abscissa = spectral_abscissa(pair.A)
            if cert.verdict == VERDICT_STABLE:
                assert abscissa < 0
            elif cert.verdict == VERDICT_UNSTABLE:
                assert abscissa >= -1e-10

    def test_left_eigenvector_pair_certifies_stable(self):
        # at 0.9.0 a file adding "tolerances": {"psd": 1e-300, "abscissa": 10}
        # to this pair got an Unstable verdict; the field is now refused
        A, C = left_eigenvector_pair(10)
        cert = wonham_certify(ProblemSpec(A=A, C=C))
        assert cert.verdict == VERDICT_STABLE
        assert cert.cross_check_abscissa == pytest.approx(-1.0)

    def test_certificate_refuses_verdict_against_abscissa(self):
        import dataclasses

        cert = wonham_certify(problem_from_dict({"A": [[-1.0]], "C": [[1.0]]}))
        # Stable needs an abscissa below 0, Unstable one at or above -1e-10
        for change in ({"cross_check_abscissa": 0.0},
                       {"verdict": VERDICT_UNSTABLE, "cross_check_abscissa": -1.5e-10}):
            with pytest.raises(InternalInconsistencyError,
                               match="contradicts the spectral cross-check"):
                dataclasses.replace(cert, **change)
        assert dataclasses.replace(cert, verdict=VERDICT_UNSTABLE,
                                   cross_check_abscissa=-1e-10).verdict == VERDICT_UNSTABLE

    def test_certificate_json_fields(self):
        spec = problem_from_dict({"A": [[-1.0]], "C": [[1.0]], "t0": 1.0})
        cert = wonham_certify(spec)
        d = json.loads(cert.to_json())
        assert set(d) == SCHEMA_1_KEYS
        assert d["schema"] == 1
        assert d["detectability"] == {"l2": True}
        assert d["eps_star"]["t0"] == 1.0
        assert d["tool_version"] == lyacert.__version__


class TestKrylovMisrank:
    @pytest.mark.xfail(strict=True, raises=InternalInconsistencyError, reason=(
        "ROADMAP item 1: the SVD of [C; CA; ...; CA^{n-1}] misranks "
        "single-output pairs at n >= 20"))
    def test_single_output_stable_pair_certifies(self):
        # planted like benchmarks/problems.stable: A = S T S' with T upper
        # triangular, real spectrum in [-1.5, -0.5], one Gaussian output
        n = 20
        rng = np.random.default_rng(0)
        lam = -0.5 - rng.uniform(0.05, 1.0, n)
        lam[0] = -0.5
        T = np.triu(rng.standard_normal((n, n)) * 0.5 / np.sqrt(n), 1) + np.diag(lam)
        S, R = np.linalg.qr(rng.standard_normal((n, n)))
        S = S * np.sign(np.diag(R))
        spec = ProblemSpec(A=S @ T @ S.T, C=rng.standard_normal((1, n)))
        assert wonham_certify(spec).verdict == VERDICT_STABLE


    @pytest.mark.xfail(strict=True, raises=InternalInconsistencyError, reason=(
        "ROADMAP item 1: the Krylov rank decision misranks a rank-1 Krylov "
        "matrix at n = 4 (18 of these 20 seeds)"))
    def test_left_eigenvector_output_certifies(self):
        for seed in range(20):
            A, C = left_eigenvector_pair(seed)
            assert wonham_certify(ProblemSpec(A=A, C=C)).verdict == VERDICT_STABLE

    @pytest.mark.xfail(strict=True, raises=NumericalError, reason=(
        "ROADMAP item 1: the Krylov blocks C A^k of the heat equation "
        "overflow at n = 100"))
    def test_heat_equation_certifies(self):
        spec = problem_from_dict(heat_equation_problem())
        assert wonham_certify(spec).verdict == VERDICT_STABLE


class TestOneSchurForm:
    @pytest.mark.parametrize("problem, verdict", [
        ({"A": [[0.0, 1.0], [-2.0, -3.0]], "C": [[1.0, 0.0]]}, VERDICT_STABLE),
        ({"A": [[-1.0, 2.0], [0.0, -3.0]], "Q": [[2.0, 1.0], [1.0, 1.0]], "t0": 1.0},
         VERDICT_STABLE),
        ({"A": [[1.0, 1.0], [0.0, -2.0]], "C": [[1.0, 1.0]]}, VERDICT_UNSTABLE),
        ({"A": [[0.0, 1.0], [-1.0, 0.0]], "C": [[1.0, 0.0]]}, VERDICT_UNSTABLE),
    ])
    def test_one_factorization_per_certificate(self, factorizations, problem,
                                               verdict):
        # one gees of A serves the Hautus test, the abscissa, the direct
        # solve and the growth bound; the second one is the injection's
        # A - FC, and no eigenvalue solver runs
        spec = problem_from_dict(problem)
        cert = wonham_certify(spec)
        assert cert.verdict == verdict
        F = cert.detectability.F
        C = spec.C if spec.C is not None else lyacert.certify.output_map(None, spec.Q)
        first, second = factorizations["gees"]
        np.testing.assert_array_equal(first, spec.A)
        np.testing.assert_allclose(second, spec.A - F @ C, atol=1e-12)
        assert factorizations["eigvals"] == []

    def test_one_pair_per_problem(self, monkeypatch, tmp_path):
        # the certificate, the decay probe and the eps* Gramian share one
        # factor of Q and one C'C
        calls = []
        factor = lyacert.certify.rkhs_factor
        monkeypatch.setattr(lyacert.certify, "rkhs_factor",
                            lambda Q: calls.append(Q) or factor(Q))
        spec = problem_from_dict(
            {"A": [[-1.0, 2.0], [0.0, -3.0]], "Q": [[2.0, 1.0], [1.0, 1.0]],
             "t0": 1.0})
        assert wonham_certify(spec).verdict == VERDICT_STABLE
        emit_decay_csv(spec, horizon=1.0, steps=2, out=str(tmp_path / "d.csv"))
        assert len(calls) == 1
        assert spec.pair is spec.pair and spec.pair.Q is spec.pair.Q
        np.testing.assert_allclose(spec.pair.Q, spec.Q, atol=1e-14)


class TestGallery:
    def test_fixture_corpus(self, tmp_path):
        records = run_gallery(tmp_path / "gallery")
        assert len(records) >= 5
        verdicts = {r["name"]: r["verdict"] for r in records}
        assert verdicts["stable_detectable"] == VERDICT_STABLE
        assert verdicts["unstable_detectable"] == VERDICT_UNSTABLE
        assert verdicts["undetectable_psd_solution"] == VERDICT_INCONCLUSIVE
        assert verdicts["resonant_spectrum"] == VERDICT_UNSTABLE
        assert verdicts["metzler_weak_detector"] == VERDICT_UNSTABLE

    def test_rerun_byte_identical(self, tmp_path):
        first = run_gallery(tmp_path / "g1")
        second = run_gallery(tmp_path / "g2")
        for r1, r2 in zip(first, second):
            with open(r1["certificate"], "rb") as fh:
                b1 = fh.read()
            with open(r2["certificate"], "rb") as fh:
                b2 = fh.read()
            assert b1 == b2
            with open(r1["problem"], "rb") as fh:
                p1 = fh.read()
            with open(r2["problem"], "rb") as fh:
                p2 = fh.read()
            assert p1 == p2

    def test_certificates_parse_and_agree_with_abscissa(self, tmp_path):
        for record in run_gallery(tmp_path / "gallery"):
            with open(record["certificate"]) as fh:
                cert = json.load(fh)
            with open(record["problem"]) as fh:
                spec = problem_from_dict(json.load(fh))
            abscissa = spectral_abscissa(spec.A)
            assert cert["cross_check_abscissa"] == pytest.approx(abscissa, abs=1e-12)
            if cert["verdict"] == VERDICT_STABLE:
                assert abscissa < 0


def _key_count(obj, key):
    """Occurrences of ``key`` as a dictionary key anywhere in ``obj``."""
    if isinstance(obj, dict):
        return (key in obj) + sum(_key_count(v, key) for v in obj.values())
    if isinstance(obj, list):
        return sum(_key_count(v, key) for v in obj)
    return 0


def _workload_certificates():
    """Certificates of the four benchmark workload rounds at seed 1; only
    the inputs labelled InternalInconsistencyError may raise it."""
    problems = benchmark_module("problems")
    for name, build in problems.WORKLOADS.items():
        for problem in build(1):
            try:
                cert = wonham_certify(parse_problem(problem["text"]))
            except InternalInconsistencyError:
                if problem.get("known_failure") != "InternalInconsistencyError":
                    raise
                continue
            yield name, cert.to_json()


class TestSchema1:
    def _check(self, text):
        d = json.loads(text)
        assert set(d) == SCHEMA_1_KEYS
        assert d["schema"] == 1
        assert set(d["detectability"]) == {"l2"}
        assert isinstance(d["detectability"]["l2"], bool)
        assert _key_count(d, "F") == 0
        assert _key_count(d, "eps_star") == 1
        assert d["eps_star"] is None or set(d["eps_star"]) == {"t0", "value"}

    def test_gallery(self, tmp_path):
        for record in run_gallery(tmp_path / "gallery"):
            with open(record["certificate"]) as fh:
                self._check(fh.read())

    def test_workload_rounds(self):
        counts = {}
        for name, text in _workload_certificates():
            self._check(text)
            counts[name] = counts.get(name, 0) + 1
        # the two mid-size inputs labelled as known failures give none
        assert counts == {"small-mix": 50, "mid-size": 28, "slow-decay": 53,
                          "batch": 200}


class TestDecayCsv:
    def test_exponential_decay_columns(self, tmp_path):
        spec = problem_from_dict({"A": [[-1.0, 0.0], [0.0, -1.0]],
                                  "C": [[1.0, 0.0], [0.0, 1.0]]})
        out = tmp_path / "decay.csv"
        emit_decay_csv(spec, horizon=2.0, steps=8, out=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,state_norm,paired_QTt"
        assert len(lines) == 10  # header + steps + 1
        for line in lines[1:]:
            t, state, paired = map(float, line.split(","))
            assert state == pytest.approx(np.exp(-t), abs=1e-10)
            assert paired == pytest.approx(state**2, abs=1e-10)

    @pytest.mark.parametrize("rhs", ["C", "Q"])
    def test_rows_match_pointwise_exponential(self, tmp_path, rhs):
        rng = np.random.default_rng(6)
        A = -np.eye(6) + np.triu(3.0 * rng.standard_normal((6, 6)), 1)
        C = rng.standard_normal((2, 6))
        Q = C.T @ C
        spec = problem_from_dict({"A": A.tolist(),
                                  rhs: (C if rhs == "C" else Q).tolist()})
        out = tmp_path / "decay.csv"
        emit_decay_csv(spec, horizon=3.0, steps=50, out=out)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], np.linspace(0.0, 3.0, 51))
        x = np.ones(6) / np.sqrt(6)
        for t, state, paired in rows:
            v = expm(A, t) @ x
            assert state == pytest.approx(np.linalg.norm(v), rel=1e-10)
            assert paired == pytest.approx(v @ Q @ v, rel=1e-10)

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # a stored (steps + 1) x n x n grid of e^{tA} would take 244 MiB
        n = 40
        spec = problem_from_dict({"A": (-np.eye(n)).tolist(),
                                  "C": np.eye(1, n).tolist()})
        tracemalloc.start()
        try:
            emit_decay_csv(spec, horizon=5.0, steps=20000, out=tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
