import json
import os
import subprocess
import sys

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
from lyacert.exceptions import ProblemFormatError, ResonantSpectrumError
from lyacert.linalg import spectral_abscissa
from lyacert.lyapunov import lyap_solve_direct

from conftest import random_observed_pair, slow_decay_problem


class TestProblemSpec:
    def test_requires_exactly_one_rhs(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]]})
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]], "C": [[1.0]], "Q": [[1.0]]})

    def test_dimension_check(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"A": [[1.0]], "C": [[1.0, 2.0]]})

    def test_tolerances_merged_with_defaults(self):
        spec = problem_from_dict(
            {"A": [[-1.0]], "C": [[1.0]], "tolerances": {"residual": 1e-6}}
        )
        assert spec.tolerances["residual"] == 1e-6
        assert spec.tolerances["psd"] == 1e-9

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
            "tolerances": {"residual": 1e-8, "psd": 1e-9},
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

    def test_certificate_json_fields(self):
        spec = problem_from_dict({"A": [[-1.0]], "C": [[1.0]], "t0": 1.0})
        cert = wonham_certify(spec)
        d = json.loads(cert.to_json())
        assert set(d) == {
            "verdict", "P", "residual", "growth", "detectability", "eps_star",
            "cross_check_abscissa", "method", "reason", "tool_version",
            "input_digest",
        }
        assert d["eps_star"]["t0"] == 1.0
        assert d["tool_version"]


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
        # one gees serves the Hautus test, the abscissa, the direct solve and
        # the growth bound; eigvals runs only on the injection's A - FC
        spec = problem_from_dict(problem)
        cert = wonham_certify(spec)
        assert cert.verdict == verdict
        assert factorizations["gees"] == 1
        F = cert.detectability.F
        C = spec.C if spec.C is not None else lyacert.certify.output_map(None, spec.Q)
        assert len(factorizations["eigvals"]) == 1
        np.testing.assert_allclose(factorizations["eigvals"][0], spec.A - F @ C,
                                   atol=1e-12)


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
