import json
import math
import warnings

import numpy as np
import pytest

from lyacert.cli import main

from conftest import benchmark_module, heat_equation_problem, slow_decay_problem

#: stable pair whose e^{t0 A} has condition number about e^{25}
DECAYING_PAIR = {"A": [[-0.5, 1.0], [0.0, -3.0]], "C": [[1.0, 0.0]], "t0": 10}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "A": [[0.0, 1.0], [-2.0, -3.0]],
        "C": [[1.0, 0.0]],
    }))
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, -2.0]], "C": [[1.0, 0.0]]}))
    return str(path)


@pytest.fixture
def undetectable_file(tmp_path):
    path = tmp_path / "undetectable.json"
    path.write_text(json.dumps({"A": [[1.0]], "Q": [[0.0]]}))
    return str(path)


class TestCertifyCommand:
    def test_stable_exit_zero(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        assert main(["certify", "--input", problem_file, "--out", out]) == 0
        cert = json.loads(open(out).read())
        assert cert["verdict"] == "ExponentiallyStable"

    def test_unstable_exit_two(self, unstable_file, capsys):
        assert main(["certify", "--input", unstable_file]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "Unstable"

    def test_inconclusive_exit_three(self, undetectable_file, capsys):
        assert main(["certify", "--input", undetectable_file]) == 3

    @pytest.mark.parametrize("alpha, seed", [
        pytest.param(-1e-5, 4, id="-1e-05"),
        pytest.param(-1e-6, 4, id="-1e-06"),
        # ||A|| ||P|| / ||Q|| above 1e9: only a backward-error gate passes
        *(pytest.param(-1e-6, seed, id=f"-1e-06-seed{seed}")
          for seed in (3, 6, 9, 11)),
    ])
    def test_slow_decay_exit_zero(self, tmp_path, capsys, alpha, seed):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(slow_decay_problem(alpha, seed=seed)))
        assert main(["certify", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "ExponentiallyStable"

    @pytest.mark.parametrize("text", [
        '{"A": [[-1%s]], "C": [[1.0]]}' % ("0" * 400),
        '{"A": [[-1.0]], "C": [[1.0]], "t0": 1%s}' % ("0" * 5000),
    ], ids=["matrix-entry-beyond-float", "integer-beyond-digit-limit"])
    def test_huge_integer_literal_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["certify", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_final_observability_of_decaying_pair(self, tmp_path, capsys):
        # e^{t0 A'} e^{t0 A} has condition number about e^{50}, beyond double
        # precision; eps* comes from the Gramian of (C, -A) without it
        path = tmp_path / "decaying.json"
        path.write_text(json.dumps(DECAYING_PAIR))
        assert main(["certify", "--input", str(path)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["eps_star"]["t0"] == 10.0
        assert math.isfinite(cert["eps_star"]["value"])
        assert cert["detectability"] == {"l2": True}

    def test_final_observability_overflow_exit_one(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]], "t0": 1000}))
        assert main(["certify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "final observability" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", [1e308, 1.7e308])
    def test_overflowing_q_exit_one(self, tmp_path, capsys, recwarn, q):
        # Q is finite and symmetric, but P = Q / 2 leaves no room for the
        # residual A'P + PA; the overflows on the way are not warned about
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"A": [[-1.0]], "Q": [[q]]}))
        assert main(["certify", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: Lyapunov solve: P is not finite\n"
        assert [str(w.message) for w in recwarn
                if issubclass(w.category, RuntimeWarning)] == []

    def test_overflowing_krylov_block_exit_one(self, tmp_path, capsys, recwarn):
        path = tmp_path / "heat.json"
        path.write_text(json.dumps(heat_equation_problem()))
        assert main(["certify", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: unobservable subspace: Krylov block")
        assert [str(w.message) for w in recwarn
                if issubclass(w.category, RuntimeWarning)] == []

    def test_q_near_float_max_certifies(self, tmp_path, capsys, recwarn):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"A": [[-1.0]], "Q": [[1e300]]}))
        assert main(["certify", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in recwarn
                if issubclass(w.category, RuntimeWarning)] == []

    def test_large_output_map_certifies(self, tmp_path, capsys, recwarn):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"A": [[-1.0]], "C": [[1e78]]}))
        assert main(["certify", "--input", str(path)]) == 0
        assert [str(w.message) for w in recwarn
                if issubclass(w.category, RuntimeWarning)] == []

    def test_final_observability_of_large_output_map(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"A": [[-1.0]], "C": [[1e150]], "t0": 1}))
        assert main(["certify", "--input", str(path)]) == 0
        eps_star = json.loads(capsys.readouterr().out)["eps_star"]["value"]
        assert eps_star == pytest.approx(1e300 * (math.e**2 - 1) / 2, rel=1e-10)

    def test_ill_conditioned_riccati_no_traceback(self, tmp_path, capsys):
        # scaled by 1e-6, the pencil reordering inside the Riccati solve may
        # fail; that must come out as an error line, not a traceback
        r = np.random.default_rng(0)
        A = r.standard_normal((8, 8)) / np.sqrt(8)
        A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(8)
        C = r.standard_normal((2, 8))
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"A": (1e-6 * (A + np.eye(8))).tolist(),
                                    "C": C.tolist()}))
        assert main(["certify", "--input", str(path)]) in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["certify", "--input", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["certify", "--input", str(bad)]) == 1
        not_utf8 = tmp_path / "latin.json"
        not_utf8.write_bytes(b"\xff{}")
        assert main(["certify", "--input", str(not_utf8)]) == 1
        err = capsys.readouterr().err
        assert f"error: {not_utf8}: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("p", 2.0),
        ("cone", {"cone": "psd", "dim": 1}),
        ("seed", 42),
        # the gates are program constants; at 0.9.0 these values turned a
        # stable pair into an Unstable verdict
        ("tolerances", {"psd": 1e-300, "abscissa": 10.0}),
    ])
    def test_removed_field_exit_one(self, tmp_path, capsys, field, value):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]], field: value}))
        assert main(["certify", "--input", str(path)]) == 1
        assert f"unknown fields ['{field}']" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, location", [
        ("t0", -1, "t0"),
        ("t0", 0, "t0"),
        ("t0", float("nan"), "t0"),
        ("t0", "1.5", "t0"),
        ("t0", True, "t0"),
        ("t0", "x", "t0"),
        pytest.param("t0", 10**400, "t0", id="t0-beyond-float"),
        pytest.param("C", [[1e200]], "C", id="gramian-beyond-float"),
    ])
    def test_bad_t0_or_tolerance_exit_one(self, tmp_path, capsys, field, value,
                                          location):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]], field: value}))
        assert main(["certify", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {location}: ")


class TestSolveCommand:
    @pytest.mark.parametrize("name", ["stable_detectable", "unstable_detectable"])
    def test_prints_the_certificate_solution(self, tmp_path, capsys, name):
        # solve takes the certificate's one route, so it prints its P and
        # residual bit for bit
        assert main(["gallery", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = str(tmp_path / f"{name}.problem.json")
        main(["certify", "--input", path])
        cert = json.loads(capsys.readouterr().out)
        assert cert["P"] is not None
        assert main(["solve", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "P": cert["P"], "residual": cert["residual"]}

    def test_method_flag_is_gone(self, problem_file, capsys):
        assert main(["solve", "--input", problem_file, "--method", "integral"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_direct_honours_residual_tolerance(self, tmp_path, capsys,
                                               perturbed_trsyl):
        # certify and solve are held to the one lyapunov.RESIDUAL_RTOL
        path = tmp_path / "stable.json"
        path.write_text(json.dumps({
            "A": [[0.0, 1.0], [-2.0, -3.0]],
            "C": [[1.0, 0.0]],
        }))
        assert main(["certify", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: Lyapunov solve residual too large\n"
        assert main(["solve", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Lyapunov solve residual too large\n"
        assert captured.out == ""


class TestDetectObserveCommands:
    def test_detect(self, unstable_file, capsys):
        assert main(["detect", "--input", unstable_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"F", "l2", "eps_star"}
        assert report["l2"] is True and report["F"] is not None

    def test_observe(self, problem_file, capsys):
        assert main(["observe", "--input", problem_file, "--t0", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eps_star"] > 0 and out["finally_observable"] is True

    def test_observe_decaying_pair(self, tmp_path, capsys):
        path = tmp_path / "decaying.json"
        path.write_text(json.dumps(DECAYING_PAIR))
        assert main(["observe", "--input", str(path), "--t0", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert math.isfinite(out["eps_star"]) and out["finally_observable"] is True

    @pytest.mark.parametrize("problem, observable", [
        # eps* = 5.8e-13, 1e-12 times the unscaled pair's
        ({"A": [[0.0, 1.0], [-2.0, -3.0]], "C": [[1e-6, 0.0]]}, True),
        # n = 22, rank-3 Q, eps* rounds to -1.0e-15: the rank test decides
        (json.loads(benchmark_module("problems").mid_size(1)[17]["text"]), True),
        # n = 60, square Gaussian C: the Krylov rank test misranks this one,
        # the Gramian decides it
        (json.loads(benchmark_module("problems").stable(
            np.random.default_rng(0), 60, -0.5, 60)["text"]), True),
        # e_2 is unobservable
        ({"A": [[-1.0, 0.0], [0.0, -2.0]], "C": [[1.0, 0.0]]}, False),
    ], ids=["scaled-output", "mid-size-17", "full-rank-60", "unobservable"])
    def test_observe_decision(self, tmp_path, capsys, problem, observable):
        # at t0 > 0 final observability is observability, however eps* rounds
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(problem))
        assert main(["observe", "--input", str(path), "--t0", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["finally_observable"] is observable

    def test_detect_with_q_rhs(self, tmp_path, capsys):
        # Q-only problems route through the spectral factor Q = C'C
        path = tmp_path / "q.json"
        path.write_text(json.dumps({
            "A": [[-0.5, 0.0], [0.0, -0.25]],
            "Q": [[1.0, 0.1], [0.1, 1.0]],
        }))
        assert main(["detect", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["l2"] is True and report["F"] is not None


class TestProbeAndNorms:
    def test_probe_writes_csv(self, problem_file, tmp_path):
        csv_path = tmp_path / "probe.csv"
        assert main(["probe", "--input", problem_file, "--horizon", "2.0",
                     "--steps", "5", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,state_norm,paired_QTt"
        assert len(lines) == 7

    def test_probe_stops_on_overflow(self, tmp_path, capsys):
        # e^{tA} overflows at t = 500; the rows before it stay written
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"A": [[1, 0], [0, -1]], "C": [[1, 1]]}))
        csv_path = tmp_path / "probe.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["probe", "--input", str(path), "--horizon", "1000",
                         "--steps", "4", "--csv", str(csv_path)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == (
            "error: decay probe: state or Q-form is not finite at t = 500\n")
        lines = csv_path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["t", "0", "250"]

    def test_norms_exact_p2(self, problem_file, capsys):
        assert main(["norms", "--input", problem_file, "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        assert out["induced"] == pytest.approx(float(np.linalg.norm(A, 2)))
        sv = np.linalg.svd(A, compute_uv=False)
        assert out["nuclear"] == pytest.approx(float(sv.sum()))

    def test_norms_interval_p3(self, problem_file, capsys):
        assert main(["norms", "--input", problem_file, "--p", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["induced"]["lower"] <= out["induced"]["upper"]

    @pytest.mark.parametrize("p", ["1.0000001", "2000"])
    def test_norms_interval_at_extreme_exponent(self, problem_file, capsys, p):
        # at p = 1.0000001 the dual exponent is 1e7: no power may underflow
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["norms", "--input", problem_file, "--p", p]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err == ""
        induced = json.loads(captured.out)["induced"]
        assert 0 < induced["lower"] <= induced["upper"]


class TestBatch:
    def test_batch_over_gallery(self, tmp_path, capsys):
        assert main(["gallery", "--out", str(tmp_path / "g")]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "certs"
        assert main(["certify", "--batch", str(tmp_path / "g"),
                     "--out", str(out_dir), "--workers", "2"]) == 0
        certs = sorted(out_dir.glob("*.certificate.json"))
        assert len(certs) == 5
        verdicts = {c.name: json.loads(c.read_text())["verdict"] for c in certs}
        assert verdicts["stable_detectable.certificate.json"] == "ExponentiallyStable"

    def test_batch_reports_bad_file_and_certifies_the_rest(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(
            json.dumps({"A": [[-1.0]], "C": [[1.0]], "t0": -1}))
        (tmp_path / "good.json").write_text(
            json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        (tmp_path / "latin.json").write_bytes(b"\xff{}")
        (tmp_path / "sub.json").mkdir()
        # a certificate path that cannot be written
        (tmp_path / "a.json").write_text(
            json.dumps({"A": [[-2.0]], "C": [[1.0]]}))
        (tmp_path / "a.certificate.json").mkdir()
        assert main(["certify", "--batch", str(tmp_path), "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert f"error: {tmp_path / 'a.json'}: " in captured.err
        assert f"error: {tmp_path / 'bad.json'}: t0: " in captured.err
        assert f"error: {tmp_path / 'latin.json'}: " in captured.err
        assert f"error: {tmp_path / 'sub.json'}: " in captured.err
        assert captured.err.count("error: ") == 4
        assert f"{tmp_path / 'good.json'}: ExponentiallyStable" in captured.out
        cert = json.loads((tmp_path / "good.certificate.json").read_text())
        assert cert["verdict"] == "ExponentiallyStable"

    def test_batch_reports_overflowing_q_and_certifies_the_rest(self, tmp_path,
                                                                capsys):
        (tmp_path / "big.json").write_text(
            json.dumps({"A": [[-1.0]], "Q": [[1e308]]}))
        (tmp_path / "good.json").write_text(
            json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        assert main(["certify", "--batch", str(tmp_path), "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert (f"error: {tmp_path / 'big.json'}: Lyapunov solve: P is not finite"
                in captured.err)
        assert captured.out.splitlines() == [
            f"{tmp_path / 'good.json'}: ExponentiallyStable"]

    def test_batch_certifies_decaying_pair(self, tmp_path, capsys):
        (tmp_path / "decaying.json").write_text(json.dumps(DECAYING_PAIR))
        (tmp_path / "good.json").write_text(
            json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        assert main(["certify", "--batch", str(tmp_path), "--workers", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{tmp_path / 'decaying.json'}: ExponentiallyStable",
                         f"{tmp_path / 'good.json'}: ExponentiallyStable"]

    def test_batch_forks_no_more_workers_than_files(self, tmp_path, capsys,
                                                    monkeypatch):
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(
                json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        assert main(["certify", "--batch", str(tmp_path), "--workers", "4"]) == 0
        assert started == [2]

    def test_batch_refuses_colliding_outputs(self, tmp_path, capsys):
        # both inputs would write a.certificate.json, the second over the first
        (tmp_path / "a.json").write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        (tmp_path / "a.problem.json").write_text(
            json.dumps({"A": [[1.0]], "C": [[1.0]]}))
        out_dir = tmp_path / "certs"
        assert main(["certify", "--batch", str(tmp_path), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {tmp_path / 'a.json'} and {tmp_path / 'a.problem.json'} "
            f"both write {out_dir / 'a.certificate.json'}\n")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_batch_empty_dir_errors(self, tmp_path, capsys):
        assert main(["certify", "--batch", str(tmp_path)]) == 1

    def test_certify_requires_input_or_batch(self, capsys):
        assert main(["certify"]) == 1

    def test_input_with_batch_refused(self, tmp_path, capsys):
        # the unstable input alone exits 2; with --batch it must not vanish
        # into a batch run that exits 0
        problem = tmp_path / "x.json"
        problem.write_text(json.dumps({"A": [[1.0]], "C": [[1.0]]}))
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "good.json").write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]]}))
        assert main(["certify", "--input", str(problem), "--batch", str(batch)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: give exactly one of --input and --batch\n"
        assert captured.out == ""
        assert list(batch.iterdir()) == [batch / "good.json"]


class TestGalleryAndAudit:
    def test_gallery(self, tmp_path, capsys):
        assert main(["gallery", "--out", str(tmp_path / "g")]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) >= 5

    def test_audit_lemmas(self, capsys):
        assert main(["audit-lemmas", "--n", "5", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert out["max_residuals"]["AS_eq_T_minus_I"] <= 1e-8
        assert max(out["max_residuals"].values()) <= 1e-8


class TestUsageErrors:
    """argparse exits 2 on a usage error, the code certify gives Unstable;
    lyacert exits 1 with one error line instead."""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--input", "P", "--workers", "abc"],
         "--workers: invalid int value: 'abc'"),
        (["certify", "--input", "P", "--bogus"], "unrecognized arguments: --bogus"),
        (["certify", "--input", "P", "--workers"], "--workers: expected one argument"),
        (["certify", "--input", "P", "--workers", "2"], "--workers: needs --batch"),
        (["certify", "--input"], "--input: expected one argument"),
        (["solve"], "the following arguments are required: --input"),
    ])
    def test_exit_one_with_one_error_line(self, unstable_file, capsys, argv,
                                          message):
        argv = [unstable_file if arg == "P" else arg for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestNumericFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["observe", "--t0", "-1"], "t0"),
        (["observe", "--t0", "nan"], "t0"),
        (["observe", "--t0", "inf"], "t0"),
        (["probe", "--horizon", "1", "--steps", "0"], "steps"),
        (["probe", "--horizon", "nan", "--steps", "5"], "horizon"),
        (["probe", "--horizon", "-1", "--steps", "5"], "horizon"),
        (["norms", "--p", "0.5"], "p"),
        (["norms", "--p", "inf"], "p"),
        (["audit-lemmas", "--n", "0"], "n"),
        (["audit-lemmas", "--seed", "-1"], "seed"),
        (["certify", "--workers", "0"], "workers"),
    ])
    def test_bad_value_exit_one(self, problem_file, tmp_path, capsys, argv, flag):
        rest = {
            "observe": ["--input", problem_file],
            "probe": ["--input", problem_file, "--csv", str(tmp_path / "p.csv")],
            "norms": ["--input", problem_file],
            "audit-lemmas": [],
            "certify": ["--batch", str(tmp_path)],
        }[argv[0]]
        assert main(argv + rest) == 1
        assert capsys.readouterr().err.startswith(f"error: --{flag}: ")
