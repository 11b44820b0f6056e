"""Tests of the benchmark itself, on the quick rounds.

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import problems  # noqa: E402
from lyacert import parse_problem, wonham_certify  # noqa: E402

WORKLOADS = sorted(problems.WORKLOADS)


def certify(problem):
    return wonham_certify(parse_problem(problem["text"])).to_json()


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_checker_rejects_flipped_verdict_and_perturbed_P():
    problem = next(p for p in problems.small_mix(0) if p["kind"] == "stable-C")
    check.self_test(problem, certify(problem))


@pytest.mark.parametrize("kind", ["unstable", "undetectable", "resonant", "stable-Q"])
def test_checker_accepts_each_kind_and_rejects_a_flip(kind):
    problem = next(p for p in problems.small_mix(0) if p["kind"] == kind)
    text = certify(problem)
    assert check.check(problem, text) == []
    cert = json.loads(text)
    cert["verdict"] = problems.STABLE if kind != "stable-Q" else problems.UNSTABLE
    assert check.check(problem, json.dumps(cert))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    def texts(seed):
        return [p["text"] for p in problems.WORKLOADS[workload](seed, quick=True)]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace, manifest):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if workload == "mid-size":
        round_ = problems.mid_size(3, quick=True)
        known = sum(bool(p["known_failure"]) for p in round_)
        assert result["failed"] * len(round_) == result["attempted"] * known
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "benchmarks")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "benchmarks")
    proc = bench("--workload", "small-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
