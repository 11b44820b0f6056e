#!/usr/bin/env python3
"""Certify-path benchmark for lyacert.

    python3 benchmarks/run.py --workload small-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lyacert is imported from ``src/``
of that checkout and nowhere else.  One process and one thread make the
load (BLAS pools are pinned to one thread before numpy loads).  Inputs are
generated from ``--seed`` before timing starts, and the loop is closed: the
next problem starts after the previous one finished.  Every timed operation
goes through the public API, problem JSON text -> ``parse_problem`` ->
``wonham_certify`` -> ``Certificate.to_json`` (the ``batch`` workload calls
``lyacert.cli.main`` instead).  Every certificate is checked by check.py.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  ``--quick`` runs a small round of each workload in seconds.
"""

import os
import sys

# Default OpenBLAS threading on two cores doubles certify latency and makes
# it noisy; every process of the run inherits these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import check  # noqa: E402
import problems  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

END_TO_END = {
    "certs_per_s": "1/s",
    "cert_p50_ms": "ms",
    "cert_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "certify.parse_ms": "ms",
    "certify.digest_ms": "ms",
    "certify.serialise_ms": "ms",
    "certify.self_ms": "ms",
    "detect.report_ms": "ms",
    "detect.injection_ms": "ms",
    "detect.eps_star_ms": "ms",
    "detect.hautus_ms": "ms",
    "detect.hautus.calls": "count",
    "detect.l2_ms": "ms",
    "detect.l2.calls": "count",
    "detect.unobservable_ms": "ms",
    "detect.unobservable.calls": "count",
    "lyapunov.solve_direct_ms": "ms",
    "lyapunov.solve_integral_ms": "ms",
    "lyapunov.solve_integral.kernel_calls": "count",
    "lyapunov.rkhs_factor_ms": "ms",
    "linalg.growth_fit_ms": "ms",
    "linalg.abscissa_ms": "ms",
    "linalg.eig.calls": "count",
    "linalg.expm.calls": "count",
    "linalg.growth_fit.envelope_misses": "count",
    "linalg.growth_fit.envelope_worst_ratio": "ratio",
    "cli.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

#: a run lasts whole rounds, at least --seconds of timed work, and at least
#: this many timed operations, so the 90th percentile has ten samples above it
MIN_SAMPLES = 100
#: cold starts per run; setup_s is their median
SETUP_REPEATS = 3
#: problems of the round that the traced run also sends through the CLI
CLI_SAMPLE = 16
#: process-pool size of every ``certify --batch`` call; one worker keeps the
#: load to one process, as in the library workloads
BATCH_WORKERS = 1

SETUP_PROBLEM = '{"A": [[0.0, 1.0], [-2.0, -3.0]], "C": [[1.0, 0.0]]}'
SETUP_CODE = (
    "import lyacert\n"
    f"cert = lyacert.wonham_certify(lyacert.parse_problem({SETUP_PROBLEM!r}))\n"
    "print(cert.to_json())\n"
)


def load_lyacert():
    """Import lyacert from the checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "lyacert", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no lyacert sources at {init}")
    sys.path.insert(0, SRC)
    import lyacert
    import lyacert.cli
    if os.path.realpath(lyacert.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: lyacert imported from {lyacert.__file__}")
    return lyacert


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------

class Pass:
    """Results of running whole rounds of one operation: per operation the
    problem index, wall seconds and output (None when it raised)."""

    def __init__(self):
        self.ops = []
        self.rounds = 0

    @property
    def seconds(self):
        return sum(op[1] for op in self.ops)

    def rate(self, size):
        """Median over rounds of ``size`` operations of successful
        operations per second of timed work; the median keeps a burst of
        outside load in one round from moving the figure."""
        rates = []
        for r in range(self.rounds):
            chunk = self.ops[r * size:(r + 1) * size]
            rates.append(sum(op[2] is not None for op in chunk) / sum(op[1] for op in chunk))
        return statistics.median(rates)

    def ok_times(self):
        return [op[1] for op in self.ops if op[2] is not None]

    @property
    def failed(self):
        return sum(op[2] is None for op in self.ops)


def run_rounds(round_, op, seconds=0.0, min_samples=0, rounds=None):
    """Repeat whole rounds of ``op`` over ``round_`` until ``rounds`` rounds
    ran, or else until ``seconds`` of timed work and ``min_samples``
    successful operations are reached."""
    result = Pass()
    while True:
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif result.rounds and result.seconds >= seconds \
                and len(result.ok_times()) >= min_samples:
            return result
        for i, problem in enumerate(round_):
            t = time.perf_counter()
            try:
                out = op(problem)
            except Exception as exc:  # the program's failure is the measurement
                out = None
                if not problem["known_failure"]:
                    print(f"failed: problem {i} ({problem['kind']}, n={problem['n']}): "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
            result.ops.append((i, time.perf_counter() - t, out))
        result.rounds += 1


class Verifier:
    """Checks every output: the first certificate of each problem with
    check.check, every later one for byte equality with the first."""

    def __init__(self, round_):
        self.round = round_
        self.first = {}
        self.errors = []

    def certificate(self, i, text):
        if i in self.first:
            if text != self.first[i]:
                self.errors.append(f"problem {i}: certificate bytes changed between runs")
            return
        self.first[i] = text
        for err in check.check(self.round[i], text):
            self.errors.append(f"problem {i} ({self.round[i]['kind']}, "
                               f"n={self.round[i]['n']}): {err}")

    def run(self, result):
        for i, _, text in result.ops:
            if text is not None:
                self.certificate(i, text)


def certify_op(problem):
    return lyacert.wonham_certify(lyacert.parse_problem(problem["text"])).to_json()


class BatchDirs:
    """Problem files on disk for ``lyacert certify --batch``: one directory
    per group of round indices; one operation certifies one directory."""

    def __init__(self, round_, groups, tag):
        self.base = os.path.join(WORK, f"{tag}-{os.getpid()}")
        self.groups = groups
        self.dirs = []
        for k, group in enumerate(groups):
            d = os.path.join(self.base, f"in{k}")
            os.makedirs(d)
            for i in group:
                with open(os.path.join(d, f"p{i:04d}.json"), "w") as fh:
                    fh.write(round_[i]["text"])
            self.dirs.append((d, os.path.join(self.base, f"out{k}")))

    def call(self, k):
        """Certify directory k through the CLI; returns the wall seconds and,
        per problem, its round index and certificate text (None where the
        CLI wrote none)."""
        in_dir, out_dir = self.dirs[k]
        argv = ["certify", "--batch", in_dir, "--out", out_dir,
                "--workers", str(BATCH_WORKERS)]
        sink = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            lyacert.cli.main(argv)
        dt = time.perf_counter() - t
        out = []
        for i in self.groups[k]:
            path = os.path.join(out_dir, f"p{i:04d}.certificate.json")
            text = None
            if os.path.exists(path):
                with open(path) as fh:
                    text = fh.read().rstrip("\n")
                os.remove(path)
            out.append((i, text))
        return dt, out

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_seconds(repeats):
    """Median cold start: a fresh interpreter imports lyacert and certifies
    one small problem."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t)
        if proc.returncode != 0 or json.loads(proc.stdout)["verdict"] != "ExponentiallyStable":
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return statistics.median(times)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def latency_metrics(result, size, per_cert_ms):
    return {
        "certs_per_s": result.rate(size),
        "cert_p50_ms": statistics.median(per_cert_ms),
        "cert_p90_ms": statistics.quantiles(per_cert_ms, n=10, method="inclusive")[8],
    }


def layer_metrics(rec, ops):
    totals = rec.totals()

    def ms(name, key="s"):
        return 1e3 * totals.get(name, {}).get(key, 0.0) / ops

    def per_op(name, key="calls"):
        return totals.get(name, {}).get(key, 0) / ops

    return {
        "certify.parse_ms": ms("certify.parse"),
        "certify.digest_ms": ms("certify.digest"),
        "certify.serialise_ms": ms("certify.serialise"),
        "certify.self_ms": ms("certify.wonham", "self_s"),
        "detect.report_ms": ms("detect.report"),
        "detect.injection_ms": ms("detect.injection"),
        "detect.eps_star_ms": ms("detect.eps_star"),
        "detect.hautus_ms": ms("detect.hautus"),
        "detect.hautus.calls": per_op("detect.hautus"),
        "detect.l2_ms": ms("detect.l2"),
        "detect.l2.calls": per_op("detect.l2"),
        "detect.unobservable_ms": ms("detect.unobservable"),
        "detect.unobservable.calls": per_op("detect.unobservable"),
        "lyapunov.solve_direct_ms": ms("lyapunov.solve_direct"),
        "lyapunov.solve_integral_ms": ms("lyapunov.solve_integral"),
        "lyapunov.solve_integral.kernel_calls": per_op("lyapunov.solve_integral", "kernels"),
        "lyapunov.rkhs_factor_ms": ms("lyapunov.rkhs_factor"),
        "linalg.growth_fit_ms": ms("linalg.growth_fit"),
        "linalg.abscissa_ms": ms("linalg.abscissa"),
        "linalg.eig.calls": rec.kernel_calls["eig"] / ops,
        "linalg.expm.calls": rec.kernel_calls["expm"] / ops,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_library(round_, args, verifier):
    """Closed loop over the round through the library API."""
    result = run_rounds(round_, certify_op, args.seconds,
                        0 if args.quick else MIN_SAMPLES)
    verifier.run(result)
    return result, latency_metrics(result, len(round_), [1e3 * t for t in result.ok_times()])


def run_batch(round_, groups, args, verifier):
    """Closed loop of ``lyacert certify --batch`` calls, one directory each;
    a certificate's latency is its call's wall time over its file count."""
    dirs = BatchDirs(round_, groups, "batch")
    try:
        result = Pass()
        calls = []
        while not result.rounds or result.seconds < args.seconds \
                or len(calls) < (0 if args.quick else MIN_SAMPLES):
            for k, group in enumerate(groups):
                dt, out = dirs.call(k)
                calls.append(1e3 * dt / len(group))
                for i, text in out:
                    result.ops.append((i, dt / len(group), text))
                    if text is None:
                        print(f"failed: batch problem {i} wrote no certificate",
                              file=sys.stderr)
            result.rounds += 1
    finally:
        dirs.close()
    verifier.run(result)
    return result, latency_metrics(result, len(round_), calls)


def run_traced(round_, groups, args, verifier):
    """Untraced pass, then a traced pass over the same rounds; the per-layer
    metrics come from the traced pass and its certificates must be
    byte-identical to the untraced ones."""
    plain = run_rounds(round_, certify_op, args.seconds / 2)
    rec = spans.Recorder()
    requests = itertools.count()

    def traced_op(problem):
        rec.request = next(requests)
        spec = rec.span("certify.parse", lyacert.parse_problem, problem["text"])
        cert = rec.span("certify.wonham", lyacert.wonham_certify, spec)
        return rec.span("certify.serialise", cert.to_json)

    rec.install(sys.modules)
    try:
        traced = run_rounds(round_, traced_op, rounds=plain.rounds)
    finally:
        rec.uninstall()
    verifier.run(plain)
    verifier.run(traced)
    for (i, _, a), (_, _, b) in zip(plain.ops, traced.ops):
        if a != b:
            verifier.errors.append(f"problem {i}: traced certificate differs from untraced")

    metrics = layer_metrics(rec, len(traced.ops))
    metrics["trace.overhead_pct"] = 100.0 * (traced.seconds / plain.seconds - 1.0)
    metrics["cli.overhead_ms"] = cli_overhead(round_, groups, plain, verifier)
    ratios = envelope_ratios(round_, verifier)
    metrics["linalg.growth_fit.envelope_misses"] = sum(r > 1.0 + 1e-9 for r in ratios)
    metrics["linalg.growth_fit.envelope_worst_ratio"] = max(ratios, default=0.0)
    os.makedirs(WORK, exist_ok=True)
    rec.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
    return plain, traced, metrics


def cli_overhead(round_, groups, plain, verifier):
    """Wall time per certificate in ``certify --batch`` (one worker) minus
    in-process certify time for the same problems.  The batch workload sends its own
    directories; the others send the first CLI_SAMPLE problems of the round
    that do not fail."""
    if groups is None:
        groups = [[i for i, p in enumerate(round_) if not p["known_failure"]][:CLI_SAMPLE]]
    inproc = {}
    for i, t, _ in plain.ops:
        inproc.setdefault(i, []).append(t)
    dirs = BatchDirs(round_, groups, "cli")
    try:
        wall, certs, base = 0.0, 0, 0.0
        for k in range(len(groups)):
            dt, out = dirs.call(k)
            wall += dt
            for i, text in out:
                certs += 1
                base += statistics.median(inproc[i])
                if text is None:
                    verifier.errors.append(f"problem {i}: CLI wrote no certificate")
                else:
                    verifier.certificate(i, text)
    finally:
        dirs.close()
    return 1e3 * (wall - base) / certs


def envelope_ratios(round_, verifier):
    """Certified growth envelope against ||e^{tA}|| on [0, 30/eps], 3001
    points, for every stable certificate of the round."""
    ratios = []
    for i, text in sorted(verifier.first.items()):
        growth = json.loads(text)["growth"]
        if growth is not None:
            ratios.append(check.envelope_ratio(round_[i]["A"], growth["M"], growth["eps"]))
    return ratios


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small round, no minimum sample count, one cold start")
    args = parser.parse_args(argv)

    round_ = problems.WORKLOADS[args.workload](args.seed, quick=args.quick)
    groups = None
    if args.workload == "batch":
        step = problems.BATCH_FILES
        groups = [list(range(i, min(i + step, len(round_))))
                  for i in range(0, len(round_), step)]

    # untimed warm-up certificate, which also proves the checker can fail
    warm = next(p for p in round_ if p["expect"] == problems.STABLE
                and not p["known_failure"])
    check.self_test(warm, certify_op(warm))

    verifier = Verifier(round_)
    if args.trace:
        plain, traced, metrics = run_traced(round_, groups, args, verifier)
        attempted = len(plain.ops) + len(traced.ops)
        failed = plain.failed + traced.failed
        units = PER_LAYER
    else:
        if groups:
            result, metrics = run_batch(round_, groups, args, verifier)
        else:
            result, metrics = run_library(round_, args, verifier)
        metrics["setup_s"] = setup_seconds(1 if args.quick else SETUP_REPEATS)
        metrics["peak_rss_mb"] = peak_rss_mb()
        attempted, failed = len(result.ops), result.failed
        units = END_TO_END

    for err in verifier.errors[:20]:
        print(f"check: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not verifier.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    lyacert = load_lyacert()
    sys.exit(main())
