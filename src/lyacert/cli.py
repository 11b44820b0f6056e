"""Command-line interface.

Exit codes for `certify`: 0 certified stable, 2 unstable, 3 inconclusive,
1 error.  All other commands exit 0 on success, 1 on error.  A usage error
(a bad or missing flag) is an error too: it exits 1, never argparse's 2.
"""

import argparse
import math
import os
import sys

import numpy as np

from .certify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    canonical_json,
    direct_solution,
    emit_decay_csv,
    parse_problem,
    run_gallery,
    wonham_certify,
)
from .detect import detectability_report, final_observability
from .exceptions import LyacertError, ProblemFormatError
from .linalg import NormInterval, induced_norm, nuclear_norm
from .semigroup import SemigroupProbe, lemma_AS_suite

VERDICT_EXIT = {VERDICT_STABLE: 0, VERDICT_UNSTABLE: 2, VERDICT_INCONCLUSIVE: 3}

_POSITIVE = ("must be a finite number above 0", lambda v: math.isfinite(v) and v > 0)
_COUNT = ("must be at least 1", lambda v: v >= 1)
#: range of each numeric flag, checked in main
FLAG_RANGES = {
    "t0": _POSITIVE,
    "horizon": _POSITIVE,
    "p": ("must be a finite number of at least 1",
          lambda v: math.isfinite(v) and v >= 1),
    "steps": _COUNT,
    "n": _COUNT,
    "workers": _COUNT,
    "seed": ("must be at least 0", lambda v: v >= 0),
}


class UsageError(Exception):
    """A command line that cannot run; main prints it and returns 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage and exit 2, the code of Unstable
    def error(self, message):
        raise UsageError(message.removeprefix("argument "))


def _load_problem(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"not UTF-8: {exc}", location=path) from exc
    return parse_problem(text, location=path)


def _emit(payload, out):
    text = canonical_json(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_certify(args):
    if bool(args.input) == bool(args.batch):
        raise UsageError("give exactly one of --input and --batch")
    if args.workers is not None and not args.batch:
        raise UsageError("--workers: needs --batch")
    if args.batch:
        return _certify_batch(args.batch, args.out, args.workers)
    spec = _load_problem(args.input)
    cert = wonham_certify(spec)
    _emit(cert.to_dict(), args.out)
    return VERDICT_EXIT[cert.verdict]


def _certify_one(paths):
    in_path, out_path = paths
    try:
        cert = wonham_certify(_load_problem(in_path))
        with open(out_path, "w") as fh:
            fh.write(cert.to_json() + "\n")
    except (LyacertError, OSError) as exc:
        return in_path, None, str(exc)
    return in_path, cert.verdict, None


def _certify_batch(in_dir, out_dir, workers):
    """Map the pipeline over every problem file in a directory; workers are
    independent processes, nothing is shared beyond the output directory."""
    import concurrent.futures
    import glob

    out_dir = out_dir or in_dir
    jobs = []
    for in_path in sorted(glob.glob(os.path.join(in_dir, "*.json"))):
        name = os.path.basename(in_path)
        if name.endswith(".certificate.json"):
            continue
        stem = name[: -len(".problem.json")] if name.endswith(".problem.json") \
            else name[: -len(".json")]
        jobs.append((in_path, os.path.join(out_dir, f"{stem}.certificate.json")))
    if not jobs:
        print("error: no problem files found", file=sys.stderr)
        return 1
    writers = {}
    for in_path, out_path in jobs:
        if out_path in writers:
            print(f"error: {writers[out_path]} and {in_path} both write "
                  f"{out_path}", file=sys.stderr)
            return 1
        writers[out_path] = in_path
    os.makedirs(out_dir, exist_ok=True)
    failed = 0
    # the fork start method launches every worker up front
    workers = min(workers or os.cpu_count() or 1, len(jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for in_path, verdict, err in pool.map(_certify_one, jobs):
            if err is not None:
                failed += 1
                print(f"error: {in_path}: {err}", file=sys.stderr)
            else:
                print(f"{in_path}: {verdict}")
    return 1 if failed else 0


def cmd_solve(args):
    """The solution and residual a certificate carries, from the same
    certify.direct_solution, held to lyapunov.RESIDUAL_RTOL."""
    P, residual = direct_solution(_load_problem(args.input).pair)
    _emit({"P": P.tolist(), "residual": residual}, args.out)
    return 0


def cmd_detect(args):
    spec = _load_problem(args.input)
    report = detectability_report(spec.pair, t0=spec.t0)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_observe(args):
    """eps* at t0 and detect.final_observability's decision."""
    spec = _load_problem(args.input)
    final = final_observability(spec.pair, args.t0)
    _emit(
        {"t0": args.t0, "eps_star": final.eps_star,
         "finally_observable": final.observable},
        args.out,
    )
    return 0


def cmd_probe(args):
    spec = _load_problem(args.input)
    emit_decay_csv(spec, horizon=args.horizon, steps=args.steps, out=args.csv)
    return 0


def cmd_norms(args):
    spec = _load_problem(args.input)
    ind = induced_norm(spec.A, args.p, args.p)
    induced = ind._asdict() if isinstance(ind, NormInterval) else ind
    _emit({"p": args.p, "induced": induced, "nuclear": nuclear_norm(spec.A)}, args.out)
    return 0


def cmd_gallery(args):
    records = run_gallery(args.out)
    print(canonical_json(records))
    return 0


def cmd_audit_lemmas(args):
    """Worst residual of each integrated-semigroup identity over ``--n``
    random generators at t in {0.1, 1, 10}; exit 0 when all are <= 1e-8."""
    rng = np.random.default_rng(args.seed)
    worst = {}
    for _ in range(args.n):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        probe = SemigroupProbe(A=A)
        for t in (0.1, 1.0, 10.0):
            report = lemma_AS_suite(probe, t=t, h=1e-4)
            for key, val in report.residuals.items():
                worst[key] = max(worst.get(key, 0.0), val)
    ok = max(worst.values()) <= 1e-8
    print(canonical_json({"n": args.n, "seed": args.seed, "max_residuals": worst,
                          "pass": ok}))
    return 0 if ok else 1


def build_parser():
    parser = _Parser(
        prog="lyacert",
        description="Lyapunov stability certification for matrix semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the Wonham certification pipeline")
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--batch", metavar="DIR",
                   help="certify every problem file in DIR (parallel workers)")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="solve A'P + PA = -Q")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("detect", help="detectability report for (C, A)")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("observe", help="final-observability constant at t0")
    p.add_argument("--input", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("probe", help="sample decay observables to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("norms", help="induced and nuclear norms of A")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("gallery", help="write the fixture gallery")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("audit-lemmas", help="integrated-semigroup identity audit")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit_lemmas)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, (need, ok) in FLAG_RANGES.items():
            value = getattr(args, flag, None)
            if value is not None and not ok(value):
                parser.error(f"--{flag}: {need}, got {value}")
        return args.func(args)
    except (UsageError, LyacertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
