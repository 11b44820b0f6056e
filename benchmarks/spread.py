#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/spread.py --seeds 1-10 --seconds 20
    python3 benchmarks/spread.py --workloads slow-decay --seeds 1-5 --trace 1

Each run is a fresh ``run.py`` process, one after another.  For every
workload and metric it prints the median, the quartiles and the spread
(q3 - q1) / median from ``statistics.quantiles(values, n=4)``, and flags a
spread above a third of the metric's bound in BENCHMARK.json.  It also
prints each workload's failed share, which must be the same in every run.
The README's reference figures come from this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: wrong output:\n{proc.stderr}")
            runs.append(result)
            print(f"# {workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                flush=True)
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        same = len({r["failed"] / r["attempted"] for r in runs}) == 1
        print(f"{workload}: failed share {'same' if same else 'DIFFERS'} in "
              f"{len(runs)} runs: {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name) if not args.trace else None
            flag = " over bound/3" if bound and name != "setup_s" and spread > bound / 3 else ""
            print(f"  {name:40s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}{flag}")


if __name__ == "__main__":
    main()
