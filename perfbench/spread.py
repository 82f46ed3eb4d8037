#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload (or those named with --workload) once per seed and
prints, per metric, the median and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json.  From the
root of a checkout:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 5 --workload hidden_churn
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        print("%s (%d seeds)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-14s median %12.4f  spread %6.3f  bound %.2f%s  [%s]" %
                  (name, median, spread, bound,
                   "  OVER" if spread > bound and name != "setup_s" else "",
                   " ".join("%.4g" % v for v in values)))
    print("worst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
