#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a parent revision against
the working tree.

Exports the parent revision (git archive) into a scratch directory, builds
perfbench there and in the working tree, then runs N alternating pairs of
one workload, swapping which side runs first every pair.  For every
end-to-end metric in BENCHMARK.json it prints each side's median and
quartiles, the change's win count, and whether the pairs support a gain:
at least ten pairs ran, the change wins at least nine tenths of them
(ties count for neither), the medians differ by more than the parent's
interquartile range, and the change failed no more ops than the parent.
Fewer pairs still print the table, as a check that nothing moved, but
never a supported gain.  From the root of a checkout:

    python3 bench/ab_pairs.py --parent HEAD --workload read_mostly --seed 1 --pairs 10
    python3 bench/ab_pairs.py --parent main~1 --workload write_heavy --seed 2 \\
        --pairs 5 --scratch /tmp/ab

Every run lasts BENCHMARK.json's run_seconds plus set-up (about 20 s), so
ten pairs take several minutes; nothing runs this in CI.
The working tree is measured as it is, uncommitted edits included.  The
exit code is 0 when every run of both sides passed its own checks.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(rev, dest):
    """Write the tree of `rev` into `dest`.  An export of the same commit
    is kept as it is, with its perfbench build; any other is replaced."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                             rev + "^{commit}"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.strip()
    marker = os.path.join(dest, ".ab_pairs_commit")
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return
    subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("ab_pairs: git archive %s failed" % rev)
    with open(marker, "w") as f:
        f.write(commit + "\n")


def build(checkout):
    """Build perfbench in `checkout` with that checkout's own run.py."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build()


def run(checkout, args, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("# host:")), "")
    return {
        "ok": out.returncode == 0 and result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "host": host,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", default=None,
                        help="directory for the parent export "
                             "(default: a new temporary directory)")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_pairs.")
    parent = os.path.join(scratch, "parent")
    export(args.parent, parent)
    sides = {"parent": parent, "change": ROOT}
    for checkout in sides.values():
        build(checkout)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run(sides[side], args, seconds))
        sys.stderr.write("pair %d/%d done\n" % (i + 1, args.pairs))

    print(runs["change"][0]["host"])
    print("# %s seed=%d seconds=%d, %d pairs, parent=%s, order swapped "
          "every pair" % (args.workload, args.seed, seconds, args.pairs,
                          args.parent))
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        bad = sum(1 for r in runs[side] if not r["ok"])
        print("# %s: %d of %d ops failed; %d runs failed their checks" %
              (side, failed[side], attempted, bad))
    # Reasons no gain can be supported, whatever the metric.
    refusals = []
    if args.pairs < 10:
        refusals.append("fewer than 10 pairs")
    if failed["change"] > failed["parent"]:
        refusals.append("more failed ops than the parent")
    if refusals:
        print("# no gain is supported: %s" % "; ".join(refusals))
    print("%-14s %-6s %32s %32s %6s  %s" %
          ("metric", "unit", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "gain supported"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        supported = (not refusals and wins >= 0.9 * args.pairs and
                     sign * (ma - mb) > qa[1] - qa[0])
        print("%-14s %-6s %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] "
              "%3d/%-2d  %s (%+.1f%%)" %
              (name, metric["unit"], ma, qa[0], qa[1], mb, qb[0], qb[1],
               wins, args.pairs, "yes" if supported else "no",
               100.0 * (mb - ma) / ma if ma else 0.0))
    return 0 if all(r["ok"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
