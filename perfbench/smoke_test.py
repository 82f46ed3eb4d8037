#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json at minimum length, untraced and
traced, and asserts that

  * the JSON line carries exactly the metrics BENCHMARK.json names for that
    mode, each with the unit BENCHMARK.json gives it;
  * the payload checks ran (reads, and hidden loads where the workload has
    them, were verified) and nothing failed;
  * with --corrupt-expected the same run fails its payload checks.

A run this short may leave a percentile unsupported, which the benchmark
reports as not correct, so "correct" itself is not asserted here.  From
the root of a checkout:

    python3 perfbench/smoke_test.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)] + list(extra),
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1])


def payload_counts(lines):
    for line in lines:
        m = re.match(r"# payload checks: (\d+) reads .* and (\d+) hidden loads "
                     r".* (\d+) mismatches", line)
        if m:
            return [int(g) for g in m.groups()]
    raise AssertionError("no payload-check line in the output")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        before = len(failures)
        for trace in (0, 1):
            _, lines, result = run(name, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(k for k in units if k in expected[trace]
                               and units[k] != expected[trace][k])
                failures.append("%s trace %d: missing %s, unexpected %s, "
                                "wrong unit %s" % (name, trace, missing,
                                                   extra, wrong))
            reads, loads, mismatches = payload_counts(lines)
            hidden = name == "hidden_churn"
            if reads == 0 or (hidden and loads == 0) or mismatches:
                failures.append("%s trace %d: payload checks did not run "
                                "clean (%d reads, %d loads, %d mismatches)"
                                % (name, trace, reads, loads, mismatches))
            if result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s trace %d: %d of %d ops failed" %
                                (name, trace, result["failed"],
                                 result["attempted"]))
        code, lines, result = run(name, 0, "--corrupt-expected")
        if code == 0 or result["correct"] or payload_counts(lines)[2] == 0:
            failures.append("%s: corrupted expectations did not fail the run"
                            % name)
        print("%s: %s" % (name, "ok" if len(failures) == before else "FAIL"))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
