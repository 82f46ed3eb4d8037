#!/usr/bin/env python3
"""Repository benchmark: build stash_perfbench, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 15 --trace 0

The first run configures and builds the benchmark (and the stash
libraries from ../src) into .bench_build/perfbench, a Release build;
later runs only re-check it.  Build output is shown (on stderr) only when
the build fails, so the last stdout line is always the benchmark's JSON.
The benchmark runs with address-space randomisation off (see
fixed_layout).  The exit code is the benchmark's: 0 when every check
passed.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "stash_perfbench")
ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no stash sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "stash_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def fixed_layout():
    """Turn address-space randomisation off for the benchmark process.

    With it on, each run draws a new code/heap/stack layout; with the
    threads spread over cores, that alone moved the microsecond latencies
    by about 15% from run to run on the host this was tuned on, against
    about 2% with it off."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xffffffff)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    build()
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:],
                          preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
