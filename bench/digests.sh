#!/usr/bin/env bash
# Print a sha256 of every deterministic output the stack promises, one
# `name sha256` line each.  The committed DIGESTS file at the repository
# root is this script's output; CI diffs the two, so a refactor that moves
# any voltage, ledger count, trace span or served byte fails there.  The
# threads-1 and threads-8 pins of one output carry the same hash, so the
# diff is also the thread-invariance check.  Every bench gates itself by
# exit code too: a failing run cuts the output short (set -e), and the
# diff fails.
#
#   bench/digests.sh BUILD_DIR            # print the digests
#   diff DIGESTS <(bench/digests.sh build) # what the CI leg runs
#
# BUILD_DIR must hold bench_perf_baseline, bench_device_throughput and
# bench_net_loadgen (cmake --build BUILD_DIR --target ...).  A change that
# legitimately moves a digest regenerates DIGESTS in the same diff and
# says why.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
bench="$1/bench"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

digest() {  # digest NAME FILE
  printf '%s %s\n' "$1" "$(sha256sum < "$2" | cut -d' ' -f1)"
}

for t in 1 8; do
  "$bench/bench_perf_baseline" --state-checksum --threads "$t" > "$out/pb"
  digest "perf_baseline.state_checksum.t$t" "$out/pb"
done
for t in 1 8; do
  "$bench/bench_perf_baseline" --quick --state-checksum --threads "$t" > "$out/pb"
  digest "perf_baseline.quick.state_checksum.t$t" "$out/pb"
done

for t in 1 8; do
  "$bench/bench_device_throughput" --quick --threads "$t" > "$out/dt"
  digest "device_throughput.quick.det.t$t.stdout" "$out/dt"
done
"$bench/bench_device_throughput" --quick --trace --trace-out "$out/trace" \
  > "$out/dt"
digest device_throughput.quick.det.trace.stdout "$out/dt"
digest device_throughput.quick.det.trace.perfetto.json "$out/trace.perfetto.json"
"$bench/bench_device_throughput" --quick --trace --threads 8 \
  --trace-out "$out/trace" > "$out/dt"
digest device_throughput.quick.det.trace.t8.stdout "$out/dt"
digest device_throughput.quick.det.trace.t8.perfetto.json \
  "$out/trace.perfetto.json"

"$bench/bench_net_loadgen" --server-stats-out "$out/server_stats.json" \
  > "$out/lg"
digest net_loadgen.det.stdout "$out/lg"
digest net_loadgen.det.server_stats.json "$out/server_stats.json"
