#pragma once
// The traced run's per-layer table.
//
// Counts are before/after deltas of each layer's own public stats
// (DeviceStats, NetStats, FtlStats, CostLedger, HiddenInfo) taken at
// quiescent points around the traced window.  Stage times come from the
// spans the layers already emit under trace::Tracer (wall clock); a span's
// self time is its duration minus the part of it its children cover.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/server.hpp"
#include "stash/trace/trace.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// One printed result.  `n` is the sample count behind a percentile (-1
/// when the metric is not a percentile); an unsupported percentile has
/// supported == false and prints as such.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long n = -1;
  bool supported = true;
};

/// Layer counters at one quiescent point.
struct LayerSnapshot {
  stash::dev::DeviceStats dev;
  stash::net::NetStats net;
  stash::ftl::FtlStats ftl;  // summed over chips
  stash::nand::CostLedger ledger;
  std::uint64_t flush_sum_ns = 0;  // dev.flush_latency_ns histogram sum
  double reactor_cpu_s = 0.0;      // CPU time of the server's reactor thread
};

[[nodiscard]] LayerSnapshot take_snapshot(stash::dev::StashDevice& device,
                                          const stash::net::Server& server,
                                          int reactor_tid);

/// Layers of the self-time shares: the repository's modules, with NAND
/// cell ops split by kind, plus flush time that could not be attributed.
constexpr std::size_t kLayerCount = 9;
constexpr std::size_t kStageCount =
    static_cast<std::size_t>(stash::trace::Stage::kCount);

/// Span-derived totals, accumulated over the traced window's slices (the
/// window is traced in slices so the span buffers stay small).
struct SpanTally {
  std::array<Samples, kStageCount> self_us, dur_us;
  std::array<double, kStageCount> self_ns{};
  Samples request_read_us, queue_wait_us, hidden_load_self_us;
  double extract_ns = 0, embed_ns = 0, decode_ns = 0, decode_bytes = 0;
  double load_nand_reads = 0, flush_ns = 0;
  std::uint64_t loads = 0, stores = 0, spans = 0;
  std::array<double, kLayerCount> busy_ns{};        // reactor timeline
  std::array<double, kLayerCount> flush_busy_ns{};  // under dev.flush
  std::uint64_t request_gap_ns = 0;  // max |dev.request - (wait + service)|

  void add(const std::vector<stash::trace::SpanRecord>& spans);
};

struct TracedWindow {
  LayerSnapshot before, after;
  SpanTally tally;
  std::size_t slices = 0;
  Samples client_read_us;  // client-side read latency inside the window
  double traced_ops_per_s = 0.0;
  double untraced_ops_per_s = 0.0;
  std::uint32_t cells_per_page = 0;
  stash::nand::OpCosts costs;
  std::optional<stash::dev::HiddenInfo> hidden;
  Samples pack_us, unpack_us;  // the benchmark's own spans around pack
};

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> shares;  // self-time shares
  std::string dominant;
  bool dominant_ok = false;
  std::uint64_t request_gap_ns = 0;  // max |dev.request - (wait + service)|
};

[[nodiscard]] LayerReport analyze(TracedWindow& w, const WorkloadSpec& spec);

}  // namespace perfbench
