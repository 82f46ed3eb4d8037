#pragma once
// stash::telemetry — the process-wide flush-time sum.
//
// A MetricsRegistry holds named LatencyHistograms: a count and a sum, no
// buckets.  Only one is registered, and it has a reader: StashDevice records
// dev.flush_latency_ns, which perfbench's flush attribution apportions.
// Lookup hands out a stable reference at setup time, so the hot path is two
// relaxed atomic adds.  Per-request latency is not kept here: the
// dev.request span (stash::trace) is the one record of each request.
//
// Event counts are not kept here: every layer counts its own events per
// instance, named once in a STASH_COUNTER_FIELDS list (counter_table.hpp):
// DeviceStats, FtlStats, NetStats and FlashChip's CostLedger live in a
// CounterTable, StegoStats is a plain struct its volume updates.
// FaultStats stays a plain struct with no list: FaultPlan updates it under
// the chip's fault lock, and nothing serializes or enumerates it.

#include <atomic>
#include <cstdint>
#include <string_view>

namespace stash::telemetry {

/// Running count and sum of non-negative integer samples; the device feeds
/// it nanoseconds.
class LatencyHistogram {
 public:
  void record(std::uint64_t sample) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named instrument directory.  Lookup takes a mutex (do it at setup and
/// cache the reference); the returned references stay valid for the
/// registry's lifetime.  Most code uses the process-wide global() registry;
/// tests may instantiate private ones.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& global();

  LatencyHistogram& histogram(std::string_view name);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace stash::telemetry
