#pragma once
// stash::telemetry — the process-wide latency histograms.
//
// A MetricsRegistry holds named, log-bucketed LatencyHistograms.  Only two
// are registered, and each has a reader: StashDevice records
// dev.read_latency_ns (gated by bench_perf_baseline) and
// dev.flush_latency_ns (apportioned by perfbench's flush attribution).
// Lookup hands out a stable reference at setup time, so the hot path is a
// few relaxed atomic adds.
//
// Event counts are not kept here: every layer counts its own events per
// instance (DeviceStats, FtlStats, NetStats via CounterTable in
// counter_table.hpp; FlashChip's CostLedger; StegoStats; FaultStats).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stash::telemetry {

/// Log-bucketed histogram of non-negative integer samples.  Bucket i holds
/// samples whose bit width is i (i.e. values in [2^(i-1), 2^i)), so 64
/// buckets cover the full uint64 range with ~2x resolution — the classic
/// latency-histogram shape; the device feeds it nanoseconds.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t sample) noexcept {
    const std::size_t bucket =
        sample == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(sample));
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double mean() const noexcept {
    const auto n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const noexcept {
    return bucket < kBuckets ? buckets_[bucket].load(std::memory_order_relaxed)
                             : 0;
  }

  /// Approximate q-th quantile (0 <= q <= 1): walks the buckets to the one
  /// holding the q-th sample and interpolates linearly within it by the
  /// sample's rank, so a heavily-populated bucket reads as a gradient
  /// instead of a single fixed point.  Resolution is still bounded by the
  /// power-of-two bucket width.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time export of a registry's histograms, sorted by name.
struct Snapshot {
  struct HistogramSummary {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
  };

  std::vector<HistogramSummary> histograms;
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

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace stash::telemetry
