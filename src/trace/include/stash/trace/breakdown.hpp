#pragma once
// LatencyBreakdown — folds a collected span set into per-stage latency
// attribution.
//
// Every span's resolved duration is recorded into an exact in-memory sample
// list, so the p50/p99/p999 attribution table quotes true order statistics
// (util::quantile), not log-bucket approximations.
//
// Request traces (root stage dev.request) additionally get a RequestRecord:
// end-to-end duration, the sum of the root's direct children
// (dev.queue_wait + ftl.service — the device records these from shared
// clock reads, so the sum matches the root exactly in virtual-clock mode;
// max_request_gap_ns() is the bench's consistency gate on that claim), and
// the dominant stage, which lets a tail sample be tagged with the stage
// that cost it the most.

#include <cstdint>
#include <string>
#include <vector>

#include "stash/trace/export.hpp"
#include "stash/trace/trace.hpp"

namespace stash::trace {

class LatencyBreakdown {
 public:
  /// Fold a span set (durations resolved via canonicalize()).  May be
  /// called repeatedly to accumulate.
  void fold(const std::vector<SpanRecord>& spans, ClockMode mode);

  struct RequestRecord {
    std::uint64_t trace_id = 0;
    Op op = Op::kNone;
    std::uint64_t key = 0;
    std::uint8_t status = 0;
    std::uint64_t total_ns = 0;      // root span duration (end-to-end)
    std::uint64_t child_sum_ns = 0;  // sum of the root's direct children
    std::uint64_t gap_ns = 0;        // |total - child_sum|
    Stage dominant = Stage::kCount;  // direct child with the largest share
    std::uint64_t dominant_ns = 0;
  };

  [[nodiscard]] const std::vector<RequestRecord>& requests() const noexcept {
    return requests_;
  }

  /// Largest |root - sum(children)| over all request traces; 0 is the
  /// attribution-consistency invariant in virtual-clock mode.
  [[nodiscard]] std::uint64_t max_request_gap_ns() const noexcept;

  /// Exact q-th quantile of request end-to-end durations (0 when empty).
  [[nodiscard]] std::uint64_t request_total_quantile(double q) const;

  struct StageStats {
    Stage stage = Stage::kCount;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;
  };

  /// Stages that saw at least one span, in Stage enum order, with exact
  /// order-statistic percentiles.
  [[nodiscard]] std::vector<StageStats> stage_stats() const;

  /// Human-readable per-stage attribution table (microsecond columns,
  /// fixed-point formatting — deterministic byte output).
  [[nodiscard]] std::string attribution_table() const;

 private:
  std::vector<std::uint64_t> samples_[static_cast<std::size_t>(Stage::kCount)];
  std::vector<RequestRecord> requests_;
};

}  // namespace stash::trace
