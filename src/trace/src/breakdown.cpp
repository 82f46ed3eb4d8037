#include "stash/trace/breakdown.hpp"

#include <algorithm>
#include <cstdio>

#include "stash/util/stats.hpp"

namespace stash::trace {

namespace {

/// ns -> "x.y" microseconds (one decimal, integer math).
void format_us(char* buf, std::size_t cap, std::uint64_t ns) {
  std::snprintf(buf, cap, "%llu.%llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>((ns % 1000) / 100));
}

}  // namespace

void LatencyBreakdown::fold(const std::vector<SpanRecord>& spans,
                            ClockMode mode) {
  const std::vector<LaidSpan> laid = canonicalize(spans, mode);

  for (const LaidSpan& l : laid) {
    samples_[static_cast<std::size_t>(l.rec.stage)].push_back(l.dur_ns);
  }

  // Request traces: the canonical order is pre-order per trace, so a
  // dev.request root precedes its children and children carry the root's
  // span id as parent.
  for (std::size_t i = 0; i < laid.size(); ++i) {
    const LaidSpan& root = laid[i];
    if (root.rec.stage != Stage::kDevRequest || root.depth != 0) continue;
    RequestRecord rec;
    rec.trace_id = root.rec.trace_id;
    rec.op = root.rec.op;
    rec.key = root.rec.key;
    rec.status = root.rec.status;
    rec.total_ns = root.dur_ns;
    for (std::size_t j = i + 1;
         j < laid.size() && laid[j].rec.trace_id == root.rec.trace_id; ++j) {
      const LaidSpan& child = laid[j];
      if (child.rec.parent_id != root.rec.span_id) continue;
      rec.child_sum_ns += child.dur_ns;
      if (rec.dominant == Stage::kCount || child.dur_ns > rec.dominant_ns) {
        rec.dominant = child.rec.stage;
        rec.dominant_ns = child.dur_ns;
      }
    }
    rec.gap_ns = rec.total_ns > rec.child_sum_ns
                     ? rec.total_ns - rec.child_sum_ns
                     : rec.child_sum_ns - rec.total_ns;
    requests_.push_back(rec);
  }
}

std::uint64_t LatencyBreakdown::max_request_gap_ns() const noexcept {
  std::uint64_t worst = 0;
  for (const RequestRecord& r : requests_) worst = std::max(worst, r.gap_ns);
  return worst;
}

std::uint64_t LatencyBreakdown::request_total_quantile(double q) const {
  std::vector<std::uint64_t> totals;
  totals.reserve(requests_.size());
  for (const RequestRecord& r : requests_) totals.push_back(r.total_ns);
  std::sort(totals.begin(), totals.end());
  return util::quantile(totals, q);
}

std::vector<LatencyBreakdown::StageStats> LatencyBreakdown::stage_stats()
    const {
  std::vector<StageStats> out;
  for (std::size_t si = 0; si < static_cast<std::size_t>(Stage::kCount);
       ++si) {
    if (samples_[si].empty()) continue;
    std::vector<std::uint64_t> sorted = samples_[si];
    std::sort(sorted.begin(), sorted.end());
    StageStats s;
    s.stage = static_cast<Stage>(si);
    s.count = sorted.size();
    for (std::uint64_t v : sorted) s.total_ns += v;
    s.p50_ns = util::quantile(sorted, 0.5);
    s.p99_ns = util::quantile(sorted, 0.99);
    s.p999_ns = util::quantile(sorted, 0.999);
    out.push_back(s);
  }
  return out;
}

std::string LatencyBreakdown::attribution_table() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-22s %10s %12s %12s %12s %14s\n",
                "stage", "count", "p50_us", "p99_us", "p999_us", "total_us");
  out += line;
  for (const StageStats& s : stage_stats()) {
    char p50[32], p99[32], p999[32], total[32];
    format_us(p50, sizeof(p50), s.p50_ns);
    format_us(p99, sizeof(p99), s.p99_ns);
    format_us(p999, sizeof(p999), s.p999_ns);
    format_us(total, sizeof(total), s.total_ns);
    std::snprintf(line, sizeof(line), "%-22s %10llu %12s %12s %12s %14s\n",
                  stage_name(s.stage), static_cast<unsigned long long>(s.count),
                  p50, p99, p999, total);
    out += line;
  }
  return out;
}

}  // namespace stash::trace
