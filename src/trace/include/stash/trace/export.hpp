#pragma once
// Trace export: canonical span assembly plus one serialization —
// chrome://tracing / Perfetto JSON ("X" complete events), which carries
// every field of a laid-out span and parses back losslessly.
//
// Determinism: exports are pure functions of the span set.  canonicalize()
// groups spans by trace, sorts siblings by a content key (virtual mode) or
// recorded begin time (wall mode), and — in virtual mode — synthesizes a
// timeline: traces are laid end-to-end in trace-id order, a parent's
// children are laid sequentially from the parent's start, and a span with
// no explicit cost inherits the sum of its children.  Two runs that record
// the same spans therefore serialize to byte-identical output regardless of
// thread count or collection order, which is what the CI trace-smoke leg
// diffs.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stash/trace/trace.hpp"

namespace stash::trace {

/// A span placed on the canonical timeline.
struct LaidSpan {
  SpanRecord rec;
  std::uint64_t begin_ns = 0;  // canonical (virtual) or recorded (wall)
  std::uint64_t dur_ns = 0;    // resolved: explicit cost or sum of children
  std::uint32_t depth = 0;     // 0 == trace root
  std::uint32_t lane = 0;      // per-trace lane, used as the Perfetto tid
};

/// Deterministic assembly (see file comment).  Orphan spans whose parent is
/// absent from the set are treated as additional roots of their trace.
[[nodiscard]] std::vector<LaidSpan> canonicalize(
    const std::vector<SpanRecord>& spans, ClockMode mode);

/// chrome://tracing JSON: {"displayTimeUnit":"ms","traceEvents":[...]} with
/// one complete ("ph":"X") event per line.  ts/dur are microseconds with
/// fixed 3-decimal formatting (integer math, locale-independent).
[[nodiscard]] std::string to_perfetto_json(const std::vector<SpanRecord>& spans,
                                           ClockMode mode);

/// Parse a to_perfetto_json() export back into records (stage/op recovered
/// from the event name/category, ids from args, ts/dur from the event:
/// the canonical timeline, exact to the nanosecond).  Events that do not
/// parse are skipped.
[[nodiscard]] std::vector<SpanRecord> parse_perfetto_json(
    std::string_view text);

/// Reverse lookups for the parsers; Stage::kCount / Op::kCount on miss.
[[nodiscard]] Stage stage_from_name(std::string_view name) noexcept;
[[nodiscard]] Op op_from_name(std::string_view name) noexcept;

}  // namespace stash::trace
