#include "stash/trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace stash::trace {

namespace {

// ---------------------------------------------------------------------------
// Canonical assembly

struct Node {
  const SpanRecord* rec = nullptr;
  std::vector<std::size_t> children;
  std::uint64_t dur = 0;
  std::uint64_t begin = 0;
  std::uint32_t depth = 0;
};

/// Sibling order: content key in virtual mode (thread-count independent),
/// recorded begin in wall mode.  span_id last as the tiebreaker.
struct SiblingLess {
  const std::vector<Node>* nodes;
  bool wall;
  bool operator()(std::size_t a, std::size_t b) const {
    const SpanRecord& ra = *(*nodes)[a].rec;
    const SpanRecord& rb = *(*nodes)[b].rec;
    if (wall) {
      return std::tie(ra.begin_ns, ra.stage, ra.op, ra.key, ra.span_id) <
             std::tie(rb.begin_ns, rb.stage, rb.op, rb.key, rb.span_id);
    }
    return std::tie(ra.stage, ra.op, ra.key, ra.span_id) <
           std::tie(rb.stage, rb.op, rb.key, rb.span_id);
  }
};

/// Post-order duration resolution: explicit cost wins, otherwise the sum of
/// children.  Iterative to keep deep flush chains off the call stack.
void resolve_durations(std::vector<Node>& nodes, std::size_t root, bool wall) {
  std::vector<std::pair<std::size_t, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [i, expanded] = stack.back();
    stack.pop_back();
    if (!expanded) {
      stack.emplace_back(i, true);
      for (std::size_t c : nodes[i].children) stack.emplace_back(c, false);
    } else {
      Node& n = nodes[i];
      if (wall || n.rec->dur_ns != 0) {
        n.dur = n.rec->dur_ns;
      } else {
        std::uint64_t sum = 0;
        for (std::size_t c : n.children) sum += nodes[c].dur;
        n.dur = sum;
      }
    }
  }
}

/// Pre-order begin assignment: children laid sequentially from the parent's
/// start (virtual mode only; wall mode keeps recorded begins).
void assign_begins(std::vector<Node>& nodes, std::size_t root,
                   std::uint64_t at) {
  std::vector<std::size_t> stack{root};
  nodes[root].begin = at;
  nodes[root].depth = 0;
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    std::uint64_t cursor = nodes[i].begin;
    for (std::size_t c : nodes[i].children) {
      nodes[c].begin = cursor;
      nodes[c].depth = nodes[i].depth + 1;
      cursor += nodes[c].dur;
      stack.push_back(c);
    }
  }
}

void set_depths(std::vector<Node>& nodes, std::size_t root) {
  std::vector<std::size_t> stack{root};
  nodes[root].depth = 0;
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t c : nodes[i].children) {
      nodes[c].depth = nodes[i].depth + 1;
      stack.push_back(c);
    }
  }
}

// ---------------------------------------------------------------------------
// Formatting helpers (locale-independent, integer math)

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  out += buf;
}

/// ns -> microseconds with exactly three decimals ("12.345").
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

// ---------------------------------------------------------------------------
// Parsing helpers.  The export is machine-generated with one object per
// line and known keys, so a targeted scanner is sufficient and avoids a
// JSON-library dependency.

std::string quoted_key(std::string_view key, bool string_value) {
  std::string pat;
  pat.reserve(key.size() + 4);
  pat.push_back('"');
  pat += key;
  pat += "\":";
  if (string_value) pat.push_back('"');
  return pat;
}

bool find_u64(std::string_view line, std::string_view key, std::uint64_t& out,
              int base = 10) {
  const std::string pat = quoted_key(key, false);
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return false;
  std::size_t i = pos + pat.size();
  if (i < line.size() && line[i] == '"') ++i;  // hex ids are quoted
  if (base == 16 && i + 1 < line.size() && line[i] == '0' &&
      line[i + 1] == 'x') {
    i += 2;
  }
  std::uint64_t v = 0;
  bool any = false;
  while (i < line.size()) {
    const char c = line[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      break;
    }
    v = v * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
    any = true;
    ++i;
  }
  if (!any) return false;
  out = v;
  return true;
}

bool find_string(std::string_view line, std::string_view key,
                 std::string_view& out) {
  const std::string pat = quoted_key(key, true);
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return false;
  const std::size_t start = pos + pat.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

/// "12.345" (microseconds) -> nanoseconds.
bool find_us_as_ns(std::string_view line, std::string_view key,
                   std::uint64_t& out) {
  const std::string pat = quoted_key(key, false);
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return false;
  std::size_t i = pos + pat.size();
  std::uint64_t whole = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    whole = whole * 10 + static_cast<std::uint64_t>(line[i] - '0');
    any = true;
    ++i;
  }
  if (!any) return false;
  std::uint64_t frac = 0;
  std::size_t digits = 0;
  if (i < line.size() && line[i] == '.') {
    ++i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9' && digits < 3) {
      frac = frac * 10 + static_cast<std::uint64_t>(line[i] - '0');
      ++digits;
      ++i;
    }
  }
  while (digits < 3) {
    frac *= 10;
    ++digits;
  }
  out = whole * 1000 + frac;
  return true;
}

}  // namespace

Stage stage_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    if (name == stage_name(static_cast<Stage>(i))) {
      return static_cast<Stage>(i);
    }
  }
  return Stage::kCount;
}

Op op_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Op::kCount); ++i) {
    if (name == op_name(static_cast<Op>(i))) return static_cast<Op>(i);
  }
  return Op::kCount;
}

std::vector<LaidSpan> canonicalize(const std::vector<SpanRecord>& spans,
                                   ClockMode mode) {
  const bool wall = mode == ClockMode::kWall;

  // Group spans by trace, traces in ascending id order.
  std::map<std::uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord& s : spans) traces[s.trace_id].push_back(&s);

  std::vector<LaidSpan> out;
  out.reserve(spans.size());
  std::uint64_t trace_cursor = 0;
  std::uint32_t lane = 0;
  for (auto& [trace_id, recs] : traces) {
    ++lane;
    std::vector<Node> nodes(recs.size());
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      nodes[i].rec = recs[i];
      by_id.emplace(recs[i]->span_id, i);
    }
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const std::uint64_t parent = recs[i]->parent_id;
      auto it = parent == 0 ? by_id.end() : by_id.find(parent);
      if (it == by_id.end() || it->second == i) {
        roots.push_back(i);  // true root, or orphan promoted to root
      } else {
        nodes[it->second].children.push_back(i);
      }
    }
    const SiblingLess less{&nodes, wall};
    for (Node& n : nodes) std::sort(n.children.begin(), n.children.end(), less);
    std::sort(roots.begin(), roots.end(), less);

    for (std::size_t r : roots) {
      resolve_durations(nodes, r, wall);
      if (wall) {
        nodes[r].begin = nodes[r].rec->begin_ns;
        set_depths(nodes, r);
      } else {
        assign_begins(nodes, r, trace_cursor);
        trace_cursor += nodes[r].dur;
      }
    }

    // Emit in canonical pre-order (roots, then depth-first children).
    std::vector<std::size_t> stack(roots.rbegin(), roots.rend());
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      const Node& n = nodes[i];
      out.push_back({*n.rec, wall ? n.rec->begin_ns : n.begin, n.dur, n.depth,
                     lane});
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return out;
}

std::string to_perfetto_json(const std::vector<SpanRecord>& spans,
                             ClockMode mode) {
  const std::vector<LaidSpan> laid = canonicalize(spans, mode);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < laid.size(); ++i) {
    const LaidSpan& l = laid[i];
    out += "{\"name\":\"";
    out += stage_name(l.rec.stage);
    out += "\",\"cat\":\"";
    out += op_name(l.rec.op);
    out += "\",\"ph\":\"X\",\"ts\":";
    append_us(out, l.begin_ns);
    out += ",\"dur\":";
    append_us(out, l.dur_ns);
    out += ",\"pid\":1,\"tid\":";
    append_u64(out, l.lane);
    out += ",\"args\":{\"trace\":\"";
    append_hex(out, l.rec.trace_id);
    out += "\",\"span\":\"";
    append_hex(out, l.rec.span_id);
    out += "\",\"parent\":\"";
    append_hex(out, l.rec.parent_id);
    out += "\",\"key\":";
    append_u64(out, l.rec.key);
    out += ",\"bytes\":";
    append_u64(out, l.rec.bytes);
    out += ",\"status\":";
    append_u64(out, l.rec.status);
    out += "}}";
    if (i + 1 < laid.size()) out.push_back(',');
    out.push_back('\n');
  }
  out += "]}\n";
  return out;
}

std::vector<SpanRecord> parse_perfetto_json(std::string_view text) {
  std::vector<SpanRecord> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    SpanRecord rec;
    std::string_view stage_str;
    std::string_view op_str;
    if (!find_string(line, "name", stage_str) ||
        !find_string(line, "cat", op_str)) {
      continue;
    }
    const Stage stage = stage_from_name(stage_str);
    const Op op = op_from_name(op_str);
    if (stage == Stage::kCount || op == Op::kCount) continue;
    if (!find_u64(line, "trace", rec.trace_id, 16) ||
        !find_u64(line, "span", rec.span_id, 16) ||
        !find_u64(line, "parent", rec.parent_id, 16)) {
      continue;
    }
    rec.stage = stage;
    rec.op = op;
    std::uint64_t v = 0;
    (void)find_u64(line, "key", rec.key);
    if (find_u64(line, "bytes", v)) rec.bytes = static_cast<std::uint32_t>(v);
    if (find_u64(line, "status", v)) rec.status = static_cast<std::uint8_t>(v);
    if (!find_us_as_ns(line, "ts", rec.begin_ns) ||
        !find_us_as_ns(line, "dur", rec.dur_ns)) {
      continue;
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace stash::trace
