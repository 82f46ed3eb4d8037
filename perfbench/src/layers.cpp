#include "layers.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <queue>
#include <unordered_map>

#include "stash/telemetry/metrics.hpp"

namespace perfbench {

using stash::trace::Op;
using stash::trace::SpanRecord;
using stash::trace::Stage;

namespace {

// NAND cell ops are split by kind: the workloads differ exactly in which
// of them they lean on.
constexpr std::array<const char*, kLayerCount> kLayers = {
    "net", "dev", "ftl", "vthi", "ecc", "nand.read", "nand.program",
    "nand.erase", "other"};
enum Layer : std::uint8_t {
  kNet, kDev, kFtl, kVthi, kEcc, kNandRead, kNandProgram, kNandErase, kOther
};

double thread_cpu_s(int tid) {
  if (tid <= 0) return 0.0;
  // Linux per-thread CPU clock of another thread in this process
  // (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)).
  const auto id = static_cast<clockid_t>(
      (~static_cast<std::uint32_t>(tid) << 3) | 6u);
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Layer of a span on the reactor's timeline.  Request envelopes
/// (dev.request, dev.queue_wait) are not work and take no time here.
std::optional<Layer> layer_of(Stage s) {
  switch (s) {
    case Stage::kDevDispatch:
    case Stage::kDevCache:
    case Stage::kDevBuffer:
    case Stage::kDevFlush:
    case Stage::kDevHidden:
    case Stage::kFtlService:  // service not covered by deeper spans
      return kDev;
    case Stage::kFtlReadBatch:
    case Stage::kFtlWrite:
    case Stage::kFtlGc:
      return kFtl;
    case Stage::kVthiEmbed:
    case Stage::kVthiExtract:
      return kVthi;
    case Stage::kEccDecode:
      return kEcc;
    case Stage::kNandRead:
    case Stage::kNandProbe:
      return kNandRead;
    case Stage::kNandProgram:
    case Stage::kNandPartialProgram:
    case Stage::kNandFineProgram:
      return kNandProgram;
    case Stage::kNandErase:
      return kNandErase;
    default:
      return std::nullopt;
  }
}

/// Length of the union of [b, e) intervals (sorted in place).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>>& ivs) {
  std::sort(ivs.begin(), ivs.end());
  std::uint64_t total = 0;
  std::uint64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : ivs) {
    if (!open || b > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// Per-span self time within its own trace: duration minus the union of
/// its children's intervals clipped to it.
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans,
                                      std::vector<std::int64_t>& parent) {
  const auto key = [](std::uint64_t trace, std::uint64_t span) {
    return trace * 0x9e3779b97f4a7c15ull ^ span;
  };
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(key(spans[i].trace_id, spans[i].span_id), i);
  }
  parent.assign(spans.size(), -1);
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id == 0) continue;
    const auto it = index.find(key(spans[i].trace_id, spans[i].parent_id));
    if (it == index.end()) continue;
    parent[i] = static_cast<std::int64_t>(it->second);
    children[it->second].push_back(i);
  }
  std::vector<std::uint64_t> self(spans.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ivs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t b = spans[i].begin_ns;
    const std::uint64_t e = b + spans[i].dur_ns;
    ivs.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t cb = std::max(b, spans[c].begin_ns);
      const std::uint64_t ce = std::min(e, spans[c].begin_ns + spans[c].dur_ns);
      if (ce > cb) ivs.emplace_back(cb, ce);
    }
    self[i] = spans[i].dur_ns - std::min(spans[i].dur_ns, union_length(ivs));
  }
  return self;
}

/// Busy time per layer on the reactor thread: every instant covered by a
/// work span is charged to the most recently begun span covering it.  The
/// device runs single-threaded on the reactor, so spans of different
/// traces (a dispatch round and the hidden request it executes) nest in
/// time even where their traces do not.
std::array<double, kLayerCount> timeline_busy_ns(
    const std::vector<SpanRecord>& spans) {
  struct Iv {
    std::uint64_t b, e;
    Layer layer;
  };
  std::vector<Iv> ivs;
  std::vector<std::uint64_t> points;
  for (const auto& s : spans) {
    const auto layer = layer_of(s.stage);
    if (!layer || s.dur_ns == 0) continue;
    ivs.push_back({s.begin_ns, s.begin_ns + s.dur_ns, *layer});
    points.push_back(s.begin_ns);
    points.push_back(s.begin_ns + s.dur_ns);
  }
  std::sort(ivs.begin(), ivs.end(), [](const Iv& a, const Iv& b) {
    return a.b != b.b ? a.b < b.b : a.e > b.e;
  });
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  // Max-heap on (begin, then earlier end): the innermost covering span.
  const auto later = [&](std::size_t x, std::size_t y) {
    if (ivs[x].b != ivs[y].b) return ivs[x].b < ivs[y].b;
    return ivs[x].e > ivs[y].e;
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)>
      active(later);
  std::array<double, kLayerCount> busy{};
  std::size_t next = 0;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const std::uint64_t t = points[k];
    while (next < ivs.size() && ivs[next].b <= t) active.push(next++);
    while (!active.empty() && ivs[active.top()].e <= t) active.pop();
    if (!active.empty()) {
      busy[ivs[active.top()].layer] += static_cast<double>(points[k + 1] - t);
    }
  }
  return busy;
}

double us(double ns) { return ns / 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

LayerSnapshot take_snapshot(stash::dev::StashDevice& device,
                            const stash::net::Server& server,
                            int reactor_tid) {
  LayerSnapshot s;
  s.dev = device.stats_snapshot();
  s.net = server.stats_snapshot();
  for (std::uint32_t c = 0; c < device.chips(); ++c) {
    const auto f = device.volume(c).ftl_stats_snapshot();
    s.ftl.host_writes += f.host_writes;
    s.ftl.nand_writes += f.nand_writes;
    s.ftl.gc_runs += f.gc_runs;
    s.ftl.relocations += f.relocations;
  }
  s.ledger = device.ledger();
  auto& flush =
      stash::telemetry::MetricsRegistry::global().histogram("dev.flush_latency_ns");
  s.flush_sum_ns = flush.sum();
  s.reactor_cpu_s = thread_cpu_s(reactor_tid);
  return s;
}

void SpanTally::add(const std::vector<SpanRecord>& spans) {
  this->spans += spans.size();
  std::vector<std::int64_t> parent;
  const std::vector<std::uint64_t> self = self_times(spans, parent);
  const auto root_of = [&](std::size_t i) {
    while (parent[i] >= 0) i = static_cast<std::size_t>(parent[i]);
    return i;
  };
  const auto under_flush = [&](std::size_t i) {
    for (auto j = static_cast<std::int64_t>(i); j >= 0; j = parent[j]) {
      if (spans[j].stage == Stage::kDevFlush) return true;
    }
    return false;
  };
  std::unordered_map<std::size_t, std::uint64_t> request_parts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const auto st = static_cast<std::size_t>(s.stage);
    const auto self_i = static_cast<double>(self[i]);
    self_us[st].add(us(self_i));
    dur_us[st].add(us(static_cast<double>(s.dur_ns)));
    self_ns[st] += self_i;
    if (s.stage == Stage::kEccDecode) decode_bytes += s.bytes;
    if (s.stage == Stage::kDevFlush) flush_ns += static_cast<double>(s.dur_ns);
    if (const auto layer = layer_of(s.stage); layer && under_flush(i)) {
      flush_busy_ns[*layer] += self_i;
    }
    if (parent[i] >= 0 && (s.stage == Stage::kDevQueueWait ||
                           s.stage == Stage::kFtlService)) {
      request_parts[static_cast<std::size_t>(parent[i])] += s.dur_ns;
    }
    const SpanRecord& root = spans[root_of(i)];
    if (root.stage != Stage::kDevRequest) continue;
    if (s.stage == Stage::kDevRequest) {
      if (s.op == Op::kRead) request_read_us.add(us(static_cast<double>(s.dur_ns)));
      if (s.op == Op::kLoadHidden && s.status == 0) ++loads;
      if (s.op == Op::kStoreHidden && s.status == 0) ++stores;
    }
    if (s.stage == Stage::kDevQueueWait) {
      queue_wait_us.add(us(static_cast<double>(s.dur_ns)));
    }
    if (root.op == Op::kLoadHidden) {
      if (s.stage == Stage::kVthiExtract) extract_ns += self_i;
      if (s.stage == Stage::kEccDecode) decode_ns += self_i;
      if (s.stage == Stage::kNandRead || s.stage == Stage::kNandProbe) {
        ++load_nand_reads;
      }
      if (s.stage == Stage::kDevHidden) hidden_load_self_us.add(us(self_i));
    }
    // VthiCodec::hide drives the channel's step API, which has no span of
    // its own, so the embed loop's time is dev.hidden's self time on stores.
    if (root.op == Op::kStoreHidden &&
        (s.stage == Stage::kVthiEmbed || s.stage == Stage::kDevHidden)) {
      embed_ns += self_i;
    }
  }
  // The attribution invariant: every request root is exactly its queue
  // wait plus its service.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].stage != Stage::kDevRequest) continue;
    const std::uint64_t parts = request_parts[i];
    const std::uint64_t d = spans[i].dur_ns;
    request_gap_ns = std::max(request_gap_ns, d > parts ? d - parts : parts - d);
  }
  const auto busy = timeline_busy_ns(spans);
  for (std::size_t l = 0; l < kLayerCount; ++l) busy_ns[l] += busy[l];
}

LayerReport analyze(TracedWindow& w, const WorkloadSpec& spec) {
  LayerReport report;
  auto& out = report.metrics;
  auto& t = w.tally;
  const auto& b = w.before;
  const auto& a = w.after;

  // Layer shares.  Explicit flush requests run outside any request trace,
  // so their time (from the dev.flush_latency_ns histogram) is split over
  // layers in the proportions the traced flushes show.
  auto busy = t.busy_ns;
  double device_ns = 0;
  for (const double v : busy) device_ns += v;
  const double untraced_flush_ns = std::max(
      0.0, static_cast<double>(a.flush_sum_ns - b.flush_sum_ns) - t.flush_ns);
  double flush_total = 0;
  for (const double v : t.flush_busy_ns) flush_total += v;
  for (std::size_t l = 0; l < busy.size(); ++l) {
    busy[l] += flush_total > 0
                   ? untraced_flush_ns * t.flush_busy_ns[l] / flush_total
                   : (l == kOther ? untraced_flush_ns : 0.0);
  }
  device_ns += untraced_flush_ns;
  // Reactor CPU time not spent inside the device: framing, socket I/O,
  // the poll loop — the net layer.
  busy[kNet] = std::max(0.0, (a.reactor_cpu_s - b.reactor_cpu_s) * 1e9 - device_ns);
  double busy_total = 0;
  for (const double v : busy) busy_total += v;
  std::size_t top = 0;
  for (std::size_t l = 0; l < busy.size(); ++l) {
    report.shares.emplace_back(kLayers[l], ratio(busy[l], busy_total));
    if (busy[l] > busy[top]) top = l;
  }
  report.dominant = kLayers[top];
  report.dominant_ok =
      std::find(spec.dominant.begin(), spec.dominant.end(), report.dominant) !=
      spec.dominant.end();

  // ---- Metrics ------------------------------------------------------------
  const auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  const auto add_q = [&out](std::string name, Samples& s, double q) {
    const auto v = s.quantile(q);
    out.push_back({std::move(name), v.value_or(0.0), "us",
                   static_cast<long long>(s.size()), v.has_value()});
  };
  const auto stage = [](Stage s) { return static_cast<std::size_t>(s); };
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double ops = delta(a.net.requests, b.net.requests);
  const double writes = delta(a.dev.writes, b.dev.writes);
  const double cells = static_cast<double>(w.cells_per_page);

  add("trace.ops_per_s", w.traced_ops_per_s, "1/s");
  add("trace.untraced_ops_per_s", w.untraced_ops_per_s, "1/s");
  add("trace.overhead", ratio(w.untraced_ops_per_s, w.traced_ops_per_s) - 1.0, "ratio");
  add("trace.spans", static_cast<double>(t.spans), "count");
  add("trace.slices", static_cast<double>(w.slices), "count");
  add("trace.ops", ops, "count");
  for (const auto& [name, share] : report.shares) {
    add("share." + name, share, "ratio");
  }
  add("check.dominant_layer_ok", report.dominant_ok ? 1.0 : 0.0, "bool");
  report.request_gap_ns = t.request_gap_ns;
  add("dev.request_gap_ns", static_cast<double>(t.request_gap_ns), "ns");

  // net
  add("net.rx_bytes_per_op", ratio(delta(a.net.rx_bytes, b.net.rx_bytes), ops), "B");
  add("net.tx_bytes_per_op", ratio(delta(a.net.tx_bytes, b.net.tx_bytes), ops), "B");
  add("net.pipeline_stalls", delta(a.net.pipeline_stalls, b.net.pipeline_stalls), "count");
  {
    const auto client = w.client_read_us.quantile(0.5);
    const auto device = t.request_read_us.quantile(0.5);
    out.push_back({"net.overhead_p50_us",
                   client && device ? *client - *device : 0.0, "us",
                   static_cast<long long>(std::min(w.client_read_us.size(),
                                                   t.request_read_us.size())),
                   client && device});
  }
  add("net.reactor_cpu_s", a.reactor_cpu_s - b.reactor_cpu_s, "s");

  // dev
  const double hits = delta(a.dev.cache_hits, b.dev.cache_hits);
  const double misses = delta(a.dev.cache_misses, b.dev.cache_misses);
  const double reads = delta(a.dev.reads, b.dev.reads);
  add("dev.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  add("dev.coalesced_reads_per_read",
      ratio(delta(a.dev.coalesced_reads, b.dev.coalesced_reads), reads), "ratio");
  add("dev.dispatches_per_op",
      ratio(delta(a.dev.dispatches, b.dev.dispatches), ops), "ratio");
  add_q("dev.queue_wait_p50_us", t.queue_wait_us, 0.50);
  add_q("dev.queue_wait_p99_us", t.queue_wait_us, 0.99);
  add_q("dev.flush_p50_us", t.dur_us[stage(Stage::kDevFlush)], 0.50);
  add_q("dev.flush_p99_us", t.dur_us[stage(Stage::kDevFlush)], 0.99);
  add("dev.flushes_per_kwrite",
      ratio(1e3 * delta(a.dev.flushes, b.dev.flushes), writes), "count");
  add("dev.bytes_copied_per_op",
      ratio(delta(a.dev.bytes_copied, b.dev.bytes_copied), ops), "B");
  add_q("dev.hidden_self_us", t.hidden_load_self_us, 0.50);

  // ftl
  add_q("ftl.read_batch_self_us", t.self_us[stage(Stage::kFtlReadBatch)], 0.50);
  add_q("ftl.write_self_us", t.self_us[stage(Stage::kFtlWrite)], 0.50);
  add_q("ftl.gc_p50_us", t.dur_us[stage(Stage::kFtlGc)], 0.50);
  add_q("ftl.gc_p99_us", t.dur_us[stage(Stage::kFtlGc)], 0.99);
  add("ftl.gc_per_kwrite",
      ratio(1e3 * delta(a.ftl.gc_runs, b.ftl.gc_runs), writes), "count");
  add("ftl.relocations_per_kwrite",
      ratio(1e3 * delta(a.ftl.relocations, b.ftl.relocations), writes), "count");
  add("ftl.write_amplification",
      ratio(delta(a.ftl.nand_writes, b.ftl.nand_writes),
            delta(a.ftl.host_writes, b.ftl.host_writes)),
      "ratio");

  // vthi / stego / ecc: per traced, successful hidden request
  const auto loads = static_cast<double>(t.loads);
  const auto stores = static_cast<double>(t.stores);
  add("trace.hidden_loads", loads, "count");
  add("trace.hidden_stores", stores, "count");
  add("vthi.extract_self_us_per_load", us(ratio(t.extract_ns, loads)), "us");
  add("stego.nand_reads_per_hidden_load", ratio(t.load_nand_reads, loads), "count");
  add("vthi.embed_self_us_per_store", us(ratio(t.embed_ns, stores)), "us");
  add("ecc.decode_self_us_per_load", us(ratio(t.decode_ns, loads)), "us");
  add("ecc.decode_mbps",
      ratio(t.decode_bytes, us(t.self_ns[stage(Stage::kEccDecode)])), "MB/s");

  // nand: wall self time per op, per cell, and against the cost model.
  const auto nand_op = [&](const char* name, Stage s, double model_us, bool p99) {
    auto& smp = t.self_us[stage(s)];
    add_q(std::string("nand.") + name + "_self_p50_us", smp, 0.50);
    if (p99) add_q(std::string("nand.") + name + "_self_p99_us", smp, 0.99);
    if (s != Stage::kNandErase) {
      add(std::string("nand.") + name + "_ns_per_cell", ratio(smp.mean() * 1e3, cells), "ns");
    }
    add(std::string("nand.") + name + "_rtf", ratio(smp.mean(), model_us), "ratio");
  };
  nand_op("program", Stage::kNandProgram, w.costs.program_us, true);
  nand_op("erase", Stage::kNandErase, w.costs.erase_us, false);
  nand_op("read", Stage::kNandRead, w.costs.read_us, false);
  add("nand.programs_per_op", ratio(delta(a.ledger.programs, b.ledger.programs), ops), "count");
  add("nand.erases_per_op", ratio(delta(a.ledger.erases, b.ledger.erases), ops), "count");
  add("nand.reads_per_op", ratio(delta(a.ledger.reads, b.ledger.reads), ops), "count");

  // pack
  add("pack.multiplier", w.hidden ? w.hidden->multiplier() : 0.0, "ratio");
  add("pack.packed_bytes", w.hidden ? static_cast<double>(w.hidden->packed_bytes) : 0.0, "B");
  add("stego.free_capacity_bytes",
      w.hidden ? static_cast<double>(w.hidden->remaining_capacity_bytes) : 0.0, "B");
  add_q("pack.pack_us", w.pack_us, 0.50);
  add_q("pack.unpack_us", w.unpack_us, 0.50);
  return report;
}

}  // namespace perfbench
