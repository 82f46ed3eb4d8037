// StashDevice end-to-end throughput sweep: threads x read-cache size x
// hidden/public read mix, on a skewed (hot-set) workload.
//
// Each point builds a device, fills the public volume, embeds one hidden
// payload, then serves a read-heavy workload in which 90% of requests hit
// a 10% hot set — the regime a read LRU exists for.  Reported throughput
// uses the simulator's deterministic cost ledger (pages per simulated
// second), so the cache-on/cache-off comparison is exact and stable in CI.
// Nothing here reads a wall clock: wall-clock timing of the device lives in
// bench_perf_baseline (in process) and perfbench (over the net).
//
// Each point also carries an FNV-1a digest of all read payloads + counters
// + ledger totals.  The sweep pins its own thread counts (1, 2, 8), so the
// output is byte-identical for any --threads value, which is the
// determinism acceptance check:
//
//   bench_device_throughput --quick > a.json              # --threads 1
//   bench_device_throughput --quick --threads 8 > b.json
//   diff a.json b.json                                    # empty
//
// JSON lines go to stdout, one object per sweep point plus a summary.
// Every count in them comes from the device's own DeviceStats snapshot and
// cost ledger.  The exit code gates the cache speedup (>= 1.5x) and the
// per-point digests agreeing across the thread axis.

// --pack appends the hidden-capacity packing sweep: per-corpus (text, log,
// already-compressed) effective-capacity multipliers from hidden_info(),
// payloads sized relative to the raw hidden capacity, bit-exact roundtrip
// enforced, gates (text >= 2x, compressed >= 0.98x) on the exit code.

// --trace appends a causal-tracing phase: one extra traced point on the
// virtual (cost-ledger) clock, a per-stage p50/p99/p999 attribution table,
// dominant-stage tags on the tail requests, and a Perfetto JSON export
// (--trace-out sets the file prefix) that is byte-identical for any
// --threads; the per-request consistency gate (root == queue_wait +
// service, no gap) is enforced on the exit code.

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "stash/dev/device.hpp"
#include "stash/trace/breakdown.hpp"
#include "stash/trace/export.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/rng.hpp"

namespace {

using stash::bench::Options;
using stash::dev::DeviceConfig;
using stash::dev::StashDevice;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct Fnv {
  std::uint64_t h = kFnvOffset;
  void bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ static_cast<std::uint8_t>(v >> (8 * i))) * kFnvPrime;
    }
  }
};

struct PointResult {
  unsigned threads = 0;
  std::size_t cache_pages = 0;
  unsigned hidden_pct = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t hidden_loads = 0;
  double cache_hit_ratio = 0.0;
  std::uint64_t coalesced_reads = 0;
  std::uint64_t dispatches = 0;
  double read_sim_us = 0.0;   // ledger time of the read phase only
  double sim_pages_per_s = 0.0;
  std::uint64_t digest = 0;
};

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  stash::util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

PointResult run_point(const Options& opt, unsigned threads,
                      std::size_t cache_pages, unsigned hidden_pct,
                      std::uint64_t read_ops) {
  DeviceConfig config;
  config.geometry = opt.geometry(16);
  config.seed = opt.seed;
  config.threads = threads;
  config.read_cache_pages = cache_pages;
  StashDevice dev(config, stash::bench::bench_key());

  // Fill the public volume (also makes blocks eligible to carry hidden
  // data), then embed one hidden payload for the mixed-read phase.
  const std::uint64_t pages = dev.logical_pages();
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    (void)dev.write(lpn, page_pattern(dev.page_bits(), opt.seed + lpn));
  }
  (void)dev.flush();
  std::vector<std::uint8_t> secret(512);
  stash::util::Xoshiro256 secret_rng(opt.seed ^ 0x5ec7e7ULL);
  for (auto& b : secret) b = static_cast<std::uint8_t>(secret_rng());
  const bool hidden_ok = dev.store_hidden(secret).is_ok();

  // Skewed read phase: 90% of reads land on a 10% hot set.
  PointResult point;
  point.threads = threads;
  point.cache_pages = cache_pages;
  point.hidden_pct = hidden_pct;
  const std::uint64_t hot_pages = pages / 10 ? pages / 10 : 1;
  stash::util::Xoshiro256 rng(opt.seed ^ 0xbadcabULL);
  Fnv digest;

  const auto stats_before = dev.stats_snapshot();
  const auto ledger_before = dev.ledger();
  std::vector<std::uint64_t> chunk;
  for (std::uint64_t op = 0; op < read_ops;) {
    chunk.clear();
    while (chunk.size() < 32 && op + chunk.size() < read_ops) {
      const bool hot = rng() % 100 < 90;
      chunk.push_back(hot ? rng() % hot_pages
                          : hot_pages + rng() % (pages - hot_pages));
    }
    auto results = dev.read_batch(chunk);
    for (const auto& r : results) {
      if (r.is_ok()) digest.bytes(r.value().data(), r.value().size());
    }
    op += chunk.size();
    if (hidden_ok && hidden_pct > 0 && (op / 32) % (100 / hidden_pct) == 0) {
      auto loaded = dev.load_hidden();
      if (loaded.is_ok()) {
        digest.bytes(loaded.value().data(), loaded.value().size());
        ++point.hidden_loads;
      }
    }
  }
  const auto stats_after = dev.stats_snapshot();
  const auto ledger_after = dev.ledger();

  point.read_ops = read_ops;
  const std::uint64_t hits =
      stats_after.cache_hits - stats_before.cache_hits;
  const std::uint64_t misses =
      stats_after.cache_misses - stats_before.cache_misses;
  point.cache_hit_ratio =
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
  point.coalesced_reads =
      stats_after.coalesced_reads - stats_before.coalesced_reads;
  point.dispatches = stats_after.dispatches - stats_before.dispatches;
  point.read_sim_us = ledger_after.time_us() - ledger_before.time_us();
  point.sim_pages_per_s =
      point.read_sim_us > 0.0
          ? static_cast<double>(read_ops) * 1e6 / point.read_sim_us
          : 0.0;

  digest.u64(ledger_after.reads);
  digest.u64(ledger_after.programs);
  digest.u64(ledger_after.erases);
  digest.u64(ledger_after.time_ns);
  digest.u64(stats_after.cache_hits);
  digest.u64(stats_after.buffer_hits);
  digest.u64(stats_after.coalesced_reads);
  digest.u64(stats_after.dispatches);
  point.digest = digest.h;
  return point;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return n == text.size();
}

/// The --trace phase: re-run one sweep point with every request traced on
/// the virtual clock, fold the spans into the per-stage attribution table,
/// tag the tail, export.  Returns false when the consistency gate fails.
bool run_trace_phase(const Options& opt, const std::string& out_prefix,
                     std::uint64_t read_ops) {
  namespace trace = stash::trace;
  auto& tracer = trace::Tracer::global();
  constexpr auto mode = trace::ClockMode::kVirtual;
  tracer.clear();
  tracer.enable(mode);
  (void)run_point(opt, opt.threads, 256, 10, read_ops);
  tracer.disable();
  const auto spans = tracer.collect();

  trace::LatencyBreakdown breakdown;
  breakdown.fold(spans, mode);
  // The header wording is pinned by DIGESTS: every request is traced.
  std::printf("\nper-stage latency attribution (virtual clock, 1-in-1 "
              "request sampling):\n%s",
              breakdown.attribution_table().c_str());

  // Tag the slowest requests (>= p99 end-to-end) with the stage that cost
  // the most — the "why is this read slow" answer, per sample.
  const std::uint64_t p99 = breakdown.request_total_quantile(0.99);
  std::vector<trace::LatencyBreakdown::RequestRecord> tail;
  for (const auto& req : breakdown.requests()) {
    if (req.total_ns >= p99 && req.total_ns > 0) tail.push_back(req);
  }
  std::sort(tail.begin(), tail.end(),
            [](const auto& a, const auto& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.trace_id < b.trace_id;
            });
  if (tail.size() > 5) tail.resize(5);
  std::printf("tail requests (>= p99 end-to-end, dominant stage):\n");
  for (const auto& req : tail) {
    std::printf("  trace=0x%016" PRIx64 " op=%-12s total=%" PRIu64
                "ns dominant=%s (%" PRIu64 "ns)\n",
                req.trace_id, trace::op_name(req.op), req.total_ns,
                trace::stage_name(req.dominant), req.dominant_ns);
  }

  const std::uint64_t gap = breakdown.max_request_gap_ns();
  const bool consistent = gap == 0;

  const bool exported =
      out_prefix.empty() ||
      write_text_file(out_prefix + ".perfetto.json",
                      trace::to_perfetto_json(spans, mode));
  std::printf("{\"trace\":{\"spans\":%zu,\"requests\":%zu,"
              "\"max_request_gap_ns\":%" PRIu64
              ",\"attribution_consistent\":%s,\"exported\":%s}}\n",
              spans.size(), breakdown.requests().size(), gap,
              consistent ? "true" : "false", exported ? "true" : "false");
  return consistent && exported;
}

// ---- --pack: hidden-capacity multiplier corpus sweep -----------------------
//
// For each corpus class, build a device, size the payload relative to the
// *raw* (pre-pack) hidden capacity, store it through the pack pipeline,
// and report the effective-capacity multiplier from hidden_info().

std::vector<std::uint8_t> pack_text_corpus(std::size_t n, std::uint64_t seed) {
  static const char* kWords[] = {
      "the",      "hidden", "voltage", "threshold", "flash",  "channel",
      "capacity", "cell",   "program", "retention", "stash",  "volume",
      "of",       "and",    "in",      "to",        "is",     "a",
  };
  stash::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + 16);
  while (out.size() < n) {
    const std::size_t i = (rng() & 1) ? (rng() % 4 + 12) : (rng() % 18);
    for (const char* p = kWords[i]; *p; ++p) {
      out.push_back(static_cast<std::uint8_t>(*p));
    }
    out.push_back((rng() % 12) ? ' ' : '\n');
  }
  out.resize(n);
  return out;
}

std::vector<std::uint8_t> pack_log_corpus(std::size_t n, std::uint64_t seed) {
  stash::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + 128);
  std::uint64_t t = 1700000000;
  while (out.size() < n) {
    t += rng() % 5;
    char line[96];
    const int len = std::snprintf(
        line, sizeof(line),
        "[%" PRIu64 "] dev0 read lpn=%" PRIu64 " lat_us=%" PRIu64
        " status=OK\n",
        t, static_cast<std::uint64_t>(rng() % 4096),
        static_cast<std::uint64_t>(rng() % 900));
    out.insert(out.end(), line, line + len);
  }
  out.resize(n);
  return out;
}

std::vector<std::uint8_t> pack_random_corpus(std::size_t n,
                                             std::uint64_t seed) {
  stash::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Snapshot-like redundancy: one random tile repeated with a one-byte edit
// per copy — the whole-payload dedup case (incompressible per chunk, near
// duplicate across chunks).
std::vector<std::uint8_t> pack_snapshot_corpus(std::size_t n,
                                               std::uint64_t seed) {
  const std::vector<std::uint8_t> tile = pack_random_corpus(8192, seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + tile.size());
  std::uint64_t gen = 0;
  while (out.size() < n) {
    out.insert(out.end(), tile.begin(), tile.end());
    out.back() = static_cast<std::uint8_t>(gen++);
  }
  out.resize(n);
  return out;
}

struct PackRow {
  const char* corpus;
  double size_vs_raw;   // payload bytes as a fraction of raw capacity
  double min_multiplier;  // acceptance gate
};

bool run_pack_phase(const Options& opt) {
  // Already-compressed data must fit *without* help, so it is sized under
  // the raw capacity; compressible corpora are sized past it to prove the
  // multiplier is real, not just measured.
  const PackRow rows[] = {
      {"text", 1.50, 2.00},
      {"log", 2.00, 2.00},
      {"snapshots", 3.00, 2.00},
      {"compressed", 0.90, 0.98},
  };
  std::printf("\nhidden-capacity packing: corpus -> effective multiplier\n");
  bool ok = true;
  double text_multiplier = 0.0;
  double compressed_multiplier = 0.0;
  for (const PackRow& row : rows) {
    DeviceConfig config;
    config.geometry = opt.geometry(16);
    config.seed = opt.seed;
    config.threads = opt.threads;
    StashDevice dev(config, stash::bench::bench_key());
    const std::uint64_t pages = dev.logical_pages();
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      (void)dev.write(lpn, page_pattern(dev.page_bits(), opt.seed + lpn));
    }
    (void)dev.flush();
    std::size_t raw_capacity = 0;
    for (std::uint32_t c = 0; c < dev.chips(); ++c) {
      raw_capacity += dev.volume(c).hidden_capacity_bytes();
    }
    const auto size =
        static_cast<std::size_t>(static_cast<double>(raw_capacity) *
                                 row.size_vs_raw);
    const std::uint64_t seed = opt.seed ^ 0x9acc0521ULL;
    std::vector<std::uint8_t> payload;
    if (!std::strcmp(row.corpus, "text")) {
      payload = pack_text_corpus(size, seed);
    } else if (!std::strcmp(row.corpus, "log")) {
      payload = pack_log_corpus(size, seed);
    } else if (!std::strcmp(row.corpus, "snapshots")) {
      payload = pack_snapshot_corpus(size, seed);
    } else {
      payload = pack_random_corpus(size, seed);
    }

    const bool stored = dev.store_hidden(payload).is_ok();
    bool exact = false;
    stash::dev::HiddenInfo info;
    if (stored) {
      auto loaded = dev.load_hidden();
      exact = loaded.is_ok() && loaded.value() == payload;
      auto info_r = dev.hidden_info();
      if (info_r.is_ok()) info = info_r.value();
    }
    const double multiplier = info.multiplier();
    const bool row_ok = stored && exact && multiplier >= row.min_multiplier;
    ok = ok && row_ok;
    if (!std::strcmp(row.corpus, "text")) text_multiplier = multiplier;
    if (!std::strcmp(row.corpus, "compressed")) {
      compressed_multiplier = multiplier;
    }
    std::printf("{\"pack\":{\"corpus\":\"%s\",\"raw_capacity_bytes\":%zu,"
                "\"logical_bytes\":%" PRIu64 ",\"packed_bytes\":%" PRIu64
                ",\"chunks\":%" PRIu64 ",\"unique_chunks\":%" PRIu64
                ",\"dedup_ratio\":%.3f,\"multiplier\":%.3f,"
                "\"roundtrip_exact\":%s,\"ok\":%s}}\n",
                row.corpus, raw_capacity, info.logical_bytes,
                info.packed_bytes, info.chunks, info.unique_chunks,
                info.dedup_ratio, multiplier, exact ? "true" : "false",
                row_ok ? "true" : "false");
  }
  std::printf("{\"pack_summary\":{\"text_multiplier\":%.3f,"
              "\"compressed_multiplier\":%.3f,\"gates\":"
              "{\"text_min\":2.0,\"compressed_min\":0.98},\"ok\":%s}}\n",
              text_multiplier, compressed_multiplier, ok ? "true" : "false");
  return ok;
}

void print_point(const PointResult& p) {
  std::printf("{\"threads\":%u,\"cache_pages\":%zu,\"hidden_pct\":%u,"
              "\"read_ops\":%" PRIu64 ",\"hidden_loads\":%" PRIu64
              ",\"cache_hit_ratio\":%.4f,\"coalesced_reads\":%" PRIu64
              ",\"dispatches\":%" PRIu64 ",\"sim_read_us\":%.1f,"
              "\"sim_pages_per_s\":%.1f,\"digest\":\"%016" PRIx64 "\"}\n",
              p.threads, p.cache_pages, p.hidden_pct, p.read_ops,
              p.hidden_loads, p.cache_hit_ratio, p.coalesced_reads,
              p.dispatches, p.read_sim_us, p.sim_pages_per_s, p.digest);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  bool do_trace = false;
  bool do_pack = false;
  std::string trace_out = "device_trace";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace")) do_trace = true;
    if (!std::strcmp(argv[i], "--pack")) do_pack = true;
    if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }

  stash::bench::print_header(
      "Device throughput: threads x cache x hidden mix",
      "StashDevice skewed-read sweep (90% of reads on a 10% hot set)");
  stash::bench::print_geometry(opt);

  const std::uint64_t read_ops = opt.quick ? 1536 : 4096;
  // The sweep pins its own thread counts so the emitted bytes cannot
  // depend on --threads.
  const unsigned thread_counts[] = {1, 2, 8};
  const std::size_t cache_sizes[] = {0, 256};
  const unsigned hidden_mixes[] = {0, 10};

  std::vector<PointResult> points;
  for (const unsigned threads : thread_counts) {
    for (const std::size_t cache : cache_sizes) {
      for (const unsigned mix : hidden_mixes) {
        points.push_back(run_point(opt, threads, cache, mix, read_ops));
        print_point(points.back());
      }
    }
  }

  // Summary: cache-on vs cache-off read throughput on the skewed public
  // workload (one thread, hidden mix 0).
  double off = 0.0;
  double on = 0.0;
  bool thread_invariant = true;
  for (const auto& p : points) {
    if (p.threads == 1 && p.hidden_pct == 0) {
      (p.cache_pages == 0 ? off : on) = p.sim_pages_per_s;
    }
    for (const auto& q : points) {
      if (q.cache_pages == p.cache_pages && q.hidden_pct == p.hidden_pct &&
          q.digest != p.digest) {
        thread_invariant = false;
      }
    }
  }
  const double speedup = off > 0.0 ? on / off : 0.0;
  std::printf("{\"summary\":{\"cache_read_speedup\":%.2f,"
              "\"thread_invariant\":%s}}\n",
              speedup, thread_invariant ? "true" : "false");

  const bool trace_ok = !do_trace || run_trace_phase(opt, trace_out, read_ops);
  const bool pack_ok = !do_pack || run_pack_phase(opt);
  return speedup >= 1.5 && thread_invariant && trace_ok && pack_ok ? 0 : 1;
}
