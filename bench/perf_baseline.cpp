// Perf baseline harness (ISSUE 5): the repo's defended performance numbers.
//
// Measures the voltage-domain hot paths end to end and emits BENCH_perf.json:
//   * ns/cell page program   (program_page incl. program-disturb on neighbours)
//   * ns/cell block erase     (erase_block; median of 5, ungated)
//   * ns/cell page read      (read_page incl. read-disturb accounting)
//   * BCH decode MB/s        (syndromes + BM + Chien + verify, errors at t/2)
//   * BCH reject us/codeword (random words at the VT-HI production code,
//                             t 85 over 4096 bits: what a key-only scan
//                             pays per codeword it decodes in a block
//                             that holds no frame; median of 5, ungated)
//   * fig06-style wall time  (VT-HI embed/extract inner loop, one combo)
//   * device read p99 us     (StashDevice end-to-end skewed-read tail,
//                             exact over the reads' dev.request spans)
//   * kernel ns/cell and SIMD/reference time ratio for erased_fill,
//     normal_row and disturb_row (medians of 5, ungated): the scalar
//     reference twins are a baseline inside the binary, so the ratio
//     carries from one host to another where absolute times do not
//   * DRBG MB/s              (Sha256Drbg::next_u64, 16 SHA-256 blocks
//                             per refill; median of 5, ungated) and its
//                             time over a scalar reference, one
//                             Sha256::hash per 32 bytes of the same stream
//
// The committed BENCH_perf.json at the repo root is always the *latest*
// trajectory point; CI re-runs this harness with --check against it and
// fails on a >25% regression of any gated metric (ns/cell program+read,
// BCH decode MB/s, device read p99).  --trajectory FILE appends one dated
// markdown row per run (date from $STASH_DATE when set, so tests stay
// reproducible) — EXPERIMENTS.md keeps the history, BENCH_perf.json the
// head.
//
// Determinism: --state-checksum prints an FNV-1a checksum of every voltage
// probed after the NAND, BCH and fig06 phases (it runs only those three).
// The checksum is byte-identical for any --threads value (see the FlashChip
// concurrency contract), which CI uses as the threads-1-vs-8 bit-exactness
// gate.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "stash/crypto/drbg.hpp"
#include "stash/dev/device.hpp"
#include "stash/ecc/bch.hpp"
#include "stash/kernels/kernels.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/stats.hpp"
#include "stash/vthi/channel.hpp"
#include "stash/vthi/config.hpp"

using namespace stash;
using namespace stash::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median and extremes of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Spread of an odd number of samples.
Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// MB/s spread of moving `mb` megabytes once per entry of `secs` (odd
/// length).
Spread mbps_spread(double mb, std::vector<double> secs) {
  const Spread s = spread_of(std::move(secs));
  const auto rate = [mb](double t) { return t > 0.0 ? mb / t : 0.0; };
  return {rate(s.median), rate(s.max), rate(s.min)};
}

/// Repetitions behind every Spread this harness reports.
constexpr int kReps = 5;

/// One SIMD kernel against its scalar reference twin.
struct KernelTiming {
  const char* name;
  Spread ns_per_cell;          // SIMD build
  Spread simd_over_reference;  // SIMD time / reference time, per repetition
};

struct PerfResult {
  double ns_per_cell_program = 0.0;
  Spread ns_per_cell_erase;
  std::vector<KernelTiming> kernels;
  Spread drbg_mbps;
  Spread drbg_batched_over_scalar;  // batched time / scalar time, per rep
  double ns_per_cell_read = 0.0;
  double bch_decode_mbps = 0.0;
  Spread bch_reject_us;
  double fig06_wall_s = 0.0;
  double device_read_p99_us = 0.0;
  Spread snapshot_save_mbps;
  Spread snapshot_load_mbps;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t dev_bytes_copied = 0;
  std::uint64_t state_checksum = 0;
  std::uint64_t cells_per_page = 0;
  std::uint32_t threads = 1;
};

/// FNV-1a over probed voltages: the deterministic digest of chip state.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

/// Time program_page over `blocks` pre-erased blocks, then read_page passes
/// over the same pages.  Both phases run block-parallel on the pool; with
/// one thread this is the single-thread scalar number.
void run_nand_phase(const Options& opt, std::uint32_t blocks,
                    std::uint32_t read_passes, PerfResult& result) {
  nand::FlashChip chip(opt.geometry(blocks), nand::NoiseModel::vendor_a(),
                       opt.seed);
  const auto& geom = chip.geometry();
  result.cells_per_page = geom.cells_per_page;

  // Pre-generate the data pattern outside the timed region.
  util::Xoshiro256 data_rng(opt.seed ^ 0xDA7AULL);
  std::vector<std::uint8_t> pattern(geom.cells_per_page);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(data_rng() & 1);

  par::ThreadPool pool(opt.threads);

  // Erase every block up front (the normal lifecycle for a block about to
  // be programmed): block materialization and the erased-state fill happen
  // here, outside the timed region, so ns/cell program measures
  // program_page itself — target draws, ISPP apply, and neighbour disturb.
  // (run_erase_phase times erase_block on a chip of its own.)
  pool.parallel_for(blocks, [&](std::size_t b) {
    (void)chip.erase_block(static_cast<std::uint32_t>(b));
  });

  const std::uint64_t programmed_cells = static_cast<std::uint64_t>(blocks) *
                                         geom.pages_per_block *
                                         geom.cells_per_page;
  auto t0 = Clock::now();
  pool.parallel_for(blocks, [&](std::size_t b) {
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      (void)chip.program_page(static_cast<std::uint32_t>(b), p, pattern);
    }
  });
  result.ns_per_cell_program =
      seconds_since(t0) * 1e9 / static_cast<double>(programmed_cells);

  const std::uint64_t read_cells = programmed_cells * read_passes;
  t0 = Clock::now();
  pool.parallel_for(blocks, [&](std::size_t b) {
    for (std::uint32_t pass = 0; pass < read_passes; ++pass) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        (void)chip.read_page(static_cast<std::uint32_t>(b), p);
      }
    }
  });
  result.ns_per_cell_read =
      seconds_since(t0) * 1e9 / static_cast<double>(read_cells);

  // State digest: probe every page (probes draw no noise, so this is a pure
  // measurement of the post-workload voltage state).
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      const auto volts = chip.probe_voltages(b, p);
      for (int v : volts) {
        checksum = fnv1a(checksum, static_cast<std::uint64_t>(
                                       static_cast<std::int64_t>(v)));
      }
    }
  }
  result.state_checksum = checksum;
}

/// Time erase_block on a chip of its own, so the program phase's chip (and
/// the state checksum) never sees the extra erases.  One untimed pass
/// materializes the blocks; each of kReps passes then erases every block.
void run_erase_phase(const Options& opt, std::uint32_t blocks,
                     PerfResult& result) {
  nand::FlashChip chip(opt.geometry(blocks), nand::NoiseModel::vendor_a(),
                       opt.seed);
  const auto& geom = chip.geometry();
  par::ThreadPool pool(opt.threads);
  const auto erase_all = [&] {
    pool.parallel_for(blocks, [&](std::size_t b) {
      (void)chip.erase_block(static_cast<std::uint32_t>(b));
    });
  };
  erase_all();
  const double cells = static_cast<double>(blocks) * geom.pages_per_block *
                       geom.cells_per_page;
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    erase_all();
    ns.push_back(seconds_since(t0) * 1e9 / cells);
  }
  result.ns_per_cell_erase = spread_of(ns);
}

/// The noise-drawing kernels over one page-wide row, each repetition timing
/// kCalls SIMD calls and then kCalls reference calls on the same input.
void run_kernel_phase(const Options& opt, PerfResult& result) {
  const std::uint32_t n = opt.geometry(1).cells_per_page;
  const kernels::DrawKey key =
      kernels::derive_key(opt.seed, kernels::Op::kErasedFill, 0, 0, 0);
  const kernels::ErasedParams erased{10.0, 3.2, 0.01, 6.0, 80.0};
  const kernels::DisturbParams disturb{0.5, 0.3, 90.0, 255.0};
  std::vector<float> erased_row(n);
  kernels::reference::erased_fill(key, erased, erased_row.data(), 0, n);
  std::vector<float> row(n);
  std::vector<double> targets(n);
  constexpr int kCalls = 50;

  // Each kernel as (simd?) -> one call over the row.
  const auto time_kernel = [&](const char* name, auto&& call) {
    std::vector<double> ns, ratio;
    for (int rep = 0; rep < kReps; ++rep) {
      double secs[2];
      for (const bool simd : {true, false}) {
        row = erased_row;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) call(simd);
        secs[simd ? 0 : 1] = seconds_since(t0);
      }
      ns.push_back(secs[0] * 1e9 / (static_cast<double>(kCalls) * n));
      ratio.push_back(secs[0] / secs[1]);
    }
    result.kernels.push_back({name, spread_of(ns), spread_of(ratio)});
  };
  time_kernel("erased_fill", [&](bool simd) {
    (simd ? kernels::erased_fill : kernels::reference::erased_fill)(
        key, erased, row.data(), 0, n);
  });
  time_kernel("normal_row", [&](bool simd) {
    (simd ? kernels::normal_row : kernels::reference::normal_row)(
        key, 40.0, 2.0, targets.data(), 0, n);
  });
  time_kernel("disturb_row", [&](bool simd) {
    (simd ? kernels::disturb_row : kernels::reference::disturb_row)(
        key, disturb, row.data(), 0, n);
  });
}

/// The hidden-cell selection stream as below() reads it, 8 bytes per
/// next_u64: each repetition times kBytes of Sha256Drbg, then the same
/// bytes as one Sha256::hash of key || le64(counter) per 32-byte block (the
/// stream's definition).  The two runs must read equal words.
bool run_drbg_phase(const Options& opt, PerfResult& result) {
  constexpr std::uint64_t kBytes = std::uint64_t{1} << 20;
  std::array<std::uint8_t, 32> seed{};
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<std::uint8_t>(opt.seed >> (8 * (i % 8)));
  }
  const std::string personalization = "perf_baseline/drbg";
  crypto::Sha256 keyed;
  keyed.update(seed);
  keyed.update(personalization);
  const crypto::Digest256 key = keyed.finish();
  std::vector<double> secs, ratio;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t batched_sum = 0;
    auto t0 = Clock::now();
    crypto::Sha256Drbg drbg(seed, personalization);
    for (std::uint64_t i = 0; i < kBytes / 8; ++i) {
      batched_sum += drbg.next_u64();
    }
    const double batched = seconds_since(t0);

    std::uint64_t scalar_sum = 0;
    t0 = Clock::now();
    std::array<std::uint8_t, 40> msg{};
    std::memcpy(msg.data(), key.data(), key.size());
    for (std::uint64_t c = 0; c < kBytes / 32; ++c) {
      for (int i = 0; i < 8; ++i) {
        msg[32 + i] = static_cast<std::uint8_t>(c >> (8 * i));
      }
      const crypto::Digest256 block = crypto::Sha256::hash(msg);
      for (int w = 0; w < 4; ++w) {
        std::uint64_t v = 0;
        for (int b = 0; b < 8; ++b) v = (v << 8) | block[8 * w + b];
        scalar_sum += v;
      }
    }
    const double scalar = seconds_since(t0);
    if (batched_sum != scalar_sum) {
      std::fprintf(stderr, "drbg: the batched stream differs from the "
                           "one-hash-per-block stream\n");
      return false;
    }
    secs.push_back(batched);
    ratio.push_back(batched / scalar);
  }
  result.drbg_mbps = mbps_spread(static_cast<double>(kBytes) / 1e6, secs);
  result.drbg_batched_over_scalar = spread_of(ratio);
  return true;
}

void run_bch_phase(const Options& opt, PerfResult& result) {
  constexpr int kM = 13;
  constexpr int kT = 12;
  const ecc::BchCode code(kM, kT);
  const std::size_t k = code.k();

  util::Xoshiro256 rng(opt.seed ^ 0xECCULL);
  constexpr std::size_t kCodewords = 24;
  std::vector<std::vector<std::uint8_t>> codewords;
  codewords.reserve(kCodewords);
  for (std::size_t i = 0; i < kCodewords; ++i) {
    std::vector<std::uint8_t> data(k);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    // Flip t/2 distinct-ish bits: decode exercises the full corrective path.
    for (int e = 0; e < kT / 2; ++e) {
      cw[rng.below(cw.size())] ^= 1;
    }
    codewords.push_back(std::move(cw));
  }

  std::vector<std::span<const std::uint8_t>> batch;
  batch.reserve(codewords.size());
  for (const auto& cw : codewords) batch.emplace_back(cw);

  // Time each pass over the codeword set separately and quote the fastest
  // pass: decode cost is deterministic, so min-of-N measures the code and
  // discards scheduler noise — this number feeds a CI regression gate where
  // a noisy sample reads as a false regression.  The pass goes through
  // decode_batch — the entry point the device read path uses.
  const int reps = opt.quick ? 6 : 20;
  std::size_t failures = 0;
  double best_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto decoded = code.decode_batch(batch);
    for (const auto& d : decoded) {
      if (!d.ok) ++failures;
    }
    const double round_s = seconds_since(t0);
    if (r == 0 || round_s < best_s) best_s = round_s;
  }
  const double round_bits = static_cast<double>(kCodewords * k);
  result.bch_decode_mbps = round_bits / 8.0 / 1e6 / best_s;
  if (failures != 0) {
    std::fprintf(stderr, "warning: %zu BCH decodes failed\n", failures);
  }
}

/// Decode uniformly random words at the VT-HI production code: each is far
/// past the design distance, and every one must be rejected.
void run_bch_reject_phase(const Options& opt, PerfResult& result) {
  constexpr std::size_t kBits = 4096;  // one of a 64-page block's codewords
  constexpr std::size_t kWords = 32;
  const ecc::BchCode code(
      vthi::kBchM,
      ecc::BchCode::pick_t_for_codeword(
          vthi::kBchM, kBits, vthi::VthiConfig{}.raw_ber_estimate));
  util::Xoshiro256 rng(opt.seed ^ 0x4E1ECULL);
  std::vector<std::vector<std::uint8_t>> words(
      kWords, std::vector<std::uint8_t>(kBits));
  for (auto& word : words) {
    for (auto& b : word) b = static_cast<std::uint8_t>(rng() & 1);
  }
  const std::vector<std::span<const std::uint8_t>> batch(words.begin(),
                                                         words.end());
  std::size_t decoded_ok = 0;
  std::vector<double> us;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (const auto& d : code.decode_batch(batch)) decoded_ok += d.ok;
    us.push_back(seconds_since(t0) * 1e6 / kWords);
  }
  result.bch_reject_us = spread_of(us);
  if (decoded_ok != 0) {
    std::fprintf(stderr, "warning: %zu random BCH words decoded\n",
                 decoded_ok);
  }
}

/// One fig06-style combo (interval 0, 128 hidden bits/page): the embed
/// session inner loop that dominates every VT-HI figure reproduction.
void run_fig06_phase(const Options& opt, PerfResult& result) {
  const auto key = bench_key();
  const auto t0 = Clock::now();
  nand::FlashChip chip(opt.geometry(2), nand::NoiseModel::vendor_a(),
                       opt.seed + 7);
  (void)chip.program_block_random(0, opt.seed + 7);
  vthi::VthiChannel channel(chip, key.selection_key(), vthi::ChannelConfig{});

  constexpr std::uint32_t kBitsPerPage = 128;
  constexpr int kSteps = 15;
  std::vector<vthi::EmbedSession> sessions;
  std::vector<std::vector<std::uint8_t>> intents;
  util::Xoshiro256 rng(opt.seed + 13);
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    std::vector<std::uint8_t> bits(kBitsPerPage);
    for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng() & 1);
    auto session = channel.begin(0, p, bits);
    if (!session.is_ok()) continue;
    sessions.push_back(std::move(session).take());
    intents.push_back(std::move(bits));
  }
  std::uint64_t errors = 0;
  for (int step = 0; step < kSteps; ++step) {
    for (auto& session : sessions) (void)channel.step(session);
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      auto readback = channel.extract(0, sessions[s].page, kBitsPerPage);
      if (!readback.is_ok()) continue;
      for (std::size_t i = 0; i < intents[s].size(); ++i) {
        errors += (intents[s][i] ^ readback.value()[i]) & 1;
      }
    }
  }
  result.fig06_wall_s = seconds_since(t0);
  // Fold the BER tally into the checksum so the fig06 phase participates in
  // the determinism gate too.
  result.state_checksum = fnv1a(result.state_checksum, errors);
}

/// StashDevice end-to-end read-tail phase: fill a small device, serve a
/// skewed read workload through the full submit/dispatch/FTL/NAND stack,
/// and report the exact wall-clock p99, in microseconds, of the read
/// requests' dev.request spans (each covers enqueue to resolution).
void run_device_phase(const Options& opt, PerfResult& result) {
  dev::DeviceConfig config;
  config.geometry = opt.geometry(8);
  config.seed = opt.seed;
  config.threads = opt.threads;
  config.read_cache_pages = 128;
  dev::StashDevice device(config, bench_key());

  const std::uint64_t pages = device.logical_pages();
  util::Xoshiro256 fill_rng(opt.seed ^ 0xf111ULL);
  std::vector<std::uint8_t> page(device.page_bits());
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    for (auto& b : page) b = static_cast<std::uint8_t>(fill_rng() & 1);
    (void)device.write(lpn, page);
  }
  (void)device.flush();

  // Trace only the read loop, so its spans are the whole sample.
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kWall);

  const std::uint64_t copies_before = device.stats_snapshot().bytes_copied;

  const std::uint64_t read_ops = opt.quick ? 768 : 2048;
  const std::uint64_t hot_pages = pages / 10 ? pages / 10 : 1;
  util::Xoshiro256 rng(opt.seed ^ 0xbadcabULL);
  std::vector<std::uint64_t> chunk;
  for (std::uint64_t op = 0; op < read_ops;) {
    chunk.clear();
    while (chunk.size() < 32 && op + chunk.size() < read_ops) {
      const bool hot = rng() % 100 < 90;
      chunk.push_back(hot ? rng() % hot_pages
                          : hot_pages + rng() % (pages - hot_pages));
    }
    (void)device.read_batch(chunk);
    op += chunk.size();
  }
  tracer.disable();
  // Every read is of an in-range, written page, so every root counts.
  std::vector<std::uint64_t> read_ns;
  for (const trace::SpanRecord& span : tracer.collect()) {
    if (span.parent_id == 0 && span.stage == trace::Stage::kDevRequest &&
        span.op == trace::Op::kRead) {
      read_ns.push_back(span.dur_ns);
    }
  }
  tracer.clear();
  std::sort(read_ns.begin(), read_ns.end());
  result.device_read_p99_us =
      static_cast<double>(util::quantile(read_ns, 0.99)) / 1e3;
  // Steady-state reads are served zero-copy out of arena slabs: any page
  // payload memcpy during the loop shows up here (expected: 0).
  result.dev_bytes_copied =
      device.stats_snapshot().bytes_copied - copies_before;
}

/// Snapshot persistence phase: save a worked device to disk kReps times, load each save into a fresh instance, and report the median MB/s
/// both ways (with the min-max spread) plus the on-disk generation size.  Informational (not a CI regression gate): the numbers
/// track the chunked-serialization cost of stash::store end to end.
void run_snapshot_phase(const Options& opt, PerfResult& result) {
  dev::DeviceConfig config;
  config.geometry = opt.geometry(8);
  config.seed = opt.seed;
  config.threads = opt.threads;
  dev::StashDevice device(config, bench_key());

  util::Xoshiro256 fill_rng(opt.seed ^ 0x5a75ULL);
  std::vector<std::uint8_t> page(device.page_bits());
  for (std::uint64_t lpn = 0; lpn < device.logical_pages(); ++lpn) {
    for (auto& b : page) b = static_cast<std::uint8_t>(fill_rng() & 1);
    (void)device.write(lpn, page);
  }
  (void)device.flush();

  const std::string dir = "./perf_baseline_snapshot.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  std::vector<double> save_s, load_s;
  for (int run = 0; run < kReps; ++run) {
    auto t0 = Clock::now();
    auto saved = device.save_snapshot(dir);
    save_s.push_back(seconds_since(t0));
    if (!saved.is_ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   saved.status().to_string().c_str());
      std::filesystem::remove_all(dir, ec);
      return;
    }
    dev::StashDevice restored(config, bench_key());
    t0 = Clock::now();
    const auto loaded = restored.load_snapshot(dir);
    load_s.push_back(seconds_since(t0));
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   loaded.to_string().c_str());
      std::filesystem::remove_all(dir, ec);
      return;
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".stash") {
      result.snapshot_bytes =
          std::max<std::uint64_t>(result.snapshot_bytes,
                                  std::filesystem::file_size(entry, ec));
    }
  }
  std::filesystem::remove_all(dir, ec);

  const double mb = static_cast<double>(result.snapshot_bytes) / 1e6;
  result.snapshot_save_mbps = mbps_spread(mb, save_s);
  result.snapshot_load_mbps = mbps_spread(mb, load_s);
}

/// Append one dated markdown row to the perf-trajectory table.  The date
/// comes from $STASH_DATE when set (deterministic tests), else localtime.
bool append_trajectory_row(const std::string& path, const PerfResult& r) {
  std::string date;
  if (const char* env = std::getenv("STASH_DATE"); env && *env) {
    date = env;
  } else {
    char buf[16] = {0};
    const std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    if (localtime_r(&now, &tm_buf) != nullptr) {
      std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm_buf);
    }
    date = buf;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return false;
  std::fprintf(f,
               "| %s | %.2f | %.2f | %.2f | %.2f | %u |\n",
               date.c_str(), r.ns_per_cell_program, r.ns_per_cell_read,
               r.bch_decode_mbps, r.device_read_p99_us, r.threads);
  std::fclose(f);
  return true;
}

std::string to_json(const PerfResult& r) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"perf_baseline\",\n"
      << "  \"schema\": 1,\n"
      << "  \"threads\": " << r.threads << ",\n"
      << "  \"cells_per_page\": " << r.cells_per_page << ",\n"
      << "  \"ns_per_cell_program\": " << r.ns_per_cell_program << ",\n"
      << "  \"ns_per_cell_erase\": " << r.ns_per_cell_erase.median << ",\n"
      << "  \"ns_per_cell_read\": " << r.ns_per_cell_read << ",\n"
      << "  \"bch_decode_mbps\": " << r.bch_decode_mbps << ",\n"
      << "  \"fig06_wall_s\": " << r.fig06_wall_s << ",\n"
      << "  \"device_read_p99_us\": " << r.device_read_p99_us << ",\n"
      << "  \"snapshot_save_mbps\": " << r.snapshot_save_mbps.median << ",\n"
      << "  \"snapshot_load_mbps\": " << r.snapshot_load_mbps.median << ",\n";
  for (const KernelTiming& k : r.kernels) {
    out << "  \"ns_per_cell_" << k.name << "\": " << k.ns_per_cell.median
        << ",\n"
        << "  \"simd_over_reference_" << k.name
        << "\": " << k.simd_over_reference.median << ",\n";
  }
  out << "  \"snapshot_bytes\": " << r.snapshot_bytes << ",\n"
      << "  \"dev_bytes_copied\": " << r.dev_bytes_copied << ",\n"
      << "  \"state_checksum\": \"" << std::hex << r.state_checksum << std::dec
      << "\"\n"
      << "}\n";
  return out.str();
}

/// Minimal scan for `"key": <number>` in a baseline JSON file.
bool json_number(const std::string& text, const std::string& key, double* out) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return false;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return false;
  return std::sscanf(text.c_str() + colon + 1, "%lf", out) == 1;
}

int check_against(const std::string& baseline_path, const std::string& text,
                  const PerfResult& r) {
  struct Gate {
    const char* key;
    double current;
    bool higher_is_better;
  };
  const Gate gates[] = {
      {"ns_per_cell_program", r.ns_per_cell_program, false},
      {"ns_per_cell_read", r.ns_per_cell_read, false},
      {"bch_decode_mbps", r.bch_decode_mbps, true},
      {"device_read_p99_us", r.device_read_p99_us, false},
  };
  constexpr double kTolerance = 0.25;
  int failures = 0;
  for (const Gate& gate : gates) {
    double base = 0.0;
    if (!json_number(text, gate.key, &base) || base <= 0.0) {
      // A missing gated key means the committed baseline is stale or was
      // hand-edited; treating it as a pass would silently disable the gate.
      std::fprintf(stderr,
                   "check: FAIL: baseline %s is missing gated key \"%s\" "
                   "(or it is <= 0); regenerate the baseline with "
                   "perf_baseline --json\n",
                   baseline_path.c_str(), gate.key);
      ++failures;
      continue;
    }
    const double ratio = gate.current / base;
    const bool regressed = gate.higher_is_better ? ratio < 1.0 - kTolerance
                                                 : ratio > 1.0 + kTolerance;
    std::printf("check %-22s baseline %10.3f current %10.3f  %s\n", gate.key,
                base, gate.current, regressed ? "REGRESSED" : "ok");
    if (regressed) ++failures;
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::string check_path;
  std::string out_path = "BENCH_perf.json";
  std::string trajectory_path;
  bool checksum_only = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check") && i + 1 < argc) {
      check_path = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--trajectory") && i + 1 < argc) {
      trajectory_path = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--state-checksum")) {
      checksum_only = true;
    }
  }

  // Read the baseline before any phase runs or any file is written: --out
  // may name the same file.
  std::string baseline;
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "check: cannot open baseline %s\n",
                   check_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    baseline = buffer.str();
  }

  PerfResult result;
  result.threads = opt.threads;
  const std::uint32_t blocks = opt.quick ? 2 : 4;
  const std::uint32_t read_passes = opt.quick ? 2 : 3;

  // Only these three phases feed the checksum.
  run_nand_phase(opt, blocks, read_passes, result);
  run_bch_phase(opt, result);
  run_fig06_phase(opt, result);
  if (checksum_only) {
    std::printf("state_checksum %016" PRIx64 "\n", result.state_checksum);
    return 0;
  }
  run_erase_phase(opt, blocks, result);
  run_kernel_phase(opt, result);
  if (!run_drbg_phase(opt, result)) return 1;
  run_bch_reject_phase(opt, result);
  run_device_phase(opt, result);
  run_snapshot_phase(opt, result);

  print_header("Perf baseline: voltage-domain hot paths",
               "ns/cell program+erase+read, kernel SIMD/reference, DRBG "
               "MB/s, BCH decode MB/s and reject us, fig06 wall time.");
  print_geometry(opt);
  const auto print_spread = [](const char* name, const Spread& s) {
    std::printf("%-24s %12.2f  (min %.2f, max %.2f)\n", name, s.median, s.min,
                s.max);
  };
  std::printf("%-24s %12.2f\n", "ns/cell program", result.ns_per_cell_program);
  print_spread("ns/cell erase", result.ns_per_cell_erase);
  std::printf("%-24s %12.2f\n", "ns/cell read", result.ns_per_cell_read);
  for (const KernelTiming& k : result.kernels) {
    const std::string name = std::string("ns/cell ") + k.name;
    print_spread(name.c_str(), k.ns_per_cell);
    std::printf("%-24s %12.3f  (min %.3f, max %.3f)\n", "  SIMD/reference",
                k.simd_over_reference.median, k.simd_over_reference.min,
                k.simd_over_reference.max);
  }
  print_spread("DRBG MB/s", result.drbg_mbps);
  std::printf("%-24s %12.3f  (min %.3f, max %.3f)\n", "  batched/scalar",
              result.drbg_batched_over_scalar.median,
              result.drbg_batched_over_scalar.min,
              result.drbg_batched_over_scalar.max);
  std::printf("%-24s %12.2f\n", "BCH decode MB/s", result.bch_decode_mbps);
  print_spread("BCH reject us/codeword", result.bch_reject_us);
  std::printf("%-24s %12.3f\n", "fig06 wall s", result.fig06_wall_s);
  std::printf("%-24s %12.2f\n", "device read p99 us",
              result.device_read_p99_us);
  print_spread("snapshot save MB/s", result.snapshot_save_mbps);
  print_spread("snapshot load MB/s", result.snapshot_load_mbps);
  std::printf("%-24s %12" PRIu64 "\n", "snapshot bytes",
              result.snapshot_bytes);
  std::printf("%-24s %016" PRIx64 "\n", "state checksum",
              result.state_checksum);

  // A run never overwrites the baseline it is checked against.
  std::error_code ec;
  if (!check_path.empty() &&
      std::filesystem::equivalent(out_path, check_path, ec)) {
    std::printf("\nnot writing %s: it is the --check baseline\n",
                out_path.c_str());
  } else {
    std::ofstream(out_path) << to_json(result);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!trajectory_path.empty()) {
    if (append_trajectory_row(trajectory_path, result)) {
      std::printf("appended trajectory row to %s\n", trajectory_path.c_str());
    } else {
      std::fprintf(stderr, "could not append trajectory row to %s\n",
                   trajectory_path.c_str());
    }
  }

  if (!check_path.empty()) return check_against(check_path, baseline, result);
  return 0;
}
