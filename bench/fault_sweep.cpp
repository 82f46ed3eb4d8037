// Fault sweep: end-to-end recovery rate vs fault-injection rate, for the
// two recovery stacks this repo ships:
//
//   * FTL leg — random-write workload under program-failure injection.
//     Reports rewrites, grown-bad retirements, refused writes, and lost
//     logical pages (the paper's hostile-substrate premise: flash fails,
//     the layers above must not lose data).
//   * VT-HI leg — reveal() under transient read-glitch injection.
//     Reports payload recoveries, read-retry saves, clean failures, and
//     wrong-byte reveals (which must be zero at every rate: the MAC makes
//     silent corruption a design failure, not a statistic).
//
// Prints one table per leg plus a final machine-readable JSON line.
//
// Parallelism: every point of both legs owns its chip, fault plan and
// recovery stack, so all points fan out together on a stash::par pool and
// print in rate order afterwards — tables and the JSON line are
// byte-identical for any --threads value.

#include <cinttypes>
#include <map>

#include "common.hpp"
#include "stash/fault/plan.hpp"
#include "stash/ftl/ftl.hpp"

namespace stash::bench {
namespace {

struct FtlPoint {
  double rate = 0.0;
  int writes_attempted = 0;
  int writes_ok = 0;
  std::uint64_t injected_fails = 0;
  std::uint64_t rewrites = 0;
  std::uint32_t retired_blocks = 0;
  std::uint64_t pages_checked = 0;
  std::uint64_t pages_lost = 0;

  [[nodiscard]] double recovery_rate() const {
    return pages_checked ? 1.0 - static_cast<double>(pages_lost) /
                                     static_cast<double>(pages_checked)
                         : 1.0;
  }
};

FtlPoint run_ftl_leg(double rate, int writes, std::uint64_t seed) {
  nand::Geometry geom;
  geom.blocks = 128;
  geom.pages_per_block = 16;
  geom.cells_per_page = 512;
  nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), seed);
  fault::FaultPlan plan(seed);
  plan.fail_programs(rate);
  chip.set_fault_injector(&plan);
  ftl::PageMappedFtl ftl(chip);

  FtlPoint point;
  point.rate = rate;
  util::Xoshiro256 rng(seed);
  const std::uint64_t lpns = ftl.logical_pages() / 4;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int op = 0; op < writes; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const std::uint64_t tag = rng();
    util::Xoshiro256 data_rng(tag);
    std::vector<std::uint8_t> page(ftl.page_bits());
    for (auto& b : page) b = static_cast<std::uint8_t>(data_rng() & 1);
    ++point.writes_attempted;
    if (ftl.write(lpn, page).is_ok()) {
      ++point.writes_ok;
      reference[lpn] = tag;
    }
  }

  // A page is lost when a previously acknowledged write cannot be read
  // back (beyond the simulator's few-bit public-read noise).
  for (const auto& [lpn, tag] : reference) {
    ++point.pages_checked;
    std::vector<std::uint8_t> read(ftl.page_bits());
    const auto cells = ftl.read_into(lpn, read);
    if (!cells.is_ok()) {
      ++point.pages_lost;
      continue;
    }
    util::Xoshiro256 data_rng(tag);
    std::size_t diffs = 0;
    for (std::size_t c = 0; c < cells.value(); ++c) {
      diffs += read[c] != static_cast<std::uint8_t>(data_rng() & 1);
    }
    if (diffs > 8) ++point.pages_lost;
  }

  point.injected_fails = plan.stats().program_fails;
  point.rewrites = ftl.stats_snapshot().program_fail_rewrites;
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    point.retired_blocks += ftl.is_retired(b) ? 1u : 0u;
  }
  return point;
}

struct VthiPoint {
  double rate = 0.0;
  int reveals = 0;
  int recovered = 0;
  int glitched_saves = 0;
  int clean_failures = 0;
  int wrong_bytes = 0;  // MUST stay zero
  std::uint64_t glitches = 0;
};

VthiPoint run_vthi_leg(double rate, int reveals, const Options& opt) {
  nand::Geometry geom;
  geom.blocks = 2;
  geom.pages_per_block = 8;
  geom.cells_per_page = opt.geometry().cells_per_page;
  nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), opt.seed ^ 0xF417);
  (void)chip.program_block_random(0, opt.seed);
  vthi::VthiCodec codec(chip, bench_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2, 0x5a);
  const auto hidden = codec.hide(0, payload);

  VthiPoint point;
  point.rate = rate;
  if (!hidden.is_ok()) return point;

  fault::FaultPlan plan(opt.seed + 17);
  plan.glitch_reads(rate, 0.02);
  chip.set_fault_injector(&plan);
  for (int r = 0; r < reveals; ++r) {
    ++point.reveals;
    const std::uint64_t glitches_before = plan.stats().read_glitches;
    const auto revealed = codec.reveal(0);
    if (revealed.is_ok()) {
      if (revealed.value() == payload) {
        ++point.recovered;
        // >=1 probe glitched yet the payload came back intact — the ECC
        // and/or the read-retry ladder absorbed the fault.
        if (plan.stats().read_glitches > glitches_before) {
          ++point.glitched_saves;
        }
      } else {
        ++point.wrong_bytes;
      }
    } else {
      ++point.clean_failures;
    }
  }
  point.glitches = plan.stats().read_glitches;
  return point;
}

}  // namespace
}  // namespace stash::bench

int main(int argc, char** argv) {
  using namespace stash::bench;
  const Options opt = Options::parse(argc, argv);
  print_header("Fault sweep: recovery rate vs injection rate",
               "FTL under program failures; VT-HI reveal under read glitches");
  print_geometry(opt);

  const std::vector<double> ftl_rates = {0.0, 0.002, 0.005, 0.01, 0.02, 0.05};
  const int writes = opt.quick ? 2000 : 6000;
  const std::vector<double> vthi_rates = {0.0, 0.1, 0.3, 0.5, 0.7};
  const int reveals = opt.quick ? 8 : 24;

  // Fan every point of both legs out together (each owns its whole stack),
  // collect into rate-ordered slots, print afterwards.
  stash::par::ThreadPool pool(opt.threads);
  std::vector<FtlPoint> ftl_points(ftl_rates.size());
  std::vector<VthiPoint> vthi_points(vthi_rates.size());
  pool.parallel_for(ftl_rates.size() + vthi_rates.size(), [&](std::size_t i) {
    if (i < ftl_rates.size()) {
      ftl_points[i] = run_ftl_leg(ftl_rates[i], writes, opt.seed + 1);
    } else {
      const std::size_t v = i - ftl_rates.size();
      vthi_points[v] = run_vthi_leg(vthi_rates[v], reveals, opt);
    }
  });

  std::printf("FTL leg: %d random writes, working set = logical/4\n", writes);
  std::printf("%-10s %-9s %-9s %-8s %-9s %-9s %-7s %s\n", "inj_rate",
              "writes_ok", "injected", "rewrites", "retired", "checked",
              "lost", "recovery_%");
  for (const FtlPoint& p : ftl_points) {
    std::printf("%-10.3f %-9d %-9" PRIu64 " %-8" PRIu64 " %-9u %-9" PRIu64
                " %-7" PRIu64 " %.3f\n",
                p.rate, p.writes_ok, p.injected_fails, p.rewrites,
                p.retired_blocks, p.pages_checked, p.pages_lost,
                p.recovery_rate() * 100.0);
  }

  std::printf("\nVT-HI leg: %d reveals per point, 2%% of probe cells jogged "
              "per glitched read\n", reveals);
  std::printf("%-10s %-8s %-10s %-14s %-9s %-9s %s\n", "inj_rate", "reveals",
              "recovered", "glitched_saves", "failures", "glitches",
              "wrong_bytes");
  for (const VthiPoint& p : vthi_points) {
    std::printf("%-10.2f %-8d %-10d %-14d %-9d %-9" PRIu64 " %d\n", p.rate,
                p.reveals, p.recovered, p.glitched_saves, p.clean_failures,
                p.glitches, p.wrong_bytes);
  }

  // Machine-readable summary (one line, parse with any JSON reader).
  std::printf("\nJSON: {\"fault_sweep\":{\"ftl\":[");
  for (std::size_t i = 0; i < ftl_points.size(); ++i) {
    const FtlPoint& p = ftl_points[i];
    std::printf("%s{\"rate\":%.4f,\"writes_ok\":%d,\"injected\":%" PRIu64
                ",\"rewrites\":%" PRIu64 ",\"retired\":%u,\"lost\":%" PRIu64
                ",\"recovery\":%.5f}",
                i ? "," : "", p.rate, p.writes_ok, p.injected_fails,
                p.rewrites, p.retired_blocks, p.pages_lost,
                p.recovery_rate());
  }
  std::printf("],\"vthi\":[");
  int wrong_total = 0;
  for (std::size_t i = 0; i < vthi_points.size(); ++i) {
    const VthiPoint& p = vthi_points[i];
    wrong_total += p.wrong_bytes;
    std::printf("%s{\"rate\":%.2f,\"reveals\":%d,\"recovered\":%d,"
                "\"glitched_saves\":%d,\"failures\":%d,\"wrong_bytes\":%d}",
                i ? "," : "", p.rate, p.reveals, p.recovered,
                p.glitched_saves, p.clean_failures, p.wrong_bytes);
  }
  std::printf("]}}\n");
  return wrong_total == 0 ? 0 : 1;
}
