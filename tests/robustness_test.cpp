// Robustness battery: failure injection, endurance workloads, burst-error
// behaviour, and statistical properties that the per-module suites do not
// cover.  Everything here exercises a path a long-lived deployment would
// hit: worn devices, hostile inputs, partial hardware failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "stash/ecc/bch.hpp"
#include "stash/fault/plan.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/stego/volume.hpp"
#include "stash/svm/snapshot.hpp"
#include "stash/vthi/codec.hpp"

namespace stash {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

/// One logical page through read_into, as an owning vector.
util::Result<std::vector<std::uint8_t>> read_page(ftl::PageMappedFtl& ftl,
                                                  std::uint64_t lpn) {
  std::vector<std::uint8_t> bits(ftl.page_bits());
  auto cells = ftl.read_into(lpn, bits);
  if (!cells.is_ok()) return cells.status();
  bits.resize(cells.value());
  return bits;
}

HidingKey rb_key(std::uint8_t fill = 0xa7) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

std::vector<std::uint8_t> rand_bits(std::uint32_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

// ---------------- ECC: burst errors and interleaving ----------------

TEST(EccRobustness, ContiguousBurstWithinTIsCorrected) {
  // BCH corrects any error pattern up to t, including a contiguous burst —
  // the shape a desynced page produces.
  ecc::BchCode code(10, 12);
  auto data = rand_bits(500, 1);
  auto cw = code.encode(data);
  for (std::size_t i = 100; i < 112; ++i) cw[i] ^= 1;
  const auto decoded = code.decode(cw);
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.corrected, 12);
  EXPECT_EQ(decoded.data_bits, data);
}

TEST(EccRobustness, ParityOnlyCorruptionStillRecoversData) {
  ecc::BchCode code(10, 4);
  auto data = rand_bits(300, 2);
  auto cw = code.encode(data);
  // Flip bits only inside the parity region.
  for (std::size_t i = cw.size() - 4; i < cw.size(); ++i) cw[i] ^= 1;
  const auto decoded = code.decode(cw);
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.data_bits, data);
}

TEST(EccRobustness, AllZeroAndAllOneCodewordsRoundTrip) {
  ecc::BchCode code(8, 3);
  for (std::uint8_t fill : {0, 1}) {
    std::vector<std::uint8_t> data(120, fill);
    auto cw = code.encode(data);
    cw[5] ^= 1;
    cw[60] ^= 1;
    const auto decoded = code.decode(cw);
    ASSERT_TRUE(decoded.ok) << "fill " << int(fill);
    EXPECT_EQ(decoded.data_bits, data);
  }
}

TEST(EccRobustness, CodecInterleavingSpreadsPageBursts) {
  // Corrupt one whole hidden page's worth of cells after hiding: the
  // round-robin interleaving spreads the burst over all codewords, and the
  // payload still reveals.
  Geometry geom;
  geom.blocks = 2;
  geom.pages_per_block = 16;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 601);
  (void)chip.program_block_random(0, 601);
  vthi::VthiConfig config = vthi::VthiConfig::production();
  config.raw_ber_estimate = 0.03;  // headroom for the injected burst
  vthi::VthiCodec codec(chip, rb_key(), config);
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2, 0x66);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());

  // Failure injection: partial-program a slice of the selected cells of
  // page 2 so ~20% of its hidden bits flip to '0'.  Four rounds lift the
  // victims past Vth=34 while keeping them inside the erased band (more
  // would cross the selection guard — a different, catastrophic failure).
  auto cells = codec.channel().select_cells(0, 2, 256).value();
  std::vector<std::uint32_t> victims(cells.begin(), cells.begin() + 50);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(chip.partial_program(0, 2, victims).is_ok());
  }
  const auto revealed = codec.reveal(0);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

// ---------------- FTL: endurance and hostile patterns ----------------

TEST(FtlRobustness, SustainedRandomWorkloadToThousandsOfWrites) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 602);
  ftl::PageMappedFtl ftl(chip);
  util::Xoshiro256 rng(602);
  std::map<std::uint64_t, std::uint64_t> reference;
  const std::uint64_t lpns = ftl.logical_pages() * 3 / 4;
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const std::uint64_t tag = rng();
    util::Xoshiro256 data_rng(tag);
    std::vector<std::uint8_t> page(ftl.page_bits());
    for (auto& b : page) b = static_cast<std::uint8_t>(data_rng() & 1);
    ASSERT_TRUE(ftl.write(lpn, page).is_ok()) << "op " << op;
    reference[lpn] = tag;
  }
  // Spot-check a sample of the final state.
  int checked = 0;
  for (const auto& [lpn, tag] : reference) {
    if (++checked % 7 != 0) continue;
    const auto read = read_page(ftl, lpn);
    ASSERT_TRUE(read.is_ok());
    util::Xoshiro256 data_rng(tag);
    std::size_t diffs = 0;
    for (std::size_t c = 0; c < read.value().size(); ++c) {
      diffs += read.value()[c] != static_cast<std::uint8_t>(data_rng() & 1);
    }
    EXPECT_LE(diffs, 4u) << "lpn " << lpn;
  }
  EXPECT_GT(ftl.stats_snapshot().gc_runs, 10u);
}

TEST(FtlRobustness, WearLevelingBoundsPecSpread) {
  // Hot/cold split workload: without static wear leveling the cold block
  // would pin its PEC at ~0 while hot blocks churn.
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 603);
  ftl::PageMappedFtl ftl(chip);
  // Cold data once.
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, rand_bits(ftl.page_bits(), lpn)).is_ok());
  }
  // Hot churn, long enough for the PEC spread to reach the threshold.
  util::Xoshiro256 rng(603);
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t lpn = 8 + rng.below(4);
    ASSERT_TRUE(ftl.write(lpn, rand_bits(ftl.page_bits(), 1000 + op)).is_ok());
  }
  EXPECT_GT(ftl.stats_snapshot().wear_swaps, 0u);
  std::uint32_t min_pec = ~0u, max_pec = 0;
  for (std::uint32_t b = 0; b < chip.geometry().blocks; ++b) {
    min_pec = std::min(min_pec, chip.pec(b));
    max_pec = std::max(max_pec, chip.pec(b));
  }
  // The spread stays within a few multiples of the threshold.
  EXPECT_LT(max_pec - min_pec, 4 * ftl::kWearDeltaThreshold);
  // Cold data survived the shuffling.
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    EXPECT_TRUE(read_page(ftl, lpn).is_ok()) << "lpn " << lpn;
  }
}

TEST(FtlRobustness, FillToCapacityThenNoSpace) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 604);
  ftl::PageMappedFtl ftl(chip);
  std::uint64_t written = 0;
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    const auto status = ftl.write(lpn, rand_bits(ftl.page_bits(), lpn));
    if (!status.is_ok()) break;
    ++written;
  }
  // Nearly all of the advertised logical space must be writable.
  EXPECT_GE(written, ftl.logical_pages() * 9 / 10);
  // Updates still work at full utilization (GC reclaims stale copies).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ftl.write(static_cast<std::uint64_t>(i),
                          rand_bits(ftl.page_bits(), 9000 + i))
                    .is_ok())
        << "update " << i;
  }
}

// ---------------- Stego: hostile and edge conditions ----------------

TEST(StegoRobustness, EmptyHiddenPayloadRoundTrips) {
  Geometry geom;
  geom.blocks = 8;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 605);
  stego::StegoVolume volume(chip, rb_key());
  for (std::uint64_t lpn = 0; lpn < 16; ++lpn) {
    ASSERT_TRUE(
        volume.write_public(lpn, rand_bits(volume.page_bits(), lpn)).is_ok());
  }
  ASSERT_TRUE(volume.store_hidden({}).is_ok());
  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(StegoRobustness, RestoreAfterPartialBlockLoss) {
  // One hidden block is erased behind the volume's back (bad block, other
  // software).  load_hidden reports the missing chunk rather than silently
  // returning truncated data.
  Geometry geom;
  geom.blocks = 12;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 606);
  std::vector<std::uint8_t> secret;
  {
    stego::StegoVolume volume(chip, rb_key());
    for (std::uint64_t lpn = 0; lpn < 40; ++lpn) {
      ASSERT_TRUE(
          volume.write_public(lpn, rand_bits(volume.page_bits(), lpn)).is_ok());
    }
    secret.assign(volume.hidden_chunk_capacity() + 10, 0x5d);
    ASSERT_TRUE(volume.store_hidden(secret).is_ok());
    ASSERT_GE(volume.hidden_blocks().size(), 2u);
    ASSERT_TRUE(chip.erase_block(*volume.hidden_blocks().begin()).is_ok());
  }
  stego::StegoVolume reader(chip, rb_key());
  const auto loaded = reader.load_hidden();
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupted);
}

TEST(StegoRobustness, PublicVolumeUnaffectedByHiddenOperations) {
  Geometry geom;
  geom.blocks = 12;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 607);
  stego::StegoVolume volume(chip, rb_key());
  std::vector<std::uint64_t> tags;
  for (std::uint64_t lpn = 0; lpn < 30; ++lpn) {
    tags.push_back(700 + lpn);
    ASSERT_TRUE(
        volume.write_public(lpn, rand_bits(volume.page_bits(), tags.back()))
            .is_ok());
  }
  const std::vector<std::uint8_t> secret(48, 0x21);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  (void)volume.load_hidden();
  for (std::uint64_t lpn = 0; lpn < 30; ++lpn) {
    const auto read = volume.read_public(lpn);
    ASSERT_TRUE(read.is_ok());
    const auto expect = rand_bits(volume.page_bits(), tags[lpn]);
    std::size_t diffs = 0;
    for (std::size_t c = 0; c < expect.size(); ++c) {
      diffs += read.value()[c] != expect[c];
    }
    EXPECT_LE(diffs, 4u) << "lpn " << lpn;
  }
}

// ---------------- Snapshot adversary: sensitivity bounds ----------------

TEST(SnapshotRobustness, ThresholdsControlSensitivity) {
  Geometry geom;
  geom.blocks = 4;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 608);
  std::vector<std::uint32_t> blocks = {0, 1};
  for (std::uint32_t b : blocks) (void)chip.program_block_random(b, 608 + b);
  const auto before = svm::VoltageSnapshot::capture(chip, blocks);
  vthi::VthiCodec codec(chip, rb_key());
  std::vector<std::uint8_t> payload(16, 0x4e);
  ASSERT_TRUE(codec.hide(1, payload).is_ok());
  const auto after = svm::VoltageSnapshot::capture(chip, blocks);

  // A sensitive adversary catches even this small payload...
  svm::SnapshotAdversary sharp(4.0, 1e-5);
  EXPECT_FALSE(sharp.suspicious_blocks(before, after).empty());
  // ...an adversary requiring large per-block change fractions misses it.
  svm::SnapshotAdversary dull(4.0, 0.5);
  EXPECT_TRUE(dull.suspicious_blocks(before, after).empty());
}

TEST(SnapshotRobustness, MismatchedSnapshotsAreIgnoredNotCrashed) {
  Geometry geom = Geometry::tiny();
  FlashChip chip(geom, NoiseModel::vendor_a(), 609);
  (void)chip.program_block_random(0, 609);
  const auto a = svm::VoltageSnapshot::capture(chip, {0});
  const auto b = svm::VoltageSnapshot::capture(chip, {1});
  svm::SnapshotAdversary adversary;
  EXPECT_TRUE(adversary.diff(a, b).empty());
}

// ---------------- Fault injection: end-to-end recovery ----------------

TEST(FaultRecovery, RevealNeverLiesAfterPowerCutAtEveryOpIndex) {
  // The acceptance property of the power-loss-safe hide path: cut power
  // after EVERY prefix of the multi-step embed sequence, then reveal.  The
  // result must be either the exact payload or a clean authentication /
  // corruption failure — never wrong bytes with an OK status.  And
  // re-running hide() from the start must recover fully: every derivation
  // is keyed and deterministic, so the restart only tops up cells the cut
  // left below the threshold.
  Geometry geom;
  geom.blocks = 2;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  std::vector<std::uint8_t> payload(24);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(0x31 + i);
  }

  for (std::uint64_t k = 0;; ++k) {
    FlashChip chip(geom, NoiseModel::vendor_a(), 620);
    (void)chip.program_block_random(0, 620);
    fault::FaultPlan plan(1000 + k);
    plan.power_cut_at(k, 0.4);
    chip.set_fault_injector(&plan);
    vthi::VthiCodec codec(chip, rb_key());
    const auto hidden = codec.hide(0, payload);
    const bool cut_fired = plan.stats().power_cuts > 0;
    plan.restore_power();

    if (!cut_fired) {
      // k ran past the whole embed sequence: every prefix has been tested.
      // Final sanity with the (still pending) cut disarmed.
      EXPECT_TRUE(hidden.is_ok());
      chip.set_fault_injector(nullptr);
      const auto full = codec.reveal(0);
      ASSERT_TRUE(full.is_ok()) << full.status().to_string();
      EXPECT_EQ(full.value(), payload);
      break;
    }

    const auto revealed = codec.reveal(0);
    if (revealed.is_ok()) {
      // OK must mean the true payload, every single time.
      EXPECT_EQ(revealed.value(), payload) << "cut at op " << k;
    } else {
      const auto code = revealed.status().code();
      EXPECT_TRUE(code == ErrorCode::kAuthFailure ||
                  code == ErrorCode::kCorrupted ||
                  code == ErrorCode::kUncorrectable ||
                  code == ErrorCode::kNoSpace)
          << "cut at op " << k << ": " << revealed.status().to_string();
      // Recovery: restart the hide, then reveal.
      const auto restarted = codec.hide(0, payload);
      ASSERT_TRUE(restarted.is_ok())
          << "cut at op " << k << ": " << restarted.status().to_string();
      const auto after = codec.reveal(0);
      ASSERT_TRUE(after.is_ok())
          << "cut at op " << k << ": " << after.status().to_string();
      EXPECT_EQ(after.value(), payload) << "cut at op " << k;
    }

    ASSERT_LT(k, 10000u) << "embed sequence longer than expected";
  }
}

TEST(FaultRecovery, FtlSurvivesOnePercentProgramFailures) {
  // The ISSUE acceptance workload: 10k host writes with 1% of programs
  // failing.  Every write must succeed (rewritten elsewhere), no logical
  // page may be lost, and at least one block must be retired as grown-bad.
  // STASH_FAULT_STRESS=1 doubles the workload and raises the retirement
  // threshold (the CI fault-stress matrix job).
  const char* stress_env = std::getenv("STASH_FAULT_STRESS");
  const bool stress = stress_env != nullptr && *stress_env != '\0';
  Geometry geom;
  geom.blocks = 128;
  geom.pages_per_block = 16;
  geom.cells_per_page = 512;
  FlashChip chip(geom, NoiseModel::vendor_a(), 621);
  fault::FaultPlan plan(621);
  plan.fail_programs(0.01);
  chip.set_fault_injector(&plan);
  ftl::FtlConfig config;
  config.bad_block_program_fail_threshold = stress ? 3u : 2u;
  ftl::PageMappedFtl ftl(chip, config);

  const int writes = stress ? 20000 : 10000;
  // A quarter of the logical space: at 1% injection the drive retires tens
  // of blocks over the run (every program fail — host or GC — charges its
  // block), and the valid working set must stay safely inside what the
  // surviving blocks can hold.
  const std::uint64_t lpns = ftl.logical_pages() / 4;
  util::Xoshiro256 rng(621);
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int op = 0; op < writes; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const std::uint64_t tag = rng();
    util::Xoshiro256 data_rng(tag);
    std::vector<std::uint8_t> page(ftl.page_bits());
    for (auto& b : page) b = static_cast<std::uint8_t>(data_rng() & 1);
    const auto written = ftl.write(lpn, page);
    ASSERT_TRUE(written.is_ok())
        << "write " << op << ": " << written.to_string() << " ("
        << ftl.free_blocks() << " free blocks)";
    reference[lpn] = tag;
  }

  // Zero lost logical pages: everything ever written reads back.
  for (const auto& [lpn, tag] : reference) {
    const auto read = read_page(ftl, lpn);
    ASSERT_TRUE(read.is_ok()) << "lpn " << lpn;
    util::Xoshiro256 data_rng(tag);
    std::size_t diffs = 0;
    for (std::size_t c = 0; c < read.value().size(); ++c) {
      diffs += read.value()[c] != static_cast<std::uint8_t>(data_rng() & 1);
    }
    EXPECT_LE(diffs, 4u) << "lpn " << lpn;
  }

  // Faults really were injected, and the FTL really retired hardware.
  EXPECT_GT(plan.stats().program_fails, 0u);
  std::uint32_t retired = 0;
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    retired += ftl.is_retired(b) ? 1u : 0u;
  }
  EXPECT_GE(retired, 1u);
  EXPECT_GT(ftl.free_blocks(), 0u);
  EXPECT_GT(ftl.stats_snapshot().program_fail_rewrites, 0u);
  EXPECT_EQ(ftl.stats_snapshot().grown_bad_blocks, retired);
}

TEST(FaultRecovery, EraseFailureRetiresVictimWithoutDataLoss) {
  // A block whose erase fails during garbage collection is retired in
  // place of propagating the error; its valid pages are drained first.
  Geometry geom = Geometry::tiny();
  geom.blocks = 16;
  FlashChip chip(geom, NoiseModel::vendor_a(), 622);
  fault::FaultPlan plan(622);
  plan.fail_when([](nand::FaultOp op, std::uint32_t block, std::uint32_t) {
    return op == nand::FaultOp::kErase && block == 3;
  });
  chip.set_fault_injector(&plan);
  ftl::PageMappedFtl ftl(chip);

  util::Xoshiro256 rng(622);
  std::map<std::uint64_t, std::uint64_t> reference;
  const std::uint64_t lpns = 25;
  for (int op = 0; op < 4000 && !ftl.is_retired(3); ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const std::uint64_t tag = rng();
    util::Xoshiro256 data_rng(tag);
    std::vector<std::uint8_t> page(ftl.page_bits());
    for (auto& b : page) b = static_cast<std::uint8_t>(data_rng() & 1);
    ASSERT_TRUE(ftl.write(lpn, page).is_ok()) << "write " << op;
    reference[lpn] = tag;
  }
  EXPECT_TRUE(ftl.is_retired(3));
  EXPECT_GE(plan.stats().predicate_fails, 1u);

  for (const auto& [lpn, tag] : reference) {
    const auto read = read_page(ftl, lpn);
    ASSERT_TRUE(read.is_ok()) << "lpn " << lpn;
    util::Xoshiro256 data_rng(tag);
    std::size_t diffs = 0;
    for (std::size_t c = 0; c < read.value().size(); ++c) {
      diffs += read.value()[c] != static_cast<std::uint8_t>(data_rng() & 1);
    }
    EXPECT_LE(diffs, 4u) << "lpn " << lpn;
  }
}

TEST(FaultRecovery, ReadRetryRecoversGlitchedReveal) {
  // Transient probe glitches make the nominal reveal fail; the read-retry
  // ladder re-probes at shifted references and recovers the payload.
  Geometry geom;
  geom.blocks = 2;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  FlashChip chip(geom, NoiseModel::vendor_a(), 624);
  (void)chip.program_block_random(0, 624);
  vthi::VthiCodec codec(chip, rb_key());
  const std::vector<std::uint8_t> payload(32, 0x9b);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());

  // Every read glitches, hard (5% of cells jogged): single-shot reveals
  // are hopeless, but each retry rung re-probes, and with the per-op
  // deterministic draws some rung eventually sees a clean-enough page set.
  fault::FaultPlan plan(624);
  plan.glitch_reads(0.7, 0.02);
  chip.set_fault_injector(&plan);

  int recovered = 0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const auto revealed = codec.reveal(0);
    if (revealed.is_ok()) {
      EXPECT_EQ(revealed.value(), payload);
      ++recovered;
    }
  }
  EXPECT_GT(recovered, 0);
  EXPECT_GT(plan.stats().read_glitches, 0u);

  // With the injector detached the block is untouched and reveals cleanly:
  // the glitches were transient, not grown damage.
  chip.set_fault_injector(nullptr);
  const auto clean = codec.reveal(0);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  EXPECT_EQ(clean.value(), payload);
}

// ---------------- DRBG statistical sanity ----------------

TEST(DrbgRobustness, SelectionStreamHasNoObviousBias) {
  // The cell-selection DRBG must cover the page uniformly: chi-square over
  // 32 buckets of its below() outputs stays within generous bounds.
  const std::vector<std::uint8_t> seed(32, 0x5f);
  crypto::Sha256Drbg drbg(seed, "bias-check");
  constexpr int kBuckets = 32;
  constexpr int kDraws = 64000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[drbg.below(kBuckets)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 31 dof: p=0.001 critical value is ~61.1.
  EXPECT_LT(chi2, 61.1);
}

TEST(DrbgRobustness, PersonalizationActsAsDomainSeparator) {
  const std::vector<std::uint8_t> seed(32, 0x60);
  crypto::Sha256Drbg a(seed, "vt-hi/b0/p0");
  crypto::Sha256Drbg b(seed, "vt-hi/b0/p1");
  crypto::Sha256Drbg c(seed, "vt-hi/b1/p0");
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next_u64();
    collisions += (va == b.next_u64());
    collisions += (va == c.next_u64());
  }
  EXPECT_EQ(collisions, 0);
}

}  // namespace
}  // namespace stash
