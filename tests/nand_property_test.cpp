// Property tests for the NAND simulator's physics invariants, swept over
// wear levels, geometries, and noise models.  These pin the monotonicity
// and ordering properties every experiment implicitly relies on.

#include <gtest/gtest.h>

#include "stash/nand/chip.hpp"
#include "stash/util/stats.hpp"

namespace stash::nand {
namespace {

Geometry prop_geometry() {
  Geometry geom;
  geom.blocks = 4;
  geom.pages_per_block = 8;
  geom.cells_per_page = 4096;
  return geom;
}

// ---------------- Wear monotonicity, swept over PEC ----------------

class WearSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WearSweep, ErasedMeanNeverDecreasesWithWear) {
  const std::uint32_t pec = GetParam();
  FlashChip fresh(prop_geometry(), NoiseModel::vendor_a(), 401);
  FlashChip worn(prop_geometry(), NoiseModel::vendor_a(), 401);
  if (pec) {
    ASSERT_TRUE(worn.age_cycles(0, pec).is_ok());
  }
  util::RunningStats fresh_stats, worn_stats;
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    for (int v : fresh.probe_voltages(0, p)) fresh_stats.add(v);
    for (int v : worn.probe_voltages(0, p)) worn_stats.add(v);
  }
  EXPECT_GE(worn_stats.mean(), fresh_stats.mean() - 0.2)
      << "PEC " << pec;  // small sampling tolerance
}

TEST_P(WearSweep, PublicBerStaysUsable) {
  // Even at end-of-life wear, public data must remain readable with sparse
  // errors — the device is worn, not broken.
  const std::uint32_t pec = GetParam();
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 402);
  if (pec) {
    ASSERT_TRUE(chip.age_cycles(0, pec).is_ok());
  }
  const auto written = chip.program_block_random(0, 402);
  std::size_t errors = 0, total = 0;
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    const auto rb = chip.read_page(0, p);
    for (std::size_t c = 0; c < rb.size(); ++c) {
      errors += rb[c] != written[p][c];
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total), 1e-3)
      << "PEC " << pec;
}

TEST_P(WearSweep, RetentionLeakGrowsWithWear) {
  const std::uint32_t pec = GetParam();
  if (pec == 0) GTEST_SKIP() << "comparison needs wear";
  auto drop_at = [](std::uint32_t cycles) {
    FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 403);
    if (cycles) {
      EXPECT_TRUE(chip.age_cycles(0, cycles).is_ok());
    }
    const std::vector<std::uint8_t> zeros(prop_geometry().cells_per_page, 0);
    EXPECT_TRUE(chip.program_page(0, 0, zeros).is_ok());
    const auto before = chip.probe_voltages(0, 0);
    chip.bake_block(0, 24.0 * 120);
    const auto after = chip.probe_voltages(0, 0);
    double total = 0.0;
    for (std::size_t c = 0; c < before.size(); ++c) total += before[c] - after[c];
    return total / static_cast<double>(before.size());
  };
  EXPECT_GT(drop_at(pec), drop_at(0)) << "PEC " << pec;
}

INSTANTIATE_TEST_SUITE_P(PecLevels, WearSweep,
                         ::testing::Values(0u, 500u, 1000u, 2000u, 3000u));

// ---------------- Voltage monotonicity under every charge op ----------------

TEST(Physics, ProgramNeverLowersAnyCell) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 404);
  const auto before = chip.probe_voltages(0, 0);
  util::Xoshiro256 rng(404);
  std::vector<std::uint8_t> bits(prop_geometry().cells_per_page);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto after = chip.probe_voltages(0, 0);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_GE(after[c] + 1, before[c]) << "cell " << c;  // probe rounding
  }
}

TEST(Physics, BakeNeverRaisesAnyCell) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 405);
  ASSERT_TRUE(chip.age_cycles(0, 1500).is_ok());
  (void)chip.program_block_random(0, 405);
  const auto before = chip.probe_voltages(0, 3);
  chip.bake_block(0, 24.0 * 200);
  const auto after = chip.probe_voltages(0, 3);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_LE(after[c], before[c] + 1) << "cell " << c;
  }
}

TEST(Physics, BakeIsCumulativeNotResetting) {
  // Two one-month bakes leak at least as much as one, and log-time leak
  // means the second month leaks less than the first.
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 406);
  ASSERT_TRUE(chip.age_cycles(0, 2000).is_ok());
  const std::vector<std::uint8_t> zeros(prop_geometry().cells_per_page, 0);
  ASSERT_TRUE(chip.program_page(0, 0, zeros).is_ok());
  const auto v0 = chip.probe_voltages(0, 0);
  chip.bake_block(0, 24.0 * 30);
  const auto v1 = chip.probe_voltages(0, 0);
  chip.bake_block(0, 24.0 * 30);
  const auto v2 = chip.probe_voltages(0, 0);
  double first = 0.0, second = 0.0;
  for (std::size_t c = 0; c < v0.size(); ++c) {
    first += v0[c] - v1[c];
    second += v1[c] - v2[c];
  }
  EXPECT_GT(first, 0.0);
  EXPECT_GT(second, 0.0);
  EXPECT_LT(second, first);  // log1p(t) slope decays
}

TEST(Physics, PartialProgramStepScaleOrdersCharge) {
  FlashChip a(prop_geometry(), NoiseModel::vendor_a(), 407);
  FlashChip b(prop_geometry(), NoiseModel::vendor_a(), 407);
  std::vector<std::uint32_t> cells(512);
  for (std::uint32_t i = 0; i < cells.size(); ++i) cells[i] = i;
  const auto before_a = a.probe_voltages(0, 0);
  const auto before_b = b.probe_voltages(0, 0);
  ASSERT_TRUE(a.partial_program(0, 0, cells, 0.4).is_ok());
  ASSERT_TRUE(b.partial_program(0, 0, cells, 1.6).is_ok());
  double gain_a = 0.0, gain_b = 0.0;
  const auto after_a = a.probe_voltages(0, 0);
  const auto after_b = b.probe_voltages(0, 0);
  for (std::uint32_t c : cells) {
    gain_a += after_a[c] - before_a[c];
    gain_b += after_b[c] - before_b[c];
  }
  EXPECT_GT(gain_b, gain_a * 2.0);
}

TEST(Physics, PartialProgramRejectsNonPositiveScale) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 408);
  const std::vector<std::uint32_t> cells = {1};
  EXPECT_FALSE(chip.partial_program(0, 0, cells, 0.0).is_ok());
  EXPECT_FALSE(chip.partial_program(0, 0, cells, -1.0).is_ok());
}

// ---------------- Determinism / independence properties ----------------

TEST(Determinism, BlocksAreStatisticallyIndependentButStable) {
  // Same chip serial: identical traits; different blocks: different draws.
  FlashChip a(prop_geometry(), NoiseModel::vendor_a(), 409);
  FlashChip b(prop_geometry(), NoiseModel::vendor_a(), 409);
  // Trait-level equality across instances.
  for (std::uint32_t c = 0; c < 64; ++c) {
    EXPECT_DOUBLE_EQ(a.effective_speed(1, 2, c), b.effective_speed(1, 2, c));
  }
}

TEST(Determinism, SerialChangesEverything) {
  FlashChip a(prop_geometry(), NoiseModel::vendor_a(), 410);
  FlashChip b(prop_geometry(), NoiseModel::vendor_a(), 411);
  int equal = 0;
  for (std::uint32_t c = 0; c < 256; ++c) {
    equal += a.effective_speed(0, 0, c) == b.effective_speed(0, 0, c);
  }
  EXPECT_LT(equal, 3);
}

// ---------------- Cost-model invariants ----------------

TEST(Costs, TimeAndEnergyAreAdditiveAndResettable) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 412);
  (void)chip.read_page(0, 0);
  const double t1 = chip.ledger().time_us();
  (void)chip.read_page(0, 0);
  EXPECT_DOUBLE_EQ(chip.ledger().time_us(), 2 * t1);
  chip.reset_ledger();
  EXPECT_DOUBLE_EQ(chip.ledger().time_us(), 0.0);
  EXPECT_EQ(chip.ledger().reads, 0u);
}

TEST(Costs, PaperLatencyFiguresAreDefaults) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 413);
  EXPECT_DOUBLE_EQ(chip.costs().read_us, 90.0);
  EXPECT_DOUBLE_EQ(chip.costs().program_us, 1200.0);
  EXPECT_DOUBLE_EQ(chip.costs().erase_us, 5000.0);
  EXPECT_DOUBLE_EQ(chip.costs().partial_program_us, 600.0);
  EXPECT_DOUBLE_EQ(chip.costs().read_uj, 50.0);
  EXPECT_DOUBLE_EQ(chip.costs().program_uj, 68.0);
  EXPECT_DOUBLE_EQ(chip.costs().erase_uj, 190.0);
}

TEST(Costs, FailedOpsDoNotChargeProgramCosts) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 414);
  chip.reset_ledger();
  std::vector<std::uint8_t> wrong_size(3, 1);
  (void)chip.program_page(0, 0, wrong_size);
  EXPECT_EQ(chip.ledger().programs, 0u);
  EXPECT_DOUBLE_EQ(chip.ledger().time_us(), 0.0);
}

// ---------------- Cross-model properties ----------------

class ModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModelSweep, BothVendorsSatisfyBandSeparation) {
  const NoiseModel model =
      GetParam() == 0 ? NoiseModel::vendor_a() : NoiseModel::vendor_b();
  FlashChip chip(prop_geometry(), model, 415);
  const auto written = chip.program_block_random(0, 415);
  ASSERT_FALSE(written.empty());
  // Erased cells stay far below the public reference; programmed far above.
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    const auto volts = chip.probe_voltages(0, p);
    std::size_t violations = 0;
    for (std::size_t c = 0; c < volts.size(); ++c) {
      if (written[p][c] & 1) {
        violations += volts[c] > 100;
      } else {
        violations += volts[c] < 100;
      }
    }
    EXPECT_LE(violations, 2u) << "page " << p;
  }
}

TEST_P(ModelSweep, ProbeValuesStayInTesterRange) {
  const NoiseModel model =
      GetParam() == 0 ? NoiseModel::vendor_a() : NoiseModel::vendor_b();
  FlashChip chip(prop_geometry(), model, 416);
  (void)chip.program_block_random(0, 416);
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    for (int v : chip.probe_voltages(0, p)) {
      ASSERT_GE(v, 0);
      ASSERT_LE(v, 255);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Vendors, ModelSweep, ::testing::Values(0, 1));

}  // namespace
}  // namespace stash::nand
