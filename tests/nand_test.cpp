// NAND simulator semantics: geometry, erase/program/read rules, voltage
// monotonicity, vendor ops, wear, retention, disturb, traits, ledger.

#include <gtest/gtest.h>

#include <algorithm>

#include "stash/nand/chip.hpp"
#include "stash/util/stats.hpp"

namespace stash::nand {
namespace {

using util::ErrorCode;

std::vector<std::uint8_t> random_bits(std::uint32_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

FlashChip make_chip(std::uint64_t seed = 1) {
  return FlashChip(Geometry::tiny(), NoiseModel::vendor_a(), seed);
}

TEST(Geometry, PresetsAreSane) {
  const auto a = Geometry::vendor_a();
  EXPECT_EQ(a.blocks, 2048u);
  EXPECT_EQ(a.cells_per_page, 144384u);  // 18048-byte pages
  const auto b = Geometry::vendor_b();
  EXPECT_EQ(b.blocks, 2096u);
  EXPECT_EQ(b.cells_per_page, 146048u);  // 18256-byte pages
  EXPECT_GT(Geometry::experiment(1).cells_per_page,
            Geometry::experiment(4).cells_per_page);
}

TEST(FlashChip, ProgramThenReadBackPublicData) {
  auto chip = make_chip();
  const auto bits = random_bits(chip.geometry().cells_per_page, 42);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto readback = chip.read_page(0, 0);
  ASSERT_EQ(readback.size(), bits.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) errors += bits[i] != readback[i];
  // Fresh chip: public BER must be tiny (a handful of weak cells at most).
  EXPECT_LE(errors, 2u);
}

TEST(FlashChip, RejectsInPlaceReprogram) {
  auto chip = make_chip();
  const auto bits = random_bits(chip.geometry().cells_per_page, 1);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto again = chip.program_page(0, 0, bits);
  EXPECT_EQ(again.code(), ErrorCode::kProgramFail);
}

TEST(FlashChip, EnforcesSequentialProgramOrder) {
  auto chip = make_chip();
  const auto bits = random_bits(chip.geometry().cells_per_page, 2);
  EXPECT_EQ(chip.program_page(0, 3, bits).code(), ErrorCode::kProgramFail);
  EXPECT_TRUE(chip.program_page(0, 0, bits).is_ok());
  EXPECT_TRUE(chip.program_page(0, 1, bits).is_ok());
}

TEST(FlashChip, OutOfOrderAllowedWhenDisabled) {
  Geometry geom = Geometry::tiny();
  geom.enforce_sequential_program = false;
  FlashChip chip(geom, NoiseModel::vendor_a(), 3);
  const auto bits = random_bits(geom.cells_per_page, 3);
  EXPECT_TRUE(chip.program_page(0, 5, bits).is_ok());
}

TEST(FlashChip, EraseResetsPagesAndIncrementsPec) {
  auto chip = make_chip();
  const auto bits = random_bits(chip.geometry().cells_per_page, 4);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  EXPECT_EQ(chip.page_state(0, 0), PageState::kProgrammed);
  EXPECT_EQ(chip.pec(0), 0u);
  ASSERT_TRUE(chip.erase_block(0).is_ok());
  EXPECT_EQ(chip.page_state(0, 0), PageState::kErased);
  EXPECT_EQ(chip.pec(0), 1u);
  // After erase every cell reads as '1'.
  const auto readback = chip.read_page(0, 0);
  EXPECT_TRUE(std::all_of(readback.begin(), readback.end(),
                          [](std::uint8_t b) { return b == 1; }));
}

TEST(FlashChip, OutOfBoundsAddressesRejected) {
  auto chip = make_chip();
  const auto& geom = chip.geometry();
  const auto bits = random_bits(geom.cells_per_page, 5);
  EXPECT_EQ(chip.program_page(geom.blocks, 0, bits).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(chip.erase_block(geom.blocks).code(), ErrorCode::kOutOfBounds);
  EXPECT_TRUE(chip.read_page(0, geom.pages_per_block).empty());
  EXPECT_TRUE(chip.probe_voltages(geom.blocks - 1, geom.pages_per_block).empty());
}

TEST(FlashChip, WrongBufferSizeRejected) {
  auto chip = make_chip();
  const std::vector<std::uint8_t> bits(10, 1);
  EXPECT_EQ(chip.program_page(0, 0, bits).code(), ErrorCode::kInvalidArgument);
}

TEST(FlashChip, PartialProgramOnlyIncreasesVoltage) {
  auto chip = make_chip();
  const auto before = chip.probe_voltages(0, 0);
  std::vector<std::uint32_t> cells = {10, 20, 30, 40};
  ASSERT_TRUE(chip.partial_program(0, 0, cells).is_ok());
  const auto after = chip.probe_voltages(0, 0);
  for (std::uint32_t c : cells) {
    EXPECT_GE(after[c], before[c]) << "cell " << c;
  }
  // Repeated PP keeps climbing.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(chip.partial_program(0, 0, cells).is_ok());
  }
  const auto final_v = chip.probe_voltages(0, 0);
  for (std::uint32_t c : cells) {
    EXPECT_GT(final_v[c], before[c] + 20) << "cell " << c;
  }
}

TEST(FlashChip, PartialProgramRejectsBadCell) {
  auto chip = make_chip();
  const std::vector<std::uint32_t> cells = {chip.geometry().cells_per_page};
  EXPECT_EQ(chip.partial_program(0, 0, cells).code(), ErrorCode::kOutOfBounds);
}

TEST(FlashChip, FineProgramHitsTargetWindow) {
  auto chip = make_chip();
  std::vector<std::uint32_t> cells(100);
  for (std::uint32_t i = 0; i < 100; ++i) cells[i] = i;
  ASSERT_TRUE(chip.fine_program(0, 0, cells, 60.0, 1.0).is_ok());
  const auto volts = chip.probe_voltages(0, 0);
  util::RunningStats stats;
  for (std::uint32_t c : cells) stats.add(volts[c]);
  EXPECT_NEAR(stats.mean(), 60.0, 1.0);
  EXPECT_LT(stats.stddev(), 2.5);
}

TEST(FlashChip, ReadPageAtShiftedReference) {
  auto chip = make_chip();
  // All cells are erased (~<70); a reference above the erased range reads
  // all ones, a reference at 0 reads all zeros.
  const auto high = chip.read_page(0, 0, 250.0);
  EXPECT_TRUE(std::all_of(high.begin(), high.end(),
                          [](std::uint8_t b) { return b == 1; }));
  const auto low = chip.read_page(0, 0, 0.0);
  EXPECT_TRUE(std::all_of(low.begin(), low.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(FlashChip, ProbeMatchesReadAtThreshold) {
  auto chip = make_chip();
  const auto bits = random_bits(chip.geometry().cells_per_page, 6);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto volts = chip.probe_voltages(0, 0);
  const auto read = chip.read_page(0, 0, 100.0);
  std::size_t disagreements = 0;
  for (std::size_t c = 0; c < read.size(); ++c) {
    const bool below = volts[c] < 100;
    // Rounding in the probe and read disturb between the two operations can
    // cause rare boundary disagreements, nothing more.
    disagreements += (below != (read[c] == 1));
  }
  EXPECT_LE(disagreements, 3u);
}

TEST(FlashChip, ReadPageAndReadPageIntoAgreeAtAnyReference) {
  // Twin chips (same seed, same history): the allocating read and the
  // caller-buffer read must return the same bits, apply the same read
  // disturb, and charge the same ledger — at the public reference and at
  // a shifted one.
  auto a = make_chip(11);
  auto b = make_chip(11);
  const auto bits = random_bits(a.geometry().cells_per_page, 12);
  ASSERT_TRUE(a.program_page(0, 0, bits).is_ok());
  ASSERT_TRUE(b.program_page(0, 0, bits).is_ok());

  std::vector<std::uint8_t> out(a.geometry().cells_per_page);
  EXPECT_EQ(b.read_page_into(0, 0, out), out.size());
  EXPECT_EQ(a.read_page(0, 0), out);
  EXPECT_EQ(b.read_page_into(0, 0, out, 100.0), out.size());
  EXPECT_EQ(a.read_page(0, 0, 100.0), out);

  const CostLedger la = a.ledger();
  const CostLedger lb = b.ledger();
  EXPECT_EQ(la.reads, 2u);
  EXPECT_EQ(la.reads, lb.reads);
  EXPECT_EQ(la.time_us, lb.time_us);
  EXPECT_EQ(la.energy_uj, lb.energy_uj);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(FlashChip, AgeCyclesShiftsDistributionsRight) {
  FlashChip fresh(Geometry::tiny(), NoiseModel::vendor_a(), 7);
  FlashChip worn(Geometry::tiny(), NoiseModel::vendor_a(), 7);
  ASSERT_TRUE(worn.age_cycles(0, 3000).is_ok());

  const auto bits = random_bits(fresh.geometry().cells_per_page, 7);
  for (std::uint32_t p = 0; p < fresh.geometry().pages_per_block; ++p) {
    ASSERT_TRUE(fresh.program_page(0, p, bits).is_ok());
    ASSERT_TRUE(worn.program_page(0, p, bits).is_ok());
  }
  // Compare programmed-state means (Fig. 3b).
  auto mean_programmed = [&](FlashChip& chip) {
    util::RunningStats stats;
    for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
      const auto volts = chip.probe_voltages(0, p);
      for (std::size_t c = 0; c < volts.size(); ++c) {
        if (!(bits[c] & 1)) stats.add(volts[c]);
      }
    }
    return stats.mean();
  };
  const double fresh_mean = mean_programmed(fresh);
  const double worn_mean = mean_programmed(worn);
  EXPECT_GT(worn_mean, fresh_mean + 2.0);
  EXPECT_EQ(worn.pec(0), 3000u);
}

TEST(FlashChip, BakeLeaksChargeDownward) {
  auto chip = make_chip(8);
  ASSERT_TRUE(chip.age_cycles(0, 2000).is_ok());
  const auto bits = std::vector<std::uint8_t>(chip.geometry().cells_per_page, 0);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto before = chip.probe_voltages(0, 0);
  chip.bake_block(0, 24.0 * 120);  // four months
  const auto after = chip.probe_voltages(0, 0);
  double total_drop = 0.0;
  for (std::size_t c = 0; c < before.size(); ++c) {
    total_drop += before[c] - after[c];
    EXPECT_LE(after[c], before[c] + 1);  // never gains charge from baking
  }
  EXPECT_GT(total_drop / static_cast<double>(before.size()), 0.2);
}

TEST(FlashChip, BakeOnFreshBlockIsGentle) {
  auto chip = make_chip(9);
  const auto bits = std::vector<std::uint8_t>(chip.geometry().cells_per_page, 0);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  const auto before = chip.probe_voltages(0, 0);
  chip.bake_block(0, 24.0 * 120);
  const auto after = chip.probe_voltages(0, 0);
  double total_drop = 0.0;
  for (std::size_t c = 0; c < before.size(); ++c) {
    total_drop += before[c] - after[c];
  }
  // Fresh cells barely leak (leak_wear_base), Fig. 11 PEC 0 lines.
  EXPECT_LT(total_drop / static_cast<double>(before.size()), 0.15);
}

TEST(FlashChip, ProgramDisturbChargesErasedNeighbors) {
  Geometry geom = Geometry::tiny();
  FlashChip chip(geom, NoiseModel::vendor_a(), 10);
  const auto before = chip.probe_voltages(0, 1);
  // Program page 0 with all zeros (heavy programming) disturbs page 1.
  const std::vector<std::uint8_t> zeros(geom.cells_per_page, 0);
  ASSERT_TRUE(chip.program_page(0, 0, zeros).is_ok());
  const auto after = chip.probe_voltages(0, 1);
  double mean_delta = 0.0;
  for (std::size_t c = 0; c < before.size(); ++c) {
    mean_delta += after[c] - before[c];
  }
  mean_delta /= static_cast<double>(before.size());
  EXPECT_GT(mean_delta, 0.3);
  EXPECT_LT(mean_delta, 3.0);
}

TEST(FlashChip, StressChangesEffectiveSpeed) {
  auto chip = make_chip(11);
  const double before = chip.effective_speed(0, 0, 5);
  const std::vector<std::uint32_t> cells = {5};
  ASSERT_TRUE(chip.stress_cells(0, 0, cells, 625).is_ok());
  const double after = chip.effective_speed(0, 0, 5);
  EXPECT_NEAR(after - before, 0.45 * 0.625, 1e-9);
  // Unstressed neighbour unchanged.
  EXPECT_DOUBLE_EQ(chip.effective_speed(0, 0, 6),
                   chip.effective_speed(0, 0, 6));
}

TEST(FlashChip, StressSurvivesErase) {
  auto chip = make_chip(12);
  const std::vector<std::uint32_t> cells = {7};
  ASSERT_TRUE(chip.stress_cells(0, 0, cells, 1000).is_ok());
  const double stressed = chip.effective_speed(0, 0, 7);
  ASSERT_TRUE(chip.erase_block(0).is_ok());
  // Wear noise changes with PEC, but the deliberate stress must persist:
  // compare against an unstressed twin at identical PEC.
  auto twin = make_chip(12);
  ASSERT_TRUE(twin.erase_block(0).is_ok());
  const double unstressed = twin.effective_speed(0, 0, 7);
  EXPECT_NEAR(chip.effective_speed(0, 0, 7) - unstressed, 0.45, 0.01);
  (void)stressed;
}

TEST(FlashChip, DeterministicTraitsAcrossInstances) {
  auto a = make_chip(123);
  auto b = make_chip(123);
  auto c = make_chip(124);
  EXPECT_DOUBLE_EQ(a.effective_speed(1, 2, 3), b.effective_speed(1, 2, 3));
  EXPECT_NE(a.effective_speed(1, 2, 3), c.effective_speed(1, 2, 3));
}

TEST(FlashChip, LedgerAccountsOperations) {
  auto chip = make_chip(13);
  chip.reset_ledger();
  const auto bits = random_bits(chip.geometry().cells_per_page, 13);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  (void)chip.read_page(0, 0);
  (void)chip.probe_voltages(0, 0);
  const std::vector<std::uint32_t> cells = {1, 2};
  ASSERT_TRUE(chip.partial_program(0, 0, cells).is_ok());
  ASSERT_TRUE(chip.erase_block(0).is_ok());

  const auto& ledger = chip.ledger();
  EXPECT_EQ(ledger.programs, 1u);
  EXPECT_EQ(ledger.reads, 2u);  // read_page + probe
  EXPECT_EQ(ledger.partial_programs, 1u);
  EXPECT_EQ(ledger.erases, 1u);
  const auto& costs = chip.costs();
  EXPECT_DOUBLE_EQ(ledger.time_us, costs.program_us + 2 * costs.read_us +
                                       costs.partial_program_us +
                                       costs.erase_us);
  EXPECT_DOUBLE_EQ(ledger.energy_uj, costs.program_uj + 2 * costs.read_uj +
                                         costs.partial_program_uj +
                                         costs.erase_uj);
}

TEST(FlashChip, DropBlockFreesAndReinitializes) {
  auto chip = make_chip(14);
  const auto bits = random_bits(chip.geometry().cells_per_page, 14);
  ASSERT_TRUE(chip.program_page(0, 0, bits).is_ok());
  chip.drop_block(0);
  EXPECT_EQ(chip.page_state(0, 0), PageState::kErased);
  EXPECT_EQ(chip.pec(0), 0u);
}

TEST(FlashChip, ProgramBlockRandomFillsEveryPage) {
  auto chip = make_chip(15);
  const auto written = chip.program_block_random(0, 999);
  ASSERT_EQ(written.size(), chip.geometry().pages_per_block);
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    EXPECT_EQ(chip.page_state(0, p), PageState::kProgrammed);
    // Roughly half ones.
    std::size_t ones = 0;
    for (auto b : written[p]) ones += b;
    EXPECT_NEAR(static_cast<double>(ones) / written[p].size(), 0.5, 0.05);
  }
}

TEST(FlashChip, WornOutBlockRefusesErase) {
  Geometry geom = Geometry::tiny();
  geom.pec_limit = 3;
  FlashChip chip(geom, NoiseModel::vendor_a(), 16);
  ASSERT_TRUE(chip.age_cycles(0, 6).is_ok());
  EXPECT_EQ(chip.erase_block(0).code(), ErrorCode::kWornOut);
}

TEST(FlashChip, HistogramCoversAllCells) {
  auto chip = make_chip(17);
  (void)chip.probe_voltages(0, 0);  // force allocation
  const auto hist = chip.voltage_histogram(0);
  EXPECT_EQ(hist.total(), static_cast<std::uint64_t>(
                              chip.geometry().pages_per_block) *
                              chip.geometry().cells_per_page);
  const auto page_hist = chip.page_voltage_histogram(0, 0);
  EXPECT_EQ(page_hist.total(), chip.geometry().cells_per_page);
}

}  // namespace
}  // namespace stash::nand
