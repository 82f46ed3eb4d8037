// NAND simulator semantics: geometry, erase/program/read rules, voltage
// monotonicity, vendor ops, wear, retention, disturb, traits, ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>

#include "stash/fault/plan.hpp"
#include "stash/nand/chip.hpp"
#include "stash/trace/trace.hpp"
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

void expect_same_ledger(const CostLedger& actual, const CostLedger& expected) {
  CostLedger::for_each(
      actual,
      [](std::string_view name, std::uint64_t a, std::uint64_t e) {
        EXPECT_EQ(a, e) << name;
      },
      expected);
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

// A cell list with one index past the page is rejected whole, by all three
// cell-list ops: no cell moves, no fault op index is consumed, nothing is
// charged or counted.
TEST(FlashChip, PartialProgramRejectsBadCell) {
  auto chip = make_chip();
  fault::FaultPlan plan(1);
  chip.set_fault_injector(&plan);
  const std::vector<std::uint32_t> one = {5};
  ASSERT_TRUE(chip.partial_program(0, 0, one).is_ok());
  const std::vector<std::uint32_t> mixed = {0, chip.geometry().cells_per_page};
  const std::uint64_t digest = chip.state_digest();
  const CostLedger ledger = chip.ledger();
  const std::uint64_t ops = plan.stats().ops_seen;

  EXPECT_EQ(chip.partial_program(0, 0, mixed).code(), ErrorCode::kOutOfBounds);
  EXPECT_EQ(chip.fine_program(0, 0, mixed, 60.0, 1.0).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(chip.stress_cells(0, 0, mixed, 1000).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(chip.state_digest(), digest);
  expect_same_ledger(chip.ledger(), ledger);
  EXPECT_EQ(plan.stats().ops_seen, ops);
  chip.set_fault_injector(nullptr);
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
  EXPECT_EQ(la.time_us(), lb.time_us());
  EXPECT_EQ(la.energy_uj(), lb.energy_uj());
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
  EXPECT_DOUBLE_EQ(ledger.time_us(), costs.program_us + 2 * costs.read_us +
                                       costs.partial_program_us +
                                       costs.erase_us);
  EXPECT_DOUBLE_EQ(ledger.energy_uj(), costs.program_uj + 2 * costs.read_uj +
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

/// The exact voltages of one page, cut out of the block's canonical
/// serialization (pec, cursor, epoch, page states, page ages, voltages...).
std::vector<float> page_voltages(const FlashChip& chip, std::uint32_t block,
                                 std::uint32_t page) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(chip.serialize_block(block, bytes).is_ok());
  const Geometry& g = chip.geometry();
  const std::size_t offset = 16 + 5 * std::size_t{g.pages_per_block} +
                             4 * std::size_t{page} * g.cells_per_page;
  std::vector<float> v(g.cells_per_page);
  std::memcpy(v.data(), bytes.data() + offset, v.size() * sizeof(float));
  return v;
}

// The first erase of a never-used block fills each page once: the pages it
// reaches are drawn by the erase, the rest keep the fresh block's epoch-0
// state — the voltages a twin chip's untouched block holds.
TEST(FlashChip, InterruptedFirstEraseLeavesUnreachedPagesFresh) {
  auto cut = make_chip(18);
  auto twin = make_chip(18);
  fault::FaultPlan plan(1);
  plan.power_cut_at(0, 0.25);
  cut.set_fault_injector(&plan);
  ASSERT_EQ(cut.erase_block(3).code(), ErrorCode::kPowerLoss);
  cut.set_fault_injector(nullptr);
  (void)twin.probe_voltages(3, 0);  // allocates the block, moves nothing

  const std::uint32_t pages = cut.geometry().pages_per_block;
  for (std::uint32_t p = 0; p < pages; ++p) {
    if (p < pages / 4) {
      EXPECT_NE(page_voltages(cut, 3, p), page_voltages(twin, 3, p))
          << "page " << p << " was reached";
    } else {
      EXPECT_EQ(page_voltages(cut, 3, p), page_voltages(twin, 3, p))
          << "page " << p << " was not reached";
    }
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


// ---- One contract for the six commands --------------------------------------
//
// Every NAND command runs the same path: preconditions first, then one fault
// op index, one cost, one ledger count and one trace span.  Each case below
// issues its command in an accepted form and in a form its preconditions
// reject.

struct NandCommand {
  const char* name;
  trace::Stage stage;
  std::uint64_t CostLedger::*count;
  double OpCosts::*us;
  double OpCosts::*uj;
  /// Status of an injected failure that is not a power cut.
  ErrorCode fail;
  /// Read class: returns data rather than a Status, and a fault aborts it.
  bool reads;
  /// Issue the command, accepted or rejected.  Read and probe report ok
  /// when they return a page.
  Status (*issue)(FlashChip&, bool accepted);
};

void PrintTo(const NandCommand& cmd, std::ostream* os) { *os << cmd.name; }

const std::vector<std::uint32_t> kCells = {1, 2, 3};

Status page_or_error(bool got_page) {
  return got_page ? Status::ok()
                  : Status{ErrorCode::kInvalidArgument, "no page returned"};
}

const NandCommand kNandCommands[] = {
    {"erase_block", trace::Stage::kNandErase, &CostLedger::erases,
     &OpCosts::erase_us, &OpCosts::erase_uj, ErrorCode::kEraseFail, false,
     [](FlashChip& chip, bool accepted) {
       return chip.erase_block(accepted ? 0 : 1);  // block 1 is worn out
     }},
    {"program_page", trace::Stage::kNandProgram, &CostLedger::programs,
     &OpCosts::program_us, &OpCosts::program_uj, ErrorCode::kProgramFail,
     false,
     [](FlashChip& chip, bool accepted) {
       const std::vector<std::uint8_t> bits(chip.geometry().cells_per_page, 0);
       return chip.program_page(0, accepted ? 1 : 0, bits);  // 0 is written
     }},
    {"read_page_into", trace::Stage::kNandRead, &CostLedger::reads,
     &OpCosts::read_us, &OpCosts::read_uj, ErrorCode::kOk, true,
     [](FlashChip& chip, bool accepted) {
       const std::uint32_t cells = chip.geometry().cells_per_page;
       std::vector<std::uint8_t> out(accepted ? cells : cells - 1);
       return page_or_error(chip.read_page_into(0, 0, out) == cells);
     }},
    {"probe_voltages", trace::Stage::kNandProbe, &CostLedger::reads,
     &OpCosts::read_us, &OpCosts::read_uj, ErrorCode::kOk, true,
     [](FlashChip& chip, bool accepted) {
       const std::uint32_t page =
           accepted ? 0 : chip.geometry().pages_per_block;
       return page_or_error(!chip.probe_voltages(0, page).empty());
     }},
    {"partial_program", trace::Stage::kNandPartialProgram,
     &CostLedger::partial_programs, &OpCosts::partial_program_us,
     &OpCosts::partial_program_uj, ErrorCode::kProgramFail, false,
     [](FlashChip& chip, bool accepted) {
       return chip.partial_program(
           0, 1, accepted ? kCells
                          : std::vector<std::uint32_t>{
                                1, chip.geometry().cells_per_page});
     }},
    {"fine_program", trace::Stage::kNandFineProgram,
     &CostLedger::partial_programs, &OpCosts::partial_program_us,
     &OpCosts::partial_program_uj, ErrorCode::kProgramFail, false,
     [](FlashChip& chip, bool accepted) {
       return chip.fine_program(
           0, 1,
           accepted ? kCells
                    : std::vector<std::uint32_t>{
                          1, chip.geometry().cells_per_page},
           60.0, 1.0);
     }},
};

struct TracedIssue {
  Status status = Status::ok();
  std::vector<trace::SpanRecord> spans;
};

/// Issue the command inside a sampled request, tracer on in virtual-clock
/// mode, and return what the tracer saw.
TracedIssue issue_traced(FlashChip& chip, const NandCommand& cmd,
                         bool accepted) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  TracedIssue out;
  {
    const trace::ContextGuard guard(
        trace::make_root(1, trace::Stage::kDevRequest, trace::Op::kNone, 0));
    out.status = cmd.issue(chip, accepted);
  }
  tracer.disable();
  out.spans = tracer.collect();
  tracer.clear();
  return out;
}

/// `ledger` after one charged and counted `cmd`.
CostLedger charged(CostLedger ledger, const NandCommand& cmd,
                   const OpCosts& costs) {
  ledger.time_ns +=
      static_cast<std::uint64_t>(std::llround(costs.*cmd.us * 1e3));
  ledger.energy_nj +=
      static_cast<std::uint64_t>(std::llround(costs.*cmd.uj * 1e3));
  ++(ledger.*cmd.count);
  return ledger;
}

void expect_one_span(const TracedIssue& run, const NandCommand& cmd) {
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_EQ(run.spans[0].stage, cmd.stage);
  EXPECT_EQ(run.spans[0].status, static_cast<std::uint8_t>(run.status.code()));
}

class NandCommandContract : public ::testing::TestWithParam<NandCommand> {
 protected:
  static Geometry geometry() {
    Geometry g = Geometry::tiny();
    g.pec_limit = 3;
    return g;
  }

  NandCommandContract() : chip_(geometry(), NoiseModel::vendor_a(), 41) {
    EXPECT_TRUE(chip_.program_page(0, 0, random_bits(2048, 41)).is_ok());
    EXPECT_TRUE(chip_.age_cycles(1, 2 * geometry().pec_limit).is_ok());
    chip_.set_fault_injector(&plan_);
  }

  /// Issue the accepted form under an injected fault: a status-returning
  /// command still applies its fraction, charges, counts and reports
  /// `expected` on its span; a read or probe aborts before any of that.
  void expect_faulted(ErrorCode expected) {
    const NandCommand& cmd = GetParam();
    const std::uint64_t digest = chip_.state_digest();
    const CostLedger before = chip_.ledger();
    const std::uint64_t ops = plan_.stats().ops_seen;
    const TracedIssue run = issue_traced(chip_, cmd, true);
    EXPECT_EQ(plan_.stats().ops_seen, ops + 1);
    if (cmd.reads) {
      EXPECT_FALSE(run.status.is_ok());
      EXPECT_TRUE(run.spans.empty());
      EXPECT_EQ(chip_.state_digest(), digest);
      expect_same_ledger(chip_.ledger(), before);
    } else {
      EXPECT_EQ(run.status.code(), expected);
      expect_same_ledger(chip_.ledger(), charged(before, cmd, chip_.costs()));
      expect_one_span(run, cmd);
    }
  }

  fault::FaultPlan plan_{7};
  FlashChip chip_;
};

TEST_P(NandCommandContract, AcceptedCallConsumesOneOpChargesOneCostCountsOne) {
  const NandCommand& cmd = GetParam();
  const CostLedger before = chip_.ledger();
  const std::uint64_t ops = plan_.stats().ops_seen;
  const TracedIssue run = issue_traced(chip_, cmd, true);
  ASSERT_TRUE(run.status.is_ok()) << run.status.message();
  EXPECT_EQ(plan_.stats().ops_seen, ops + 1);
  expect_same_ledger(chip_.ledger(), charged(before, cmd, chip_.costs()));
  expect_one_span(run, cmd);
}

TEST_P(NandCommandContract, RejectedCallConsumesNothing) {
  const NandCommand& cmd = GetParam();
  const std::uint64_t digest = chip_.state_digest();
  const CostLedger before = chip_.ledger();
  const std::uint64_t ops = plan_.stats().ops_seen;
  const TracedIssue run = issue_traced(chip_, cmd, false);
  EXPECT_FALSE(run.status.is_ok());
  EXPECT_EQ(plan_.stats().ops_seen, ops);
  EXPECT_EQ(chip_.state_digest(), digest);
  expect_same_ledger(chip_.ledger(), before);
  // A rejected command with a valid address still reports on its span;
  // read and probe open theirs only once they will return data.
  if (cmd.reads) {
    EXPECT_TRUE(run.spans.empty());
  } else {
    expect_one_span(run, cmd);
  }
}

TEST_P(NandCommandContract, StatusFailureChargesOrAbortsARead) {
  plan_.fail_when([](FaultOp, std::uint32_t, std::uint32_t) { return true; });
  expect_faulted(GetParam().fail);
}

TEST_P(NandCommandContract, PowerCutChargesOrAbortsARead) {
  plan_.power_cut_at(plan_.stats().ops_seen, 0.5);
  expect_faulted(ErrorCode::kPowerLoss);
}

INSTANTIATE_TEST_SUITE_P(AllCommands, NandCommandContract,
                         ::testing::ValuesIn(kNandCommands),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// An aborted read or probe leaves a never-used block unallocated.
TEST(FlashChip, AbortedReadAndProbeAllocateNothing) {
  auto chip = make_chip(19);
  fault::FaultPlan plan(1);
  plan.cut_power();
  chip.set_fault_injector(&plan);
  EXPECT_TRUE(chip.read_page(2, 0).empty());
  EXPECT_TRUE(chip.probe_voltages(2, 0).empty());
  EXPECT_FALSE(chip.block_allocated(2));
  EXPECT_EQ(plan.stats().ops_seen, 2u);
  expect_same_ledger(chip.ledger(), CostLedger{});
  chip.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace stash::nand
