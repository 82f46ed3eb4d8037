// stash::fault tests: deterministic fault scheduling (same seed => same
// fault schedule on the same workload), point faults at exact operation
// indices, grown-bad-block semantics, stuck cells, transient read glitches,
// and the power-cut/dark-device model — plus the ONFI status-register view
// of an injected failure.

#include <gtest/gtest.h>

#include <vector>

#include "stash/fault/plan.hpp"
#include "stash/nand/chip.hpp"
#include "stash/nand/onfi.hpp"
#include "stash/util/rng.hpp"

namespace stash::fault {
namespace {

using nand::FaultOp;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

std::vector<std::uint8_t> page_pattern(const FlashChip& chip,
                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(chip.geometry().cells_per_page);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

/// Fixed mixed workload: erase + full program + sparse reads over 4 blocks.
/// Every op sequence is identical across calls, so two plans with the same
/// seed see the identical (op, index) stream.
void run_workload(FlashChip& chip) {
  for (std::uint32_t b = 0; b < 4; ++b) {
    (void)chip.erase_block(b);
    for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
      (void)chip.program_page(b, p, page_pattern(chip, 100 + b * 64 + p));
    }
    for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; p += 2) {
      (void)chip.read_page(b, p);
    }
  }
}

TEST(FaultPlan, SameSeedFiresIdenticalScheduleDifferentSeedDiffers) {
  auto run = [](std::uint64_t seed) -> std::vector<FiredFault> {
    FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 42);
    FaultPlan plan(seed);
    plan.fail_programs(0.2).fail_erases(0.5).glitch_reads(0.5);
    chip.set_fault_injector(&plan);
    run_workload(chip);
    return plan.fired();
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultPlan, StatsAgreeWithFiredLog) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 42);
  FaultPlan plan(9);
  plan.fail_programs(0.2).fail_erases(0.5).glitch_reads(0.5);
  chip.set_fault_injector(&plan);
  run_workload(chip);

  std::uint64_t programs = 0, erases = 0, glitches = 0;
  for (const FiredFault& f : plan.fired()) {
    programs += f.kind == FaultKind::kProgramFail;
    erases += f.kind == FaultKind::kEraseFail;
    glitches += f.kind == FaultKind::kReadGlitch;
  }
  EXPECT_EQ(plan.stats().program_fails, programs);
  EXPECT_EQ(plan.stats().erase_fails, erases);
  EXPECT_EQ(plan.stats().read_glitches, glitches);
  // 4 erases + 32 programs + 16 reads.
  EXPECT_EQ(plan.ops_seen(), 52u);
}

TEST(FaultPlan, ScheduledProgramFailFiresAtExactIndex) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 43);
  FaultPlan plan(1);
  plan.fail_program_at(3);
  chip.set_fault_injector(&plan);
  for (std::uint32_t p = 0; p < 6; ++p) {
    const auto st = chip.program_page(0, p, page_pattern(chip, p));
    if (p == 3) {
      EXPECT_EQ(st.code(), ErrorCode::kProgramFail) << "page " << p;
    } else {
      EXPECT_TRUE(st.is_ok()) << "page " << p << ": " << st.to_string();
    }
  }
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].op_index, 3u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kProgramFail);
  EXPECT_EQ(plan.fired()[0].block, 0u);
  EXPECT_EQ(plan.fired()[0].page, 3u);
}

TEST(FaultPlan, ScheduledEraseFailIsOneShot) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 44);
  FaultPlan plan(1);
  plan.fail_erase_at(0);
  chip.set_fault_injector(&plan);
  EXPECT_EQ(chip.erase_block(2).code(), ErrorCode::kEraseFail);
  // The point fault is consumed: the retry succeeds.
  EXPECT_TRUE(chip.erase_block(2).is_ok());
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kEraseFail);
}

TEST(FaultPlan, PowerCutDarkensDeviceUntilRestore) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 45);
  FaultPlan plan(2);
  plan.power_cut_at(1, 0.5);
  chip.set_fault_injector(&plan);

  ASSERT_TRUE(chip.program_page(0, 0, page_pattern(chip, 0)).is_ok());  // op 0
  const auto cut = chip.program_page(0, 1, page_pattern(chip, 1));      // op 1
  EXPECT_EQ(cut.code(), ErrorCode::kPowerLoss);
  EXPECT_FALSE(plan.powered());

  // Dark: reads return nothing, programs report power loss.  (The dark
  // program still consumes its page — the device cannot tell how much of
  // the pulse landed before the lights went out.)
  EXPECT_TRUE(chip.read_page(0, 0).empty());
  EXPECT_TRUE(chip.probe_voltages(0, 0).empty());
  EXPECT_EQ(chip.program_page(0, 2, page_pattern(chip, 2)).code(),
            ErrorCode::kPowerLoss);
  EXPECT_GE(plan.stats().dark_ops, 3u);

  plan.restore_power();
  EXPECT_FALSE(chip.read_page(0, 0).empty());
  EXPECT_TRUE(chip.program_page(0, 3, page_pattern(chip, 3)).is_ok());
}

TEST(FaultPlan, PowerCutFractionTruncatesErase) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 46);
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    ASSERT_TRUE(chip.program_page(1, p, page_pattern(chip, p)).is_ok());
  }
  FaultPlan plan(3);
  plan.power_cut_at(0, 0.5);  // erase dies halfway through the wordlines
  chip.set_fault_injector(&plan);
  EXPECT_EQ(chip.erase_block(1).code(), ErrorCode::kPowerLoss);
  plan.restore_power();
  // A prefix of pages is erased, the rest still read as programmed.
  EXPECT_EQ(chip.page_state(1, 0), nand::PageState::kErased);
  EXPECT_EQ(chip.page_state(1, chip.geometry().pages_per_block - 1),
            nand::PageState::kProgrammed);
}

TEST(FaultPlan, GrownBadBlockRejectsProgramAndEraseButStillReads) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 47);
  ASSERT_TRUE(chip.program_page(5, 0, page_pattern(chip, 50)).is_ok());

  FaultPlan plan(4);
  plan.grow_bad_block(5);
  chip.set_fault_injector(&plan);
  EXPECT_TRUE(plan.is_grown_bad(5));
  EXPECT_EQ(chip.program_page(5, 1, page_pattern(chip, 51)).code(),
            ErrorCode::kProgramFail);
  EXPECT_EQ(chip.erase_block(5).code(), ErrorCode::kEraseFail);
  // Reads keep working: a retiring FTL must be able to drain the block.
  EXPECT_FALSE(chip.read_page(5, 0).empty());
  // Persistent, unlike a point fault: a second attempt fails too.
  EXPECT_EQ(chip.erase_block(5).code(), ErrorCode::kEraseFail);
  // Other blocks are untouched.
  EXPECT_TRUE(chip.program_page(6, 0, page_pattern(chip, 52)).is_ok());
  EXPECT_GE(plan.stats().bad_block_rejections, 3u);
}

TEST(FaultPlan, StuckCellPinsProbeAndRead) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 48);
  FaultPlan plan(5);
  plan.stick_cell(0, 0, 5, 200);  // stuck far above the public reference
  chip.set_fault_injector(&plan);

  const auto volts = chip.probe_voltages(0, 0);
  ASSERT_FALSE(volts.empty());
  EXPECT_EQ(volts[5], 200);

  const auto bits = chip.read_page(0, 0);  // erased page reads all '1'...
  ASSERT_FALSE(bits.empty());
  EXPECT_EQ(bits[4], 1);
  EXPECT_EQ(bits[5], 0);  // ...except the cell stuck above the reference
  EXPECT_EQ(bits[6], 1);
}

TEST(FaultPlan, ReadGlitchIsTransientAndDeterministic) {
  auto glitched_read = [](std::uint64_t plan_seed) {
    FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 49);
    EXPECT_TRUE(chip.program_page(0, 0, page_pattern(chip, 90)).is_ok());
    FaultPlan plan(plan_seed);
    plan.glitch_reads(1.0, 0.01);  // every read glitches, ~1% bits flip
    chip.set_fault_injector(&plan);
    return chip.read_page(0, 0);
  };
  FlashChip clean_chip(Geometry::tiny(), NoiseModel::vendor_a(), 49);
  ASSERT_TRUE(clean_chip.program_page(0, 0, page_pattern(clean_chip, 90))
                  .is_ok());
  const auto clean = clean_chip.read_page(0, 0);

  const auto a = glitched_read(11);
  const auto b = glitched_read(11);
  const auto c = glitched_read(12);
  EXPECT_EQ(a, b);        // same seed: identical corruption
  EXPECT_NE(a, clean);    // the glitch flipped something
  EXPECT_NE(a, c);        // different seed: different corruption

  // Transient: with the glitch rate off, the next read of the same page is
  // clean again (no permanent damage was done to the cells).
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 49);
  ASSERT_TRUE(chip.program_page(0, 0, page_pattern(chip, 90)).is_ok());
  FaultPlan plan(11);
  chip.set_fault_injector(&plan);
  EXPECT_EQ(chip.read_page(0, 0), clean);
}

TEST(FaultPlan, PredicateFailsMatchingOps) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 50);
  FaultPlan plan(6);
  plan.fail_when([](FaultOp op, std::uint32_t block, std::uint32_t) {
    return op == FaultOp::kErase && block == 3;
  });
  chip.set_fault_injector(&plan);
  EXPECT_EQ(chip.erase_block(3).code(), ErrorCode::kEraseFail);
  EXPECT_TRUE(chip.erase_block(2).is_ok());
  EXPECT_TRUE(chip.program_page(3, 0, page_pattern(chip, 30)).is_ok());
  EXPECT_EQ(plan.stats().predicate_fails, 1u);
}

TEST(FaultPlan, PredicateFailsReadsAndProbes) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 52);
  ASSERT_TRUE(chip.program_page(0, 0, page_pattern(chip, 40)).is_ok());
  FaultPlan plan(8);
  plan.fail_when([](FaultOp op, std::uint32_t block, std::uint32_t) {
    return op == FaultOp::kRead && block == 0;
  });
  chip.set_fault_injector(&plan);
  const std::uint64_t reads_before = chip.ledger().reads;

  // Every read entry point reports the fault: an empty result, or 0 cells
  // written, at the public and at a shifted reference alike.
  EXPECT_TRUE(chip.read_page(0, 0).empty());
  std::vector<std::uint8_t> out(chip.geometry().cells_per_page);
  EXPECT_EQ(chip.read_page_into(0, 0, out), 0u);
  EXPECT_EQ(chip.read_page_into(0, 0, out, 100.0), 0u);
  EXPECT_TRUE(chip.probe_voltages(0, 0).empty());
  EXPECT_EQ(plan.stats().predicate_fails, 4u);
  EXPECT_EQ(chip.ledger().reads, reads_before);  // a vetoed read costs nothing

  // Reads the predicate does not match still execute.
  EXPECT_FALSE(chip.read_page(1, 0).empty());
  EXPECT_EQ(plan.stats().predicate_fails, 4u);
}

TEST(FaultPlan, InjectedProgramFailSurfacesInOnfiStatus) {
  Geometry geom = Geometry::tiny();
  geom.cells_per_page = 2048;  // divisible by 8 for the byte-wide bus
  FlashChip chip(geom, NoiseModel::vendor_a(), 51);
  nand::OnfiDevice dev(chip);
  FaultPlan plan(7);
  plan.fail_program_at(0);
  chip.set_fault_injector(&plan);

  const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0xA5);
  EXPECT_FALSE(dev.program_page(0, 0, bytes).is_ok());
  EXPECT_TRUE(dev.status() & nand::onfi::kStatusFail);
  // The next program (fresh page, no fault scheduled) clears the failure.
  EXPECT_TRUE(dev.program_page(0, 1, bytes).is_ok());
  EXPECT_FALSE(dev.status() & nand::onfi::kStatusFail);
}

TEST(FaultPlan, FaultKindNamesAreUnique) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kProgramFail), "program_fail");
  EXPECT_STREQ(fault_kind_name(FaultKind::kPowerCut), "power_cut");
  EXPECT_STREQ(fault_kind_name(FaultKind::kGrownBadBlock), "grown_bad_block");
}

}  // namespace
}  // namespace stash::fault
