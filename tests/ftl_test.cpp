// FTL tests: mapping correctness against a reference model, GC invariants,
// trim, wear leveling, the pre-erase hook, and no-space behaviour.

#include <gtest/gtest.h>

#include <map>

#include "stash/ftl/ftl.hpp"
#include "stash/util/rng.hpp"

namespace stash::ftl {
namespace {

using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

std::vector<std::uint8_t> pattern_page(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Count mismatched bits; FTL reads can carry the chip's tiny raw BER.
std::size_t diff_bits(const std::vector<std::uint8_t>& a,
                      const std::vector<std::uint8_t>& b) {
  std::size_t d = a.size() == b.size() ? 0 : SIZE_MAX;
  for (std::size_t i = 0; i < a.size() && d != SIZE_MAX; ++i) d += a[i] != b[i];
  return d;
}

/// One logical page through read_into, as an owning vector.
util::Result<std::vector<std::uint8_t>> read_page(PageMappedFtl& ftl,
                                                  std::uint64_t lpn) {
  std::vector<std::uint8_t> bits(ftl.page_bits());
  auto cells = ftl.read_into(lpn, bits);
  if (!cells.is_ok()) return cells.status();
  bits.resize(cells.value());
  return bits;
}

TEST(Ftl, WriteReadRoundTrip) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 41);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 1);
  ASSERT_TRUE(ftl.write(0, page).is_ok());
  const auto readback = read_page(ftl, 0);
  ASSERT_TRUE(readback.is_ok());
  EXPECT_LE(diff_bits(readback.value(), page), 2u);
}

TEST(Ftl, UnwrittenPageIsNotFound) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 42);
  PageMappedFtl ftl(chip);
  EXPECT_EQ(read_page(ftl, 5).status().code(), ErrorCode::kNotFound);
}

TEST(Ftl, OverwriteReturnsLatestVersion) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 43);
  PageMappedFtl ftl(chip);
  const auto v1 = pattern_page(ftl.page_bits(), 10);
  const auto v2 = pattern_page(ftl.page_bits(), 20);
  ASSERT_TRUE(ftl.write(7, v1).is_ok());
  const auto first = ftl.locate(7);
  ASSERT_TRUE(ftl.write(7, v2).is_ok());
  const auto second = ftl.locate(7);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_NE(*first, *second);  // out-of-place update
  const auto readback = read_page(ftl, 7);
  ASSERT_TRUE(readback.is_ok());
  EXPECT_LE(diff_bits(readback.value(), v2), 2u);
}

TEST(Ftl, BoundsChecking) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 44);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 30);
  EXPECT_EQ(ftl.write(ftl.logical_pages(), page).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(read_page(ftl, ftl.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  std::vector<std::uint8_t> short_page(3, 1);
  EXPECT_EQ(ftl.write(0, short_page).code(), ErrorCode::kInvalidArgument);
}

TEST(Ftl, TrimInvalidatesMapping) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 45);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 40);
  ASSERT_TRUE(ftl.write(3, page).is_ok());
  ASSERT_TRUE(ftl.trim(3).is_ok());
  EXPECT_EQ(read_page(ftl, 3).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(ftl.locate(3).has_value());
}

TEST(Ftl, RandomWorkloadMatchesReferenceModel) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 46);
  PageMappedFtl ftl(chip);
  std::map<std::uint64_t, std::uint64_t> reference;  // lpn -> tag
  util::Xoshiro256 rng(46);
  const std::uint64_t lpns = ftl.logical_pages() / 2;  // keep utilization sane
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    if (rng.uniform() < 0.85 || !reference.count(lpn)) {
      const std::uint64_t tag = rng();
      ASSERT_TRUE(ftl.write(lpn, pattern_page(ftl.page_bits(), tag)).is_ok())
          << "op " << op;
      reference[lpn] = tag;
    } else {
      ASSERT_TRUE(ftl.trim(lpn).is_ok());
      reference.erase(lpn);
    }
  }
  for (const auto& [lpn, tag] : reference) {
    const auto readback = read_page(ftl, lpn);
    ASSERT_TRUE(readback.is_ok()) << "lpn " << lpn;
    EXPECT_LE(diff_bits(readback.value(), pattern_page(ftl.page_bits(), tag)),
              4u)
        << "lpn " << lpn;
  }
}

TEST(Ftl, GarbageCollectionReclaimsSpace) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 47);
  PageMappedFtl ftl(chip);
  // Hammer one logical page far beyond a block's worth of writes; without
  // GC the device would run out of blocks.
  const std::uint64_t writes =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block * 2;
  for (std::uint64_t i = 0; i < writes; ++i) {
    ASSERT_TRUE(ftl.write(0, pattern_page(ftl.page_bits(), i)).is_ok())
        << "write " << i;
  }
  EXPECT_GT(ftl.stats_snapshot().gc_runs, 0u);
  EXPECT_GE(ftl.stats_snapshot().write_amplification(), 1.0);
}

TEST(Ftl, WriteAmplificationNearOneForSequentialOverwrite) {
  // Overwriting the same small working set invalidates whole blocks, so GC
  // rarely needs to move valid data.
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 48);
  PageMappedFtl ftl(chip);
  const std::uint64_t working_set = 8;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < working_set; ++lpn) {
      ASSERT_TRUE(
          ftl.write(lpn, pattern_page(ftl.page_bits(),
                                      static_cast<std::uint64_t>(round) * 100 +
                                          lpn))
              .is_ok());
    }
  }
  EXPECT_LT(ftl.stats_snapshot().write_amplification(), 1.6);
}

TEST(Ftl, PreEraseHookSeesEachVictimIntactBeforeItsErase) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 49);
  PageMappedFtl ftl(chip);
  std::map<std::uint64_t, std::uint64_t> reference;  // lpn -> tag
  std::vector<std::pair<std::uint32_t, std::uint32_t>> victims;  // block, pec
  std::uint64_t valid_pages_seen = 0;
  const auto check_victim = [&](std::uint32_t block) {
    victims.emplace_back(block, chip.pec(block));
    // Nothing has moved yet: every valid page still maps to the victim and
    // reads back its data from it.
    for (const auto& [lpn, tag] : reference) {
      const auto at = ftl.locate(lpn);
      if (!at || at->block != block) continue;
      ++valid_pages_seen;
      const auto readback = read_page(ftl, lpn);
      ASSERT_TRUE(readback.is_ok()) << "lpn " << lpn;
      EXPECT_LE(diff_bits(readback.value(),
                          pattern_page(ftl.page_bits(), tag)),
                4u)
          << "lpn " << lpn;
    }
  };
  ftl.set_pre_erase_hook([&](std::uint32_t block) {
    check_victim(block);
    return Status::ok();
  });
  const auto write = [&](std::uint64_t lpn, std::uint64_t tag) {
    reference[lpn] = tag;
    return ftl.write(lpn, pattern_page(ftl.page_bits(), tag));
  };
  // Interleave cold pages (written once) with hot pages so every block
  // holds a mix: GC victims then carry valid data to relocate.
  std::uint64_t cold = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t lpn = (i % 2 == 0 && cold < 20) ? 10 + cold++ : i % 4;
    ASSERT_TRUE(write(lpn, 900 + lpn).is_ok());
  }
  const std::uint64_t writes =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block * 3;
  for (std::uint64_t i = 0; i < writes; ++i) {
    ASSERT_TRUE(write(i % 4, i).is_ok());
  }

  const FtlStats stats = ftl.stats_snapshot();
  ASSERT_EQ(stats.grown_bad_blocks, 0u);
  // One call per collected or wear-levelled block, each ahead of the drain
  // (it saw exactly the pages GC then relocated) and of the erase.
  EXPECT_EQ(victims.size(), stats.gc_runs + stats.wear_swaps);
  EXPECT_GT(valid_pages_seen, 0u);
  EXPECT_EQ(valid_pages_seen, stats.relocations);
  for (const auto& [block, pec] : victims) {
    EXPECT_GT(chip.pec(block), pec) << "block " << block;
  }
  for (const auto& [lpn, tag] : reference) {
    const auto readback = read_page(ftl, lpn);
    ASSERT_TRUE(readback.is_ok()) << "lpn " << lpn;
    EXPECT_LE(diff_bits(readback.value(), pattern_page(ftl.page_bits(), tag)),
              4u)
        << "lpn " << lpn;
  }
}

TEST(Ftl, PreEraseHookVetoLeavesTheVictimInService) {
  // A hook that refuses the erase (the hidden layer could not read a chunk
  // it must rescue) leaves the victim as it was: unerased, every page it
  // holds still mapped to it, the free pool untouched.  A later pass, once
  // the hook agrees, collects it.
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 52);
  PageMappedFtl ftl(chip);
  std::vector<std::uint32_t> refused;
  bool veto = true;
  ftl.set_pre_erase_hook([&](std::uint32_t block) {
    if (!veto) return Status::ok();
    refused.push_back(block);
    return Status{ErrorCode::kOutOfBounds, "probe not served"};
  });
  // Two full blocks, then half of the first rewritten: block 0 is the
  // emptiest victim and still holds valid pages to relocate.
  const std::uint64_t lpns = 2 * chip.geometry().pages_per_block;
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, pattern_page(ftl.page_bits(), lpn)).is_ok());
  }
  const std::uint64_t rewritten = chip.geometry().pages_per_block / 2;
  for (std::uint64_t lpn = 0; lpn < rewritten; ++lpn) {
    ASSERT_TRUE(
        ftl.write(lpn, pattern_page(ftl.page_bits(), 100 + lpn)).is_ok());
  }
  std::vector<std::optional<nand::PageAddr>> mapped;
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    mapped.push_back(ftl.locate(lpn));
  }
  const std::uint32_t free_before = ftl.free_blocks();

  EXPECT_EQ(ftl.run_gc().code(), ErrorCode::kOutOfBounds);
  ASSERT_EQ(refused, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(chip.pec(0), 0u);
  EXPECT_EQ(ftl.free_blocks(), free_before);
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    EXPECT_EQ(ftl.locate(lpn), mapped[lpn]) << "lpn " << lpn;
  }
  EXPECT_EQ(ftl.stats_snapshot().relocations, 0u);

  veto = false;
  ASSERT_TRUE(ftl.run_gc().is_ok());
  EXPECT_EQ(chip.pec(0), 1u);
  EXPECT_EQ(ftl.stats_snapshot().relocations, lpns / 2 - rewritten);
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    const auto at = ftl.locate(lpn);
    ASSERT_TRUE(at.has_value()) << "lpn " << lpn;
    EXPECT_NE(at->block, 0u) << "lpn " << lpn;
    const auto readback = read_page(ftl, lpn);
    ASSERT_TRUE(readback.is_ok()) << "lpn " << lpn;
    EXPECT_LE(diff_bits(readback.value(),
                        pattern_page(ftl.page_bits(),
                                     lpn < rewritten ? 100 + lpn : lpn)),
              4u)
        << "lpn " << lpn;
  }
}

TEST(Ftl, LogicalCapacityReflectsOverprovisioning) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 50);
  FtlConfig config;
  config.overprovision = 0.25;
  PageMappedFtl ftl(chip, config);
  const std::uint64_t physical_pages =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block;
  EXPECT_LT(ftl.logical_pages(), physical_pages);
  EXPECT_GE(ftl.logical_pages(), physical_pages / 2);
}

}  // namespace
}  // namespace stash::ftl
