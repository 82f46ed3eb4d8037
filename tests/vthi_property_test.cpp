// Property tests for the VT-HI channel and codec swept across operating
// points: thresholds, step budgets, bit densities, field sizes, and chips.
// Complements vthi_test.cpp (behavioural tests) with invariants that must
// hold at *every* configuration.

#include <gtest/gtest.h>

#include <set>

#include "stash/vthi/codec.hpp"

namespace stash::vthi {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;

HidingKey prop_key(std::uint8_t fill = 0x9e) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

Geometry prop_geometry() {
  Geometry geom;
  geom.blocks = 4;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  return geom;
}

// ---------------- Channel invariants over operating points ----------------

struct ChannelPoint {
  double vth;
  int steps;
  std::uint32_t bits;
};

class ChannelSweep : public ::testing::TestWithParam<ChannelPoint> {};

TEST_P(ChannelSweep, EmbedNeverTouchesPublicBits) {
  // The defining invariant: regardless of configuration, embedding leaves
  // every public read unchanged.
  const auto point = GetParam();
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 501);
  (void)chip.program_block_random(0, 501);
  std::vector<std::vector<std::uint8_t>> before;
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    before.push_back(chip.read_page(0, p));
  }

  ChannelConfig config;
  config.vth = point.vth;
  config.max_pp_steps = point.steps;
  VthiChannel channel(chip, prop_key().selection_key(), config);
  util::Xoshiro256 rng(501);
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; p += 2) {
    std::vector<std::uint8_t> bits(point.bits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
    ASSERT_TRUE(channel.embed(0, p, bits).is_ok());
  }

  std::size_t flips = 0;
  for (std::uint32_t p = 0; p < prop_geometry().pages_per_block; ++p) {
    const auto after = chip.read_page(0, p);
    for (std::size_t c = 0; c < after.size(); ++c) {
      flips += (after[c] ^ before[p][c]) & 1;
    }
  }
  EXPECT_LE(flips, 3u) << "vth=" << point.vth << " m=" << point.steps
                       << " bits=" << point.bits;
}

TEST_P(ChannelSweep, ExtractedZeroBitsSitAtOrAboveThreshold) {
  const auto point = GetParam();
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 502);
  (void)chip.program_block_random(0, 502);
  ChannelConfig config;
  config.vth = point.vth;
  config.max_pp_steps = point.steps;
  VthiChannel channel(chip, prop_key().selection_key(), config);
  util::Xoshiro256 rng(502);
  std::vector<std::uint8_t> bits(point.bits);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  auto session = channel.embed(0, 0, bits);
  ASSERT_TRUE(session.is_ok());

  // Every cell the decoder calls '0' must actually measure >= vth; every
  // cell it calls '1' must measure < vth — self-consistency of the
  // shifted-reference read.
  const auto readback = channel.extract(0, 0, point.bits).value();
  const auto volts = chip.probe_voltages(0, 0);
  const auto& cells = session.value().cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (readback[i] == 0) {
      EXPECT_GE(volts[cells[i]], point.vth) << "cell " << cells[i];
    } else {
      EXPECT_LT(volts[cells[i]], point.vth) << "cell " << cells[i];
    }
  }
}

TEST_P(ChannelSweep, SelectionStableAcrossEmbedAndRetention) {
  const auto point = GetParam();
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 503);
  (void)chip.program_block_random(0, 503);
  ChannelConfig config;
  config.vth = point.vth;
  config.max_pp_steps = point.steps;
  VthiChannel channel(chip, prop_key().selection_key(), config);

  const auto before = channel.select_cells(0, 0, point.bits).value();
  util::Xoshiro256 rng(503);
  std::vector<std::uint8_t> bits(point.bits);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  ASSERT_TRUE(channel.embed(0, 0, bits).is_ok());
  chip.bake_block(0, 24.0 * 60);
  const auto after = channel.select_cells(0, 0, point.bits).value();
  EXPECT_EQ(before, after) << "selection drifted";
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, ChannelSweep,
    ::testing::Values(ChannelPoint{30.0, 6, 64}, ChannelPoint{34.0, 10, 64},
                      ChannelPoint{34.0, 10, 256}, ChannelPoint{34.0, 4, 32},
                      ChannelPoint{40.0, 10, 128},
                      ChannelPoint{34.0, 14, 512}));

// ---------------- Cross-chip / cross-key independence ----------------

TEST(Independence, PayloadsOnDifferentBlocksDoNotInterfere) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 505);
  VthiCodec codec(chip, prop_key());
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint32_t b = 0; b < 3; ++b) {
    (void)chip.program_block_random(b, 505 + b);
    payloads.emplace_back(codec.capacity_bytes() / 2,
                          static_cast<std::uint8_t>(0x30 + b));
    ASSERT_TRUE(codec.hide(b, payloads.back()).is_ok());
  }
  for (std::uint32_t b = 0; b < 3; ++b) {
    const auto revealed = codec.reveal(b);
    ASSERT_TRUE(revealed.is_ok()) << "block " << b;
    EXPECT_EQ(revealed.value(), payloads[b]);
  }
}

TEST(Independence, TwoKeysCoexistOnOneDevice) {
  // Two hiding users, two keys, two blocks: neither can see or damage the
  // other's payload.
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 506);
  (void)chip.program_block_random(0, 506);
  (void)chip.program_block_random(1, 507);
  VthiCodec alice(chip, prop_key(0x01));
  VthiCodec bob(chip, prop_key(0x02));
  const std::vector<std::uint8_t> alice_data(32, 0xaa);
  const std::vector<std::uint8_t> bob_data(32, 0xbb);
  ASSERT_TRUE(alice.hide(0, alice_data).is_ok());
  ASSERT_TRUE(bob.hide(1, bob_data).is_ok());

  EXPECT_EQ(alice.reveal(0).value(), alice_data);
  EXPECT_EQ(bob.reveal(1).value(), bob_data);
  EXPECT_FALSE(alice.reveal(1).is_ok());
  EXPECT_FALSE(bob.reveal(0).is_ok());
}

TEST(Independence, SamePayloadDifferentBlocksDiffersOnFlash) {
  // Block-personalized selection + nonce: identical payloads must not
  // produce identical cell patterns (no watermarking of the hiding itself).
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 508);
  (void)chip.program_block_random(0, 508);
  (void)chip.program_block_random(1, 508);  // same public data seed
  VthiCodec codec(chip, prop_key());
  const std::vector<std::uint8_t> payload(32, 0x77);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());
  ASSERT_TRUE(codec.hide(1, payload).is_ok());
  auto cells0 = codec.channel().select_cells(0, 0, 64).value();
  auto cells1 = codec.channel().select_cells(1, 0, 64).value();
  EXPECT_NE(cells0, cells1);
}

// ---------------- Capacity monotonicity ----------------

TEST(Capacity, GrowsWithBitsPerPage) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 509);
  auto capacity_of = [&](std::uint32_t bits) {
    VthiConfig config = VthiConfig::production();
    config.hidden_bits_per_page = bits;
    return VthiCodec(chip, prop_key(), config).capacity_bytes();
  };
  EXPECT_LT(capacity_of(128), capacity_of(256));
}

TEST(Capacity, EccOverheadGrowsWithDesignBer) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 510);
  auto overhead_of = [&](double ber) {
    VthiConfig config = VthiConfig::production();
    config.raw_ber_estimate = ber;
    return VthiCodec(chip, prop_key(), config).ecc_overhead();
  };
  EXPECT_LT(overhead_of(0.004), overhead_of(0.015));
  EXPECT_LT(overhead_of(0.015), overhead_of(0.04));
}

// ---------------- Report integrity ----------------

TEST(Reports, HideReportCountsAreConsistent) {
  FlashChip chip(prop_geometry(), NoiseModel::vendor_a(), 511);
  (void)chip.program_block_random(0, 511);
  VthiCodec codec(chip, prop_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2, 0x42);
  const auto report = codec.hide(0, payload);
  ASSERT_TRUE(report.is_ok());
  const auto& r = report.value();
  EXPECT_EQ(r.pages_used, codec.hidden_pages().size());
  EXPECT_GE(r.codewords, 1u);
  EXPECT_EQ(r.payload_bytes, payload.size());
  EXPECT_EQ(r.capacity_bytes, codec.capacity_bytes());
  EXPECT_GE(r.max_pp_steps_taken, 1);
  EXPECT_LE(r.max_pp_steps_taken, codec.config().channel.max_pp_steps);
  // Residual raw errors after a full embed are a tiny fraction.
  EXPECT_LT(r.unconverged_cells,
            static_cast<int>(r.pages_used *
                             codec.config().hidden_bits_per_page / 20));
}

}  // namespace
}  // namespace stash::vthi
