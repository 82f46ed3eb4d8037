// End-to-end integration tests across the whole stack: the paper's Figure-4
// data flow (two users, one device), detectability smoke test, VT-HI vs
// PT-HI cost comparison on the simulator, and multi-block parity recovery.

#include <gtest/gtest.h>

#include <algorithm>

#include "stash/ecc/parity.hpp"
#include "stash/nand/chip.hpp"
#include "stash/pthi/pthi.hpp"
#include "stash/svm/features.hpp"
#include "stash/svm/svm.hpp"
#include "stash/vthi/codec.hpp"

namespace stash {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;

HidingKey key_of(const std::string& passphrase) {
  return HidingKey::from_passphrase(passphrase, "integration-salt", 200);
}

Geometry integration_geometry() {
  Geometry geom;
  geom.blocks = 16;
  geom.pages_per_block = 16;
  geom.cells_per_page = 8192;
  return geom;
}

TEST(Integration, TwoUsersOneDevice) {
  // NU stores public data; HU hides a payload inside it; NU's view of the
  // device is bit-identical before and after; HU recovers the payload.
  FlashChip chip(integration_geometry(), NoiseModel::vendor_a(), 201);
  const auto nu_data = chip.program_block_random(0, 2011);
  ASSERT_FALSE(nu_data.empty());

  std::vector<std::vector<std::uint8_t>> nu_view_before;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    nu_view_before.push_back(chip.read_page(0, p));
  }

  vthi::VthiCodec hu(chip, key_of("the hiding user"));
  const std::string message = "meet at the usual place at midnight";
  const std::vector<std::uint8_t> payload(message.begin(), message.end());
  ASSERT_TRUE(hu.hide(0, payload).is_ok());

  // NU reads her data with no key and no awareness of the hidden payload.
  std::size_t flips = 0;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    const auto after = chip.read_page(0, p);
    for (std::size_t c = 0; c < after.size(); ++c) {
      flips += (after[c] ^ nu_view_before[p][c]) & 1;
    }
  }
  EXPECT_LE(flips, 4u);

  // HU recovers the message.
  const auto revealed = hu.reveal(0);
  ASSERT_TRUE(revealed.is_ok());
  EXPECT_EQ(std::string(revealed.value().begin(), revealed.value().end()),
            message);
}

TEST(Integration, AdversaryWithSvmCannotDetectMatchedWear) {
  // Miniature Fig. 10 at the matched-PEC operating point: blocks with and
  // without hidden data, identical wear, block-histogram features.  The
  // out-of-sample accuracy must hover near a coin flip.
  // Paper-faithful hidden density (~0.2% of cells per hidden page): on
  // 8192-cell pages that is 16 hidden bits per page, embedded through the
  // raw channel.
  FlashChip chip(integration_geometry(), NoiseModel::vendor_a(), 202);
  vthi::VthiChannel channel(chip, key_of("svm-smoke").selection_key());

  svm::Dataset data;
  util::Xoshiro256 rng(202);
  const std::uint32_t blocks = chip.geometry().blocks;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    (void)chip.program_block_random(b, 3000 + b);
    if (b % 2 == 0) {
      for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; p += 2) {
        std::vector<std::uint8_t> bits(16);
        for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng() & 1);
        ASSERT_TRUE(channel.embed(b, p, bits).is_ok());
      }
    }
    data.add(svm::block_histogram_features(chip, b, 64),
             b % 2 == 0 ? +1 : -1);
  }

  svm::StandardScaler scaler;
  scaler.fit(data.x);
  scaler.transform_in_place(data.x);

  svm::SvmConfig config;
  config.kernel = {svm::KernelType::kRbf, 1.0 / 64.0};
  const double cv = svm::cross_validate(data, config, 4);
  EXPECT_GT(cv, 0.1);
  EXPECT_LT(cv, 0.85);  // 16 samples: generous band around a coin flip
}

TEST(Integration, SvmEasilyDetectsWearMismatch) {
  // The Fig. 10 contrast: when "hidden" blocks carry very different wear,
  // the classifier keys on the PEC shift and scores high.
  FlashChip chip(integration_geometry(), NoiseModel::vendor_a(), 203);
  svm::Dataset data;
  for (std::uint32_t b = 0; b < chip.geometry().blocks; ++b) {
    if (b % 2 == 0) {
      ASSERT_TRUE(chip.age_cycles(b, 2500).is_ok());
    }
    (void)chip.program_block_random(b, 4000 + b);
    data.add(svm::block_histogram_features(chip, b, 64),
             b % 2 == 0 ? +1 : -1);
  }
  svm::StandardScaler scaler;
  scaler.fit(data.x);
  scaler.transform_in_place(data.x);
  svm::SvmConfig config;
  config.kernel = {svm::KernelType::kRbf, 1.0 / 64.0};
  const double cv = svm::cross_validate(data, config, 4);
  EXPECT_GT(cv, 0.9);
}

TEST(Integration, VthiBeatsPthiOnEncodeAndDecodeCosts) {
  // Table 1's performance rows, measured end-to-end through the ledger.
  FlashChip chip(integration_geometry(), NoiseModel::vendor_a(), 204);
  const auto key = key_of("cost-comparison");

  // VT-HI: hide + reveal one block.
  (void)chip.program_block_random(0, 5001);
  vthi::VthiCodec vthi_codec(chip, key);
  std::vector<std::uint8_t> payload(vthi_codec.capacity_bytes(), 0x55);
  chip.reset_ledger();
  ASSERT_TRUE(vthi_codec.hide(0, payload).is_ok());
  const double vthi_encode_us = chip.ledger().time_us();
  const double vthi_encode_uj = chip.ledger().energy_uj();
  chip.reset_ledger();
  ASSERT_TRUE(vthi_codec.reveal(0).is_ok());
  const double vthi_decode_us = chip.ledger().time_us();

  // PT-HI: encode + decode the same number of payload bits.
  pthi::PthiCodec pthi_codec(chip, key);
  std::vector<std::uint8_t> bits(
      std::min<std::size_t>(payload.size() * 8,
                            pthi_codec.capacity().bits_per_block),
      1);
  chip.reset_ledger();
  ASSERT_TRUE(pthi_codec.encode_block(1, bits).is_ok());
  const double pthi_encode_us = chip.ledger().time_us();
  const double pthi_encode_uj = chip.ledger().energy_uj();
  chip.reset_ledger();
  ASSERT_TRUE(pthi_codec.decode_block(1, bits.size()).is_ok());
  const double pthi_decode_us = chip.ledger().time_us();

  // Paper's headline ratios: 24x encode, 50x decode, 37x energy.  The
  // simulator need not match exactly, but VT-HI must win by an order of
  // magnitude on every axis.
  EXPECT_GT(pthi_encode_us / vthi_encode_us, 10.0);
  EXPECT_GT(pthi_decode_us / vthi_decode_us, 10.0);
  EXPECT_GT(pthi_encode_uj / vthi_encode_uj, 10.0);
}

TEST(Integration, ParityStripeRecoversLostHiddenBlock) {
  // §8 reliability: RAID-like protection of hidden data across blocks.
  FlashChip chip(integration_geometry(), NoiseModel::vendor_a(), 205);
  vthi::VthiCodec codec(chip, key_of("raid"));
  const std::size_t chunk = codec.capacity_bytes();

  std::vector<std::vector<std::uint8_t>> chunks(4,
                                                std::vector<std::uint8_t>(chunk));
  util::Xoshiro256 rng(205);
  for (auto& c : chunks) {
    for (auto& b : c) b = static_cast<std::uint8_t>(rng());
  }
  const auto parity = ecc::ParityStripe::compute(chunks);

  for (std::uint32_t b = 0; b < 4; ++b) {
    (void)chip.program_block_random(b, 6000 + b);
    ASSERT_TRUE(codec.hide(b, chunks[b]).is_ok());
  }
  (void)chip.program_block_random(4, 6004);
  ASSERT_TRUE(codec.hide(4, parity).is_ok());

  // Block 2 dies (bad block / erased in a panic).
  ASSERT_TRUE(chip.erase_block(2).is_ok());
  ASSERT_FALSE(codec.reveal(2).is_ok());

  // Survivors + parity reconstruct the lost chunk.
  std::vector<std::vector<std::uint8_t>> survivors;
  for (std::uint32_t b = 0; b < 4; ++b) {
    if (b == 2) {
      survivors.push_back(std::vector<std::uint8_t>(chunk, 0));
      continue;
    }
    auto revealed = codec.reveal(b);
    ASSERT_TRUE(revealed.is_ok());
    survivors.push_back(std::move(revealed).take());
  }
  const auto parity_read = codec.reveal(4);
  ASSERT_TRUE(parity_read.is_ok());
  const auto rebuilt =
      ecc::ParityStripe::reconstruct(survivors, parity_read.value(), 2);
  EXPECT_EQ(rebuilt, chunks[2]);
}

TEST(Integration, HiddenDataOnSecondVendorChip) {
  // §8 applicability: the same pipeline works on the vendor-B model.
  Geometry geom = integration_geometry();
  FlashChip chip(geom, NoiseModel::vendor_b(), 206);
  (void)chip.program_block_random(0, 7000);
  vthi::VthiCodec codec(chip, key_of("vendor-b"));
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2, 0x6e);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());
  const auto revealed = codec.reveal(0);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

}  // namespace
}  // namespace stash
