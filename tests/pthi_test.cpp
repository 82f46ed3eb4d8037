// PT-HI baseline tests: stress-based encode, race decode round trip,
// destructiveness to public data, persistence of the channel across erase,
// error growth with wear, and cost accounting (the Table 1 inputs).

#include <gtest/gtest.h>

#include "stash/pthi/pthi.hpp"

namespace stash::pthi {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

HidingKey test_key(std::uint8_t fill = 0x6b) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

Geometry pthi_geometry() {
  Geometry geom;
  geom.blocks = 4;
  geom.pages_per_block = 10;
  geom.cells_per_page = 4096;
  return geom;
}

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

TEST(Pthi, CapacityAccounting) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 91);
  PthiCodec codec(chip, test_key());
  const auto cap = codec.capacity();
  EXPECT_EQ(cap.bits_per_page, 4096u / 26u);
  EXPECT_EQ(cap.pages_used, 2u);  // pages 0 and 5 at interval 4
  EXPECT_EQ(cap.bits_per_block, 2u * (4096u / 26u));
}

TEST(Pthi, EncodeDecodeRoundTripOnFreshChip) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 92);
  PthiCodec codec(chip, test_key());
  const auto bits = random_bits(64, 92);
  ASSERT_TRUE(codec.encode_page(0, 0, bits).is_ok());
  const auto decoded = codec.decode_page(0, 0, 64);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    errors += (bits[i] ^ decoded.value()[i]) & 1;
  }
  // Fresh chip: the 625-cycle stress signal dominates; errors are rare.
  EXPECT_LE(errors, 2u);
}

TEST(Pthi, BlockLevelRoundTrip) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 93);
  PthiCodec codec(chip, test_key());
  const auto bits = random_bits(300, 93);
  ASSERT_TRUE(codec.encode_block(0, bits).is_ok());
  const auto decoded = codec.decode_block(0, bits.size());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().size(), bits.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    errors += (bits[i] ^ decoded.value()[i]) & 1;
  }
  EXPECT_LT(static_cast<double>(errors) / 300.0, 0.03);
}

TEST(Pthi, DecodeRequiresErasedPage) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 94);
  PthiCodec codec(chip, test_key());
  const auto bits = random_bits(32, 94);
  ASSERT_TRUE(codec.encode_page(0, 0, bits).is_ok());
  const std::vector<std::uint8_t> data(chip.geometry().cells_per_page, 0);
  ASSERT_TRUE(chip.program_page(0, 0, data).is_ok());
  const auto decoded = codec.decode_page(0, 0, 32);
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Pthi, DecodeDestroysPublicData) {
  // Table 1 "repeated reads -": decoding wipes co-located public data.
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 95);
  PthiCodec codec(chip, test_key());
  const auto bits = random_bits(64, 95);
  ASSERT_TRUE(codec.encode_block(0, bits).is_ok());
  // Normal user stores public data over the (erased) block.
  const auto written = chip.program_block_random(0, 955);
  ASSERT_FALSE(written.empty());

  const auto decoded = codec.decode_block(0, 64);
  ASSERT_TRUE(decoded.is_ok());
  // Public data is gone: the block was erased and partially programmed.
  const auto readback = chip.read_page(0, 1);
  std::size_t diffs = 0;
  for (std::size_t c = 0; c < readback.size(); ++c) {
    diffs += readback[c] != written[1][c];
  }
  EXPECT_GT(diffs, readback.size() / 4);
}

TEST(Pthi, ChannelSurvivesPublicOverwriteAndErase) {
  // Table 1 "public data integrity +": the stress channel is physical wear
  // and persists through erase cycles and public rewrites.
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 96);
  PthiCodec codec(chip, test_key());
  const auto bits = random_bits(64, 96);
  ASSERT_TRUE(codec.encode_block(0, bits).is_ok());
  (void)chip.program_block_random(0, 966);
  ASSERT_TRUE(chip.erase_block(0).is_ok());
  (void)chip.program_block_random(0, 967);

  const auto decoded = codec.decode_block(0, 64);
  ASSERT_TRUE(decoded.is_ok());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    errors += (bits[i] ^ decoded.value()[i]) & 1;
  }
  EXPECT_LE(errors, 4u);
}

TEST(Pthi, ErrorsGrowWithWear) {
  // §2/§8: PT-HI's BER rises sharply after a few hundred public PEC.
  auto ber_at = [](std::uint32_t pec, std::uint64_t seed) {
    FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), seed);
    PthiCodec codec(chip, test_key());
    const auto bits = random_bits(128, seed);
    EXPECT_TRUE(codec.encode_page(0, 0, bits).is_ok());
    if (pec) {
      EXPECT_TRUE(chip.age_cycles(0, pec).is_ok());
    }
    const auto decoded = codec.decode_page(0, 0, 128);
    EXPECT_TRUE(decoded.is_ok());
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      errors += (bits[i] ^ decoded.value()[i]) & 1;
    }
    return static_cast<double>(errors) / 128.0;
  };
  const double fresh = ber_at(0, 97);
  const double worn = ber_at(2500, 97);
  EXPECT_LT(fresh, 0.03);
  EXPECT_GT(worn, fresh + 0.02);
}

TEST(Pthi, EncodeCostsDwarfVthi) {
  // The §8 cost asymmetry: PT-HI encoding pays hundreds of programs.
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 98);
  PthiCodec codec(chip, test_key());
  chip.reset_ledger();
  const auto bits = random_bits(64, 98);
  ASSERT_TRUE(codec.encode_block(0, bits).is_ok());
  EXPECT_GE(chip.ledger().programs, 625u);
  EXPECT_GE(chip.ledger().erases, 625u);
  // Encoding 64 bits took > 0.5 seconds of device time.
  EXPECT_GT(chip.ledger().time_us(), 500000.0);
}

TEST(Pthi, RejectsOversizedPayloads) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 99);
  PthiCodec codec(chip, test_key());
  const auto cap = codec.capacity();
  const auto too_many = random_bits(cap.bits_per_page + 1, 99);
  EXPECT_EQ(codec.encode_page(0, 0, too_many).code(), ErrorCode::kNoSpace);
  const auto too_many_block = random_bits(cap.bits_per_block + 1, 99);
  EXPECT_EQ(codec.encode_block(0, too_many_block).code(), ErrorCode::kNoSpace);
}

TEST(Pthi, KeyedGroupsDifferAcrossKeys) {
  FlashChip chip(pthi_geometry(), NoiseModel::vendor_a(), 100);
  PthiCodec a(chip, test_key(0x41));
  PthiCodec b(chip, test_key(0x42));
  const auto bits = random_bits(64, 100);
  ASSERT_TRUE(a.encode_page(0, 0, bits).is_ok());
  const auto wrong = b.decode_page(0, 0, 64);
  ASSERT_TRUE(wrong.is_ok());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    mismatches += (bits[i] ^ wrong.value()[i]) & 1;
  }
  // Wrong key reads unrelated groups: near coin-flip agreement.
  EXPECT_GT(mismatches, 16u);
  EXPECT_LT(mismatches, 48u);
}

}  // namespace
}  // namespace stash::pthi
