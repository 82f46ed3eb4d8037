// StegoVolume tests: public I/O passthrough, hidden store/load with
// key-only discovery, chunking across blocks, GC rescue + re-embedding,
// skipping a carrier whose embedding fails verification, panic erase, and
// wrong-key behaviour.

#include <gtest/gtest.h>

#include <optional>

#include "stash/fault/plan.hpp"
#include "stash/stego/volume.hpp"

namespace stash::stego {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

HidingKey test_key(std::uint8_t fill = 0x7c) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

Geometry stego_geometry() {
  Geometry geom;
  geom.blocks = 12;
  geom.pages_per_block = 8;
  geom.cells_per_page = 8192;
  return geom;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Fill the public volume far enough that several blocks are fully
/// programmed and eligible to carry hidden chunks.
void fill_public(StegoVolume& volume, std::uint64_t pages, std::uint64_t seed) {
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    ASSERT_TRUE(
        volume.write_public(lpn, page_pattern(volume.page_bits(), seed + lpn))
            .is_ok())
        << "lpn " << lpn;
  }
}

TEST(Stego, PublicReadWritePassthrough) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 111);
  StegoVolume volume(chip, test_key());
  const auto page = page_pattern(volume.page_bits(), 1);
  ASSERT_TRUE(volume.write_public(0, page).is_ok());
  const auto readback = volume.read_public(0);
  ASSERT_TRUE(readback.is_ok());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < page.size(); ++i) {
    diffs += page[i] != readback.value()[i];
  }
  EXPECT_LE(diffs, 2u);
}

TEST(Stego, HiddenStoreLoadRoundTrip) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 112);
  StegoVolume volume(chip, test_key());
  fill_public(volume, 40, 500);

  std::vector<std::uint8_t> secret(volume.hidden_chunk_capacity() + 37);
  util::Xoshiro256 rng(112);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng());

  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  EXPECT_GE(volume.hidden_blocks().size(), 2u);  // needed > 1 chunk
  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
}

TEST(Stego, KeyOnlyMountWithoutState) {
  // A second StegoVolume instance (fresh state, same key) must find the
  // hidden volume purely by scanning and authenticating — the paper's
  // no-persistent-metadata property.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 113);
  std::vector<std::uint8_t> secret(100, 0x5e);
  {
    StegoVolume writer(chip, test_key());
    fill_public(writer, 40, 600);
    ASSERT_TRUE(writer.store_hidden(secret).is_ok());
  }
  StegoVolume reader(chip, test_key());
  const auto loaded = reader.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
}

TEST(Stego, WrongKeyFindsNothing) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 114);
  {
    StegoVolume writer(chip, test_key(0x01));
    fill_public(writer, 40, 700);
    const std::vector<std::uint8_t> secret(64, 0x9f);
    ASSERT_TRUE(writer.store_hidden(secret).is_ok());
  }
  StegoVolume intruder(chip, test_key(0x02));
  const auto loaded = intruder.load_hidden();
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotFound);
}

TEST(Stego, StoreFailsWithoutPublicCover) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 115);
  StegoVolume volume(chip, test_key());
  const std::vector<std::uint8_t> secret(64, 0x11);
  const auto status = volume.store_hidden(secret);
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
}

TEST(Stego, PanicEraseDestroysHiddenVolume) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 116);
  StegoVolume volume(chip, test_key());
  fill_public(volume, 40, 800);
  const std::vector<std::uint8_t> secret(64, 0x2d);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  ASSERT_TRUE(volume.panic_erase().is_ok());
  EXPECT_TRUE(volume.hidden_blocks().empty());
  EXPECT_FALSE(volume.load_hidden().is_ok());
}

TEST(Stego, HiddenDataSurvivesGarbageCollection) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 117);
  ftl::FtlConfig ftl_config;
  ftl_config.overprovision = 0.25;
  StegoVolume volume(chip, test_key(), ftl_config);
  fill_public(volume, 30, 900);

  const std::vector<std::uint8_t> secret(80, 0xc4);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());

  // Churn the public volume hard enough to force GC through the hidden
  // blocks; the rescue/re-embed machinery must keep the secret alive.
  util::Xoshiro256 rng(117);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t lpn = rng.below(30);
    ASSERT_TRUE(
        volume
            .write_public(lpn, page_pattern(volume.page_bits(), 10000 + i))
            .is_ok())
        << "write " << i;
  }
  ASSERT_TRUE(volume.reembed_pending().is_ok());
  EXPECT_EQ(volume.stats().lost_chunks, 0u);
  EXPECT_GT(volume.stats().rescues, 0u);
  EXPECT_GT(volume.stats().reembeds, 0u);

  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
}

TEST(Stego, CarrierThatFailsVerificationIsSkippedAndCounted) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 118);
  StegoVolume volume(chip, test_key());
  fill_public(volume, 40, 950);

  // The first block VT-HI tries to embed into refuses every partial
  // program, so its embedding cannot verify; later carriers are healthy.
  std::optional<std::uint32_t> bad_carrier;
  fault::FaultPlan plan(118);
  plan.fail_when([&](nand::FaultOp op, std::uint32_t block, std::uint32_t) {
    if (op != nand::FaultOp::kPartialProgram &&
        op != nand::FaultOp::kFineProgram) {
      return false;
    }
    if (!bad_carrier) bad_carrier = block;
    return block == *bad_carrier;
  });
  chip.set_fault_injector(&plan);

  const std::vector<std::uint8_t> secret(40, 0x3e);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  ASSERT_TRUE(bad_carrier.has_value());
  EXPECT_GT(plan.stats().predicate_fails, 0u);
  EXPECT_GE(volume.stats().failed_embeds, 1u);
  EXPECT_EQ(volume.stats().lost_chunks, 0u);

  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
  chip.set_fault_injector(nullptr);
}

TEST(Stego, ReplacingThePayloadSupersedesItForAFreshReader) {
  // A second store_hidden is a two-generation replace: the new chunk set
  // embeds (and verifies) while the old stays loadable, then the old
  // carriers are scrubbed with tombstone frames.  A fresh key-only scan
  // afterwards must yield exactly the replacement — before the fix the
  // first generation's chunks survived beside the new one and the scan
  // reassembled a mix of generations.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 114);
  const std::vector<std::uint8_t> second(16, 0xc3);
  std::vector<std::uint8_t> first;
  {
    StegoVolume writer(chip, test_key());
    fill_public(writer, 40, 650);
    first.assign(writer.hidden_chunk_capacity() + 10, 0x5a);  // two chunks
    ASSERT_TRUE(writer.store_hidden(first).is_ok());
    ASSERT_TRUE(writer.store_hidden(second).is_ok());
    const auto tracked = writer.load_hidden();
    ASSERT_TRUE(tracked.is_ok()) << tracked.status().to_string();
    EXPECT_EQ(tracked.value(), second);
  }
  StegoVolume reader(chip, test_key());
  const auto loaded = reader.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), second);
}

TEST(Stego, AbortedPrepareKeepsTheOldPayloadLoadable) {
  // prepare/abort is the no-op arm of the two-phase store the device's
  // multi-chip coordinator relies on: after an abort the first generation
  // must still load, tracked and by key-only scan alike.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 115);
  const std::vector<std::uint8_t> kept(40, 0x6b);
  {
    StegoVolume writer(chip, test_key());
    fill_public(writer, 40, 660);
    ASSERT_TRUE(writer.store_hidden(kept).is_ok());
    auto txn = writer.prepare_store_hidden(std::vector<std::uint8_t>(24, 0x11));
    ASSERT_TRUE(txn.is_ok()) << txn.status().to_string();
    ASSERT_TRUE(writer.abort_store_hidden(txn.value()).is_ok());
    const auto tracked = writer.load_hidden();
    ASSERT_TRUE(tracked.is_ok()) << tracked.status().to_string();
    EXPECT_EQ(tracked.value(), kept);
  }
  StegoVolume reader(chip, test_key());
  const auto loaded = reader.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), kept);
}

TEST(Stego, ChunkCapacityIsConsistent) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 118);
  StegoVolume volume(chip, test_key());
  EXPECT_GT(volume.hidden_chunk_capacity(), 0u);
  // Header overhead is exactly four bytes of the codec capacity.
  vthi::VthiCodec codec(chip, test_key());
  EXPECT_EQ(volume.hidden_chunk_capacity() + 4, codec.capacity_bytes());
}

}  // namespace
}  // namespace stash::stego
