// StegoVolume tests: public I/O passthrough, hidden store/load with
// key-only discovery, chunking across blocks, GC rescue + re-embedding,
// skipping a carrier whose embedding fails verification, panic erase, and
// wrong-key behaviour.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "stash/fault/plan.hpp"
#include "stash/stego/volume.hpp"
#include "stash/util/wire.hpp"

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

TEST(Stego, PanicEraseReportsAScanTheChipDidNotServe) {
  // Carriers forgotten, and the scan that looks for them cannot read block
  // 1: panic_erase must not report the hidden volume destroyed while a
  // chunk it could not see survives.  Once the fault clears, a retry
  // erases it.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 113);
  StegoVolume volume(chip, test_key());
  fill_public(volume, 40, 600);
  const std::vector<std::uint8_t> secret(volume.hidden_chunk_capacity() + 10,
                                         0x71);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  ASSERT_EQ(volume.hidden_blocks(), (std::set<std::uint32_t>{0, 1}));
  volume.forget_carriers(false);

  fault::FaultPlan plan(113);
  plan.fail_when([](nand::FaultOp op, std::uint32_t block, std::uint32_t) {
    return op == nand::FaultOp::kRead && block == 1;
  });
  chip.set_fault_injector(&plan);
  const Status first = volume.panic_erase();
  chip.set_fault_injector(nullptr);
  EXPECT_FALSE(first.is_ok());
  EXPECT_EQ(chip.pec(1), 0u);

  ASSERT_TRUE(volume.panic_erase().is_ok());
  EXPECT_GT(chip.pec(0), 0u);
  EXPECT_GT(chip.pec(1), 0u);
  StegoVolume reader(chip, test_key());
  EXPECT_EQ(reader.load_hidden().status().code(), ErrorCode::kNotFound);
}

TEST(Stego, HiddenDataSurvivesGarbageCollection) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 117);
  StegoConfig config;
  config.ftl.overprovision = 0.25;
  StegoVolume volume(chip, test_key(), config);
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

/// HiddenDataSurvivesGarbageCollection's churn with one transient read
/// fault: the first probe of page 0 of a carrier after the store fails,
/// once.  The GC hook meets it first: in the rescue reveal of its victim
/// or, after forget_carriers, in the key-only scan that looks for the
/// carriers.  Either way GC must keep the chunk: no erase until a pass
/// whose reads were served.
void churn_past_one_carrier_read_fault(bool forget) {
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 117);
  StegoConfig config;
  config.ftl.overprovision = 0.25;
  StegoVolume volume(chip, test_key(), config);
  fill_public(volume, 30, 900);
  const std::vector<std::uint8_t> secret(80, 0xc4);
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  const std::set<std::uint32_t> carriers = volume.hidden_blocks();
  ASSERT_EQ(carriers, (std::set<std::uint32_t>{0, 1}));
  if (forget) volume.forget_carriers(true);

  std::optional<std::uint32_t> faulted;
  fault::FaultPlan plan(117);
  plan.fail_when(
      [&](nand::FaultOp op, std::uint32_t block, std::uint32_t page) {
        if (faulted || op != nand::FaultOp::kRead || page != 0 ||
            !carriers.count(block)) {
          return false;
        }
        faulted = block;
        return true;
      });
  chip.set_fault_injector(&plan);
  util::Xoshiro256 rng(117);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t lpn = rng.below(30);
    ASSERT_TRUE(
        volume
            .write_public(lpn, page_pattern(volume.page_bits(), 10000 + i))
            .is_ok())
        << "write " << i;
  }
  chip.set_fault_injector(nullptr);
  ASSERT_TRUE(faulted.has_value());
  EXPECT_EQ(plan.stats().predicate_fails, 1u);
  EXPECT_GT(chip.pec(*faulted), 0u);  // collected by a later pass

  ASSERT_TRUE(volume.reembed_pending().is_ok());
  EXPECT_EQ(volume.stats().lost_chunks, 0u);
  EXPECT_GT(volume.stats().rescues, 0u);
  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
}

TEST(Stego, GcKeepsACarrierItsRescueCouldNotRead) {
  churn_past_one_carrier_read_fault(/*forget=*/false);
}

TEST(Stego, GcKeepsACarrierTheScanCouldNotRead) {
  churn_past_one_carrier_read_fault(/*forget=*/true);
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

TEST(Stego, FailedReplaceKeepsTheOldPayloadLoadable) {
  // A replacement whose second chunk finds no carrier that verifies must
  // scrub the chunk it already embedded and keep the first generation:
  // tracked and by key-only scan alike, the old payload still loads.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 115);
  const std::vector<std::uint8_t> kept(40, 0x6b);
  {
    StegoVolume writer(chip, test_key());
    fill_public(writer, 40, 660);
    ASSERT_TRUE(writer.store_hidden(kept).is_ok());
    const std::set<std::uint32_t> old_carriers = writer.hidden_blocks();

    // Every embed after the first new carrier's fails its programs.
    std::optional<std::uint32_t> first_new;
    fault::FaultPlan plan(115);
    plan.fail_when([&](nand::FaultOp op, std::uint32_t block, std::uint32_t) {
      if (op != nand::FaultOp::kPartialProgram &&
          op != nand::FaultOp::kFineProgram) {
        return false;
      }
      if (!first_new) first_new = block;
      return block != *first_new;
    });
    chip.set_fault_injector(&plan);
    const std::vector<std::uint8_t> replacement(
        writer.hidden_chunk_capacity() + 8, 0x11);  // two chunks
    EXPECT_EQ(writer.store_hidden(replacement).code(), ErrorCode::kNoSpace);
    chip.set_fault_injector(nullptr);
    ASSERT_TRUE(first_new.has_value());
    EXPECT_EQ(writer.hidden_blocks(), old_carriers);

    const auto tracked = writer.load_hidden();
    ASSERT_TRUE(tracked.is_ok()) << tracked.status().to_string();
    EXPECT_EQ(tracked.value(), kept);
  }
  StegoVolume reader(chip, test_key());
  const auto loaded = reader.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), kept);
}

TEST(Stego, ThreeChunkReplaceKnownAnswer) {
  // Known answer for one volume on a fixed-seed chip: a one-chunk store
  // replaced by a three-chunk one.  The chip digest covers every cell the
  // embeds and tombstone scrubs touched and the cost ledger of every probe,
  // so any change to how a volume chunks, places, verifies or releases a
  // generation (or how often it scans) moves it.
  FlashChip chip(stego_geometry(), NoiseModel::vendor_a(), 119);
  StegoVolume volume(chip, test_key());
  fill_public(volume, 40, 1000);
  ASSERT_TRUE(volume.store_hidden(std::vector<std::uint8_t>(30, 0x4b)).is_ok());

  std::vector<std::uint8_t> secret(2 * volume.hidden_chunk_capacity() + 21);
  util::Xoshiro256 rng(119);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng());
  ASSERT_TRUE(volume.store_hidden(secret).is_ok());
  EXPECT_EQ(volume.hidden_blocks(), (std::set<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(chip.state_digest(), 0x7a34c20de005e34dULL);

  const auto loaded = volume.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
  EXPECT_EQ(util::fnv1a(loaded.value()), 0x348f4811ab1a82cfULL);
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
