// ONFI command-layer tests: command/address/data sequencing, status
// register semantics, the PROGRAM+RESET partial-programming primitive the
// paper's §1 practicality claim rests on, and the vendor read-reference
// feature VT-HI's decoder uses.

#include <gtest/gtest.h>

#include <algorithm>

#include "stash/nand/onfi.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/util/bitvec.hpp"
#include "stash/util/stats.hpp"

namespace stash::nand {
namespace {

Geometry onfi_geometry() {
  Geometry geom = Geometry::tiny();
  geom.cells_per_page = 2048;  // divisible by 8: 256 bus bytes per page
  return geom;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Onfi, ReadIdIsStablePerChipAndDistinct) {
  FlashChip a(onfi_geometry(), NoiseModel::vendor_a(), 1);
  FlashChip b(onfi_geometry(), NoiseModel::vendor_a(), 2);
  OnfiDevice da(a), da2(a), db(b);
  EXPECT_EQ(da.id(), da2.id());
  EXPECT_NE(da.id(), db.id());
  // Via the bus: 90h then 5 data-out bytes.
  da.cmd(onfi::kReadId);
  const auto bytes = da.data_out(5);
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), da.id().begin()));
}

TEST(Onfi, ProgramReadRoundTripThroughBus) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 3);
  OnfiDevice dev(chip);
  const auto data = random_bytes(dev.page_bytes(), 3);
  ASSERT_TRUE(dev.program_page(0, 0, data).is_ok());
  EXPECT_TRUE(dev.status() & onfi::kStatusReady);
  EXPECT_FALSE(dev.status() & onfi::kStatusFail);

  const auto readback = dev.read_page(0, 0);
  ASSERT_EQ(readback.size(), data.size());
  std::size_t bit_errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    bit_errors += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(data[i] ^ readback[i])));
  }
  EXPECT_LE(bit_errors, 2u);
}

TEST(Onfi, StatusFailOnBadSequencing) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 4);
  OnfiDevice dev(chip);
  // Confirm without address cycles.
  dev.cmd(onfi::kRead);
  dev.cmd(onfi::kReadConfirm);
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
  // A fresh command clears the failure.
  dev.cmd(onfi::kRead);
  EXPECT_FALSE(dev.status() & onfi::kStatusFail);
}

TEST(Onfi, ProgramFailSurfacesInStatus) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 5);
  OnfiDevice dev(chip);
  const auto data = random_bytes(dev.page_bytes(), 5);
  ASSERT_TRUE(dev.program_page(0, 0, data).is_ok());
  // Reprogramming the same page violates the no-in-place-update rule.
  EXPECT_FALSE(dev.program_page(0, 0, data).is_ok());
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
}

TEST(Onfi, EraseBlockThroughBus) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 6);
  OnfiDevice dev(chip);
  const auto data = random_bytes(dev.page_bytes(), 6);
  ASSERT_TRUE(dev.program_page(0, 0, data).is_ok());
  ASSERT_TRUE(dev.erase_block(0).is_ok());
  EXPECT_EQ(chip.pec(0), 1u);
  // All bytes read as 0xFF after erase (all cells '1').
  const auto readback = dev.read_page(0, 0);
  for (std::uint8_t b : readback) EXPECT_EQ(b, 0xFF);
}

TEST(Onfi, PartialProgramViaProgramPlusReset) {
  // The paper's §1 primitive: a PROGRAM aborted by RESET leaves the target
  // cells partially charged — above erased levels, below programmed ones.
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 7);
  OnfiDevice dev(chip);

  // Target pattern: first 64 cells toward '0', rest untouched.
  std::vector<std::uint8_t> pattern(dev.page_bytes(), 0xFF);
  for (int i = 0; i < 8; ++i) pattern[static_cast<std::size_t>(i)] = 0x00;

  const auto before = chip.probe_voltages(0, 0);
  ASSERT_TRUE(dev.partial_program_page(0, 0, pattern, 0.5).is_ok());
  const auto after = chip.probe_voltages(0, 0);

  util::RunningStats targeted, untouched;
  for (std::size_t c = 0; c < 64; ++c) targeted.add(after[c] - before[c]);
  for (std::size_t c = 64; c < after.size(); ++c) {
    untouched.add(after[c] - before[c]);
  }
  EXPECT_GT(targeted.mean(), 2.0);   // partial charge added
  EXPECT_LT(targeted.mean(), 15.0);  // nowhere near a full program (~140)
  EXPECT_NEAR(untouched.mean(), 0.0, 0.5);
  // The page still reads as fully erased at the public reference.
  const auto readback = dev.read_page(0, 0);
  for (std::uint8_t b : readback) EXPECT_EQ(b, 0xFF);
}

TEST(Onfi, AbortFractionScalesCharge) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 8);
  OnfiDevice dev(chip);
  std::vector<std::uint8_t> pattern(dev.page_bytes(), 0xFF);
  pattern[0] = 0x00;

  const auto before0 = chip.probe_voltages(0, 0);
  ASSERT_TRUE(dev.partial_program_page(0, 0, pattern, 0.25).is_ok());
  const auto early = chip.probe_voltages(0, 0);
  ASSERT_TRUE(dev.partial_program_page(0, 1, pattern, 0.9).is_ok());
  const auto before1_cells = chip.probe_voltages(0, 1);

  double early_gain = 0.0, late_gain = 0.0;
  for (int c = 0; c < 8; ++c) {
    early_gain += early[c] - before0[c];
  }
  // Compare against a fresh page with a later abort: larger mean charge.
  FlashChip chip2(onfi_geometry(), NoiseModel::vendor_a(), 8);
  OnfiDevice dev2(chip2);
  const auto b2 = chip2.probe_voltages(0, 0);
  ASSERT_TRUE(dev2.partial_program_page(0, 0, pattern, 0.9).is_ok());
  const auto a2 = chip2.probe_voltages(0, 0);
  for (int c = 0; c < 8; ++c) late_gain += a2[c] - b2[c];
  EXPECT_GT(late_gain, early_gain);
  (void)before1_cells;
}

TEST(Onfi, ReadReferenceShiftChangesDecodedBits) {
  // VT-HI's decoder path: SET FEATURES moves the read threshold so hidden
  // levels inside the erased band become visible.
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 9);
  OnfiDevice dev(chip);

  // Push a few cells just above level 34 (like hidden '0' bits).
  std::vector<std::uint32_t> cells = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(chip.partial_program(0, 0, cells).is_ok());
  }

  // Standard read: everything is still '1' (0xFF) — public view unchanged.
  const auto normal = dev.read_page(0, 0);
  EXPECT_EQ(normal[0], 0xFF);

  // Shifted read at level 34: the charged cells now decode as '0'.
  dev.set_read_reference(34.0);
  const auto shifted = dev.read_page(0, 0);
  EXPECT_EQ(shifted[0], 0x00);

  // Restore the public reference.
  dev.set_read_reference(127.0);
  const auto restored = dev.read_page(0, 0);
  EXPECT_EQ(restored[0], 0xFF);
}

TEST(Onfi, BusProgramAndReadMatchTheChipCalls) {
  // Twin chips (same seed, same history): PROGRAM through the bus lands the
  // same cells as FlashChip::program_page on the unpacked bits, and READ
  // returns FlashChip::read_page's bits packed MSB first — at the public
  // reference and after SET READ REFERENCE.
  FlashChip bus_chip(onfi_geometry(), NoiseModel::vendor_a(), 14);
  FlashChip twin(onfi_geometry(), NoiseModel::vendor_a(), 14);
  OnfiDevice dev(bus_chip);
  const auto data = random_bytes(dev.page_bytes(), 14);
  ASSERT_TRUE(dev.program_page(0, 0, data).is_ok());
  ASSERT_TRUE(twin.program_page(0, 0, util::bytes_to_bits(data)).is_ok());
  EXPECT_EQ(bus_chip.state_digest(), twin.state_digest());

  EXPECT_EQ(dev.read_page(0, 0), util::bits_to_bytes(twin.read_page(0, 0)));
  for (const double vref : {34.0, 100.0, 200.0}) {
    dev.set_read_reference(vref);
    EXPECT_EQ(dev.read_page(0, 0),
              util::bits_to_bytes(twin.read_page(0, 0, vref)))
        << "vref " << vref;
  }
  EXPECT_EQ(bus_chip.state_digest(), twin.state_digest());
  EXPECT_EQ(bus_chip.ledger().reads, twin.ledger().reads);
}

TEST(Onfi, ShortProgramTransferLeavesTrailingCellsErased) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 15);
  OnfiDevice dev(chip);
  const std::vector<std::uint8_t> half(dev.page_bytes() / 2, 0x00);
  ASSERT_TRUE(dev.program_page(0, 0, half).is_ok());
  const auto readback = dev.read_page(0, 0);
  ASSERT_EQ(readback.size(), dev.page_bytes());
  std::size_t programmed_ones = 0;
  std::size_t erased_zeros = 0;
  for (std::size_t i = 0; i < readback.size(); ++i) {
    const auto ones = static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(readback[i])));
    if (i < half.size()) {
      programmed_ones += ones;
    } else {
      erased_zeros += 8 - ones;
    }
  }
  EXPECT_LE(programmed_ones, 2u);
  EXPECT_LE(erased_zeros, 2u);
}

TEST(Onfi, DataOutBeyondBufferTruncates) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 10);
  OnfiDevice dev(chip);
  dev.cmd(onfi::kReadId);
  const auto bytes = dev.data_out(100);
  EXPECT_EQ(bytes.size(), 5u);
}

TEST(Onfi, EraseWrongAddressCyclesFails) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 11);
  OnfiDevice dev(chip);
  dev.cmd(onfi::kErase);
  dev.addr(0);
  dev.cmd(onfi::kEraseConfirm);  // only one of three cycles given
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
}

TEST(Onfi, UnknownOpcodeFails) {
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 12);
  OnfiDevice dev(chip);
  dev.cmd(0xAB);
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
}

TEST(Onfi, ProtocolErrorsFailAndExplain) {
  // Every protocol violation sets FAIL and leaves a diagnostic in
  // last_error() — instead of a silent bare status bit.
  FlashChip chip(onfi_geometry(), NoiseModel::vendor_a(), 13);
  OnfiDevice dev(chip);

  dev.cmd(0xAB);  // unknown opcode
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
  EXPECT_NE(dev.last_error().find("0xAB"), std::string::npos)
      << dev.last_error();

  dev.cmd(onfi::kRead);  // a fresh command clears failure and message
  EXPECT_FALSE(dev.status() & onfi::kStatusFail);
  EXPECT_TRUE(dev.last_error().empty());
  dev.cmd(onfi::kReadConfirm);  // bad sequencing, distinct error path
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);

  dev.cmd(onfi::kReset);  // back to idle with FAIL clear
  ASSERT_FALSE(dev.status() & onfi::kStatusFail);
  dev.addr(0x12);  // address cycle while idle
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
  EXPECT_NE(dev.last_error().find("address cycle"), std::string::npos)
      << dev.last_error();

  dev.cmd(onfi::kReset);
  ASSERT_FALSE(dev.status() & onfi::kStatusFail);
  const std::uint8_t byte = 0x34;
  dev.data_in(std::span<const std::uint8_t>(&byte, 1));  // data cycle idle
  EXPECT_TRUE(dev.status() & onfi::kStatusFail);
  EXPECT_NE(dev.last_error().find("data cycle"), std::string::npos)
      << dev.last_error();
}

}  // namespace
}  // namespace stash::nand
