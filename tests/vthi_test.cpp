// VT-HI core tests: channel selection determinism and stability, the
// Algorithm-1 embed loop, raw BER behaviour, codec round trips across
// configurations (parameterized), key separation, public-data preservation,
// capacity accounting, erase semantics, and the enhanced configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "stash/crypto/chacha20.hpp"
#include "stash/crypto/sha256.hpp"
#include "stash/ecc/bch.hpp"
#include "stash/nand/chip.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/bitvec.hpp"
#include "stash/vthi/codec.hpp"

namespace stash::vthi {
namespace {

using crypto::HidingKey;
using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

HidingKey test_key(std::uint8_t fill = 0x5a) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

Geometry vthi_geometry() {
  Geometry geom;
  geom.blocks = 8;
  geom.pages_per_block = 16;
  geom.cells_per_page = 8192;
  return geom;
}

std::vector<std::uint8_t> random_hidden_bits(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

// ---------------- Channel ----------------

TEST(Channel, ConstructorThrowsOnInvalidConfig) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 60);
  const auto key = test_key().selection_key();
  // Zero PP steps would make every embed a silent no-op.
  EXPECT_THROW(VthiChannel(chip, key, ChannelConfig{.max_pp_steps = 0}),
               std::invalid_argument);
  // A threshold at or above the selection guard leaves no cell able to
  // decode as hidden '0'.
  EXPECT_THROW(VthiChannel(chip, key, ChannelConfig{.vth = 95.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(VthiChannel(chip, key, ChannelConfig{}));
}

struct InvalidChannelCase {
  ChannelConfig config;
  const char* name;
};

class InvalidChannelConfig
    : public ::testing::TestWithParam<InvalidChannelCase> {};

TEST_P(InvalidChannelConfig, RejectedByEveryEntryPoint) {
  const ChannelConfig& channel = GetParam().config;
  EXPECT_EQ(channel.validate().code(), ErrorCode::kInvalidArgument);
  // VthiConfig::validate delegates to the channel check.
  VthiConfig config = VthiConfig::production();
  config.channel = channel;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 60);
  EXPECT_THROW(VthiChannel(chip, test_key().selection_key(), channel),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, InvalidChannelConfig,
    ::testing::Values(
        InvalidChannelCase{ChannelConfig{.vth = 0.0}, "vth_zero"},
        InvalidChannelCase{ChannelConfig{.vth = -5.0}, "vth_negative"},
        InvalidChannelCase{
            ChannelConfig{.vth = std::numeric_limits<double>::quiet_NaN()},
            "vth_nan"},
        InvalidChannelCase{ChannelConfig{.vth = kSelectGuard}, "vth_at_guard"},
        InvalidChannelCase{ChannelConfig{.max_pp_steps = 0}, "pp_steps_zero"},
        InvalidChannelCase{ChannelConfig{.max_pp_steps = -1},
                           "pp_steps_negative"}),
    [](const ::testing::TestParamInfo<InvalidChannelCase>& info) {
      return info.param.name;
    });

TEST(Channel, BothOperatingPointsAndTheGuardEdgeValidate) {
  EXPECT_TRUE(VthiConfig::production().validate().is_ok());
  EXPECT_TRUE(VthiConfig::enhanced().validate().is_ok());
  // The open interval (0, kSelectGuard) admits values right below the guard.
  EXPECT_TRUE((ChannelConfig{.vth = kSelectGuard - 0.5}).validate().is_ok());
  EXPECT_TRUE((ChannelConfig{.max_pp_steps = 1}).validate().is_ok());
}

TEST(Channel, SelectionIsDeterministicAndDistinct) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 61);
  (void)chip.program_block_random(0, 1);
  VthiChannel channel(chip, test_key().selection_key());
  auto first = channel.select_cells(0, 0, 128);
  auto second = channel.select_cells(0, 0, 128);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value(), second.value());
  const std::set<std::uint32_t> unique(first.value().begin(),
                                       first.value().end());
  EXPECT_EQ(unique.size(), 128u);
}

TEST(Channel, SelectionDependsOnPageAndKey) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 62);
  (void)chip.program_block_random(0, 2);
  VthiChannel a(chip, test_key(0x01).selection_key());
  VthiChannel b(chip, test_key(0x02).selection_key());
  const auto page0 = a.select_cells(0, 0, 64).value();
  const auto page1 = a.select_cells(0, 1, 64).value();
  const auto other_key = b.select_cells(0, 0, 64).value();
  EXPECT_NE(page0, page1);
  EXPECT_NE(page0, other_key);
}

TEST(Channel, SelectionAsksForEveryEligibleCell) {
  // Worst case for the selection walk: request as many cells as the page
  // can possibly offer.  The old rejection-sampled walk degenerated into a
  // coupon-collector tail here (unbounded draws); the Fisher-Yates walk
  // visits each cell exactly once, so this completes after at most `cells`
  // DRBG draws and returns every eligible cell.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 64);
  (void)chip.program_block_random(0, 9);
  VthiChannel channel(chip, test_key().selection_key());
  const auto volts = chip.probe_voltages(0, 0);
  std::size_t eligible = 0;
  for (int v : volts) {
    if (static_cast<double>(v) < kSelectGuard) ++eligible;
  }
  ASSERT_GT(eligible, 0u);
  const auto all = channel.select_cells(
      0, 0, static_cast<std::uint32_t>(eligible));
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value().size(), eligible);
  const std::set<std::uint32_t> unique(all.value().begin(),
                                       all.value().end());
  EXPECT_EQ(unique.size(), eligible) << "selection repeated a cell";
  // One more than the page holds must fail cleanly, not spin.
  const auto too_many = channel.select_cells(
      0, 0, static_cast<std::uint32_t>(eligible) + 1);
  EXPECT_FALSE(too_many.is_ok());
  EXPECT_EQ(too_many.status().code(), ErrorCode::kNoSpace);
}

TEST(Channel, EncoderAndDecoderDeriveIdenticalSelection) {
  // The decoder re-derives the encoder's cell list from its own probe; the
  // permutation must therefore be a pure function of (key, block, page,
  // eligibility), surviving the voltage changes the embed itself causes.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 65);
  (void)chip.program_block_random(0, 10);
  VthiChannel channel(chip, test_key().selection_key());
  const auto before = channel.select_cells(0, 0, 200).value();
  auto bits = random_hidden_bits(200, 77);
  ASSERT_TRUE(channel.embed(0, 0, bits).is_ok());
  const auto after = channel.select_cells(0, 0, 200).value();
  EXPECT_EQ(before, after);
}

TEST(Channel, SelectedCellsAreErasedLevel) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 63);
  (void)chip.program_block_random(0, 3);
  VthiChannel channel(chip, test_key().selection_key());
  const auto cells = channel.select_cells(0, 0, 256).value();
  const auto volts = chip.probe_voltages(0, 0);
  for (std::uint32_t c : cells) {
    EXPECT_LT(volts[c], 90) << "cell " << c;
  }
}

TEST(Channel, EmbedConvergesWithinTenSteps) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 64);
  (void)chip.program_block_random(0, 4);
  VthiChannel channel(chip, test_key().selection_key());
  const auto bits = random_hidden_bits(256, 4);
  auto session = channel.embed(0, 0, bits);
  ASSERT_TRUE(session.is_ok());
  EXPECT_LE(session.value().steps_taken, 10);
  EXPECT_GE(session.value().steps_taken, 1);
}

TEST(Channel, RawBerBelowOnePercentAtProductionConfig) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 65);
  VthiChannel channel(chip, test_key().selection_key());
  std::size_t errors = 0, total = 0;
  for (std::uint32_t b = 0; b < 4; ++b) {
    (void)chip.program_block_random(b, 100 + b);
    for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; p += 2) {
      const auto bits = random_hidden_bits(256, 1000 + b * 100 + p);
      ASSERT_TRUE(channel.embed(b, p, bits).is_ok());
      const auto readback = channel.extract(b, p, 256).value();
      for (std::size_t i = 0; i < bits.size(); ++i) {
        errors += (bits[i] ^ readback[i]) & 1;
      }
      total += bits.size();
    }
  }
  const double ber = static_cast<double>(errors) / static_cast<double>(total);
  // Paper §6.3/§8: raw hidden BER converges below ~1% after ten PP steps.
  EXPECT_LT(ber, 0.02);
  EXPECT_GT(total, 4000u);
}

TEST(Channel, BerDropsAsStepsIncrease) {
  // Fig. 6 shape: BER falls monotonically (in the large) with PP steps.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 66);
  (void)chip.program_block_random(0, 5);
  VthiChannel channel(chip, test_key().selection_key());
  const auto bits = random_hidden_bits(256, 5);
  auto session = channel.begin(0, 0, bits).take();

  std::vector<double> ber_by_step;
  for (int s = 0; s < 10; ++s) {
    (void)channel.step(session).value();
    const auto readback = channel.extract(0, 0, 256).value();
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      errors += (bits[i] ^ readback[i]) & 1;
    }
    ber_by_step.push_back(static_cast<double>(errors) / 256.0);
  }
  EXPECT_GT(ber_by_step.front(), ber_by_step.back());
  EXPECT_LT(ber_by_step.back(), 0.03);
  EXPECT_GT(ber_by_step.front(), 0.05);  // one step cannot finish the job
}

TEST(Channel, ExtractWithWrongKeyIsGarbage) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 67);
  (void)chip.program_block_random(0, 6);
  VthiChannel good(chip, test_key(0x11).selection_key());
  VthiChannel bad(chip, test_key(0x22).selection_key());
  const auto bits = random_hidden_bits(256, 6);
  ASSERT_TRUE(good.embed(0, 0, bits).is_ok());
  const auto wrong = bad.extract(0, 0, 256).value();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    mismatches += (bits[i] ^ wrong[i]) & 1;
  }
  // With the wrong key the extracted cells are unrelated: hidden '0's are
  // invisible, so the read is heavily biased toward '1' — what matters is
  // that roughly half the payload bits mismatch (those that were '0').
  EXPECT_GT(mismatches, 64u);
}

TEST(Channel, NaturalCensusMatchesCalibration) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 68);
  (void)chip.program_block_random(0, 7);
  VthiChannel channel(chip, test_key().selection_key());
  const auto census = channel.natural_above_threshold(0, 0).value();
  const double fraction = static_cast<double>(census) /
                          chip.geometry().cells_per_page;
  // Scaled equivalent of the paper's ">= 700 of 144384 cells" census.
  EXPECT_GT(fraction, 0.002);
  EXPECT_LT(fraction, 0.04);
}

TEST(Channel, TooManyBitsForPageFails) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 69);
  (void)chip.program_block_random(0, 8);
  VthiChannel channel(chip, test_key().selection_key());
  // More hidden bits than erased-level cells in the page can ever supply.
  const auto bits = random_hidden_bits(chip.geometry().cells_per_page, 8);
  const auto session = channel.begin(0, 0, bits);
  EXPECT_FALSE(session.is_ok());
  EXPECT_EQ(session.status().code(), ErrorCode::kNoSpace);
}

// ---------------- Codec (parameterized round trips) ----------------

struct CodecCase {
  std::uint32_t bits_per_page;
  const char* name;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, HideRevealRecoversPayload) {
  const auto param = GetParam();
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 70);
  (void)chip.program_block_random(1, 9);

  VthiConfig config = VthiConfig::production();
  config.hidden_bits_per_page = param.bits_per_page;
  VthiCodec codec(chip, test_key(), config);

  ASSERT_GT(codec.capacity_bytes(), 8u);
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2);
  util::Xoshiro256 rng(9);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

  const auto report = codec.hide(1, payload);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().payload_bytes, payload.size());

  const auto revealed = codec.reveal(1);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CodecRoundTrip,
    ::testing::Values(CodecCase{256, "production"}, CodecCase{128, "small"},
                      CodecCase{512, "paper_max"}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

TEST(Codec, FullCapacityPayloadRoundTrips) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 71);
  (void)chip.program_block_random(2, 10);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes(), 0xab);
  ASSERT_TRUE(codec.hide(2, payload).is_ok());
  const auto revealed = codec.reveal(2);
  ASSERT_TRUE(revealed.is_ok());
  EXPECT_EQ(revealed.value(), payload);
}

TEST(Codec, OversizedPayloadRejected) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 72);
  (void)chip.program_block_random(0, 11);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes() + 1, 0);
  EXPECT_EQ(codec.hide(0, payload).status().code(), ErrorCode::kNoSpace);
}

TEST(Codec, RefusesUnprogrammedPages) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 73);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(16, 0x1);
  EXPECT_EQ(codec.hide(0, payload).status().code(), ErrorCode::kInvalidArgument);
}

TEST(Codec, PublicDataUnchangedByHiding) {
  // The core VT-HI property: hiding must not alter a single public bit.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 74);
  const auto written = chip.program_block_random(3, 12);
  std::vector<std::vector<std::uint8_t>> before;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    before.push_back(chip.read_page(3, p));
  }
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes(), 0xcd);
  ASSERT_TRUE(codec.hide(3, payload).is_ok());
  std::size_t flips = 0;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; ++p) {
    const auto after = chip.read_page(3, p);
    for (std::size_t c = 0; c < after.size(); ++c) {
      flips += (after[c] ^ before[p][c]) & 1;
    }
  }
  // PP disturb may flip a stray marginal public cell, nothing systematic.
  EXPECT_LE(flips, 4u);
  (void)written;
}

TEST(Codec, WrongKeyFailsAuthentication) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 75);
  (void)chip.program_block_random(4, 13);
  VthiCodec good(chip, test_key(0x31));
  std::vector<std::uint8_t> payload(64, 0x44);
  ASSERT_TRUE(good.hide(4, payload).is_ok());

  VthiCodec bad(chip, test_key(0x32));
  const auto revealed = bad.reveal(4);
  ASSERT_FALSE(revealed.is_ok());
  EXPECT_TRUE(revealed.status().code() == ErrorCode::kAuthFailure ||
              revealed.status().code() == ErrorCode::kUncorrectable);
}

TEST(Codec, RevealOnBlockWithoutHiddenDataFails) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 76);
  (void)chip.program_block_random(5, 14);
  VthiCodec codec(chip, test_key());
  EXPECT_FALSE(codec.reveal(5).is_ok());
}

TEST(Codec, RevealOfANonCarrierBlockWalksTheWholeRetryLadder) {
  // A key-only scan rejects every block that holds no frame.  The reject
  // must still read every hidden page on every rung of the read-retry
  // ladder and report one BCH decode per rung.  Each decode span counts
  // only the codeword the length check read: the first of the block's two
  // (32 pages x 256 hidden bits = 8192 coded bits), not the whole block,
  // so ecc.decode_mbps measures what was decoded.
  FlashChip chip(Geometry{}, NoiseModel::vendor_a(), 78);
  (void)chip.program_block_random(2, 16);
  VthiCodec codec(chip, test_key());
  const auto pages = codec.hidden_pages().size();
  ASSERT_EQ(pages, 32u);

  auto& tracer = trace::Tracer::global();
  tracer.disable();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  const auto revealed = [&] {
    const trace::ContextGuard guard(trace::make_root(
        1, trace::Stage::kDevRequest, trace::Op::kExtract, 2));
    return codec.reveal(2);
  }();
  tracer.disable();
  const auto spans = tracer.collect();
  tracer.clear();

  ASSERT_FALSE(revealed.is_ok());
  EXPECT_EQ(revealed.status().code(), ErrorCode::kAuthFailure);
  EXPECT_EQ(revealed.status().message(),
            "hidden frame length invalid (wrong key or data loss)");
  std::size_t probes = 0;
  std::size_t decodes = 0;
  for (const trace::SpanRecord& span : spans) {
    if (span.stage == trace::Stage::kNandProbe) ++probes;
    if (span.stage == trace::Stage::kEccDecode) {
      ++decodes;
      EXPECT_EQ(span.key, 2u);
      EXPECT_EQ(span.bytes, pages * 256 / 8 / 2);
    }
  }
  constexpr std::size_t kRungs = 1 + kMaxReadRetries;
  EXPECT_EQ(probes, pages * kRungs);
  EXPECT_EQ(decodes, kRungs);
}

// The hidden frame format written out independently of VthiCodec:
// [len u32 LE][payload] under ChaCha20 (nonce "vthi" + block), a 16-byte
// HMAC-SHA256 tag over [block u32 LE][ciphertext], then padding up to the
// layout's data bits.  Reveal reads the length and the MAC-covered bytes
// and nothing after them.

struct ReferenceLayout {
  std::vector<std::uint32_t> pages;
  std::size_t bits_per_page = 0;
  std::size_t total_bits = 0;
  std::size_t data_bits = 0;
  std::vector<std::size_t> data_lens;  // per codeword
  ecc::BchCode bch;
};

ReferenceLayout reference_layout(const VthiCodec& codec) {
  const auto pages = codec.hidden_pages();
  const std::size_t per_page = codec.config().hidden_bits_per_page;
  const std::size_t total = pages.size() * per_page;
  const std::size_t n = (1u << kBchM) - 1;
  const std::size_t codewords = (total + n - 1) / n;
  const int t = ecc::BchCode::pick_t_for_codeword(
      kBchM, (total + codewords - 1) / codewords,
      codec.config().raw_ber_estimate);
  ReferenceLayout lay{pages, per_page, total, 0, {},
                      ecc::BchCode(kBchM, t == 0 ? 1 : t)};
  lay.data_bits = total - codewords * lay.bch.parity_bits();
  for (std::size_t c = 0; c < codewords; ++c) {
    lay.data_lens.push_back(lay.data_bits / codewords +
                            (c < lay.data_bits % codewords ? 1 : 0));
  }
  return lay;
}

std::array<std::uint8_t, 12> reference_nonce(std::uint32_t block) {
  std::array<std::uint8_t, 12> nonce{'v', 't', 'h', 'i'};
  for (int i = 0; i < 4; ++i) {
    nonce[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block >> (8 * i));
  }
  return nonce;
}

crypto::Digest256 reference_tag(const HidingKey& key, std::uint32_t block,
                                std::span<const std::uint8_t> ciphertext) {
  std::vector<std::uint8_t> input(4);
  for (int i = 0; i < 4; ++i) {
    input[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block >> (8 * i));
  }
  input.insert(input.end(), ciphertext.begin(), ciphertext.end());
  return crypto::hmac_sha256(key.mac_key(), input);
}

/// The frame bytes for `payload`, padded with zeros (what hide() writes)
/// or with the ChaCha20 stream's next bytes.
std::vector<std::uint8_t> reference_frame(const HidingKey& key,
                                          std::uint32_t block,
                                          std::span<const std::uint8_t> payload,
                                          std::size_t data_bits,
                                          bool keystream_pad) {
  std::vector<std::uint8_t> frame(4 + payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload.size() >> (8 * i));
  }
  std::copy(payload.begin(), payload.end(), frame.begin() + 4);
  crypto::ChaCha20 cipher(key.cipher_key(), reference_nonce(block));
  cipher.apply(frame);
  const auto tag = reference_tag(key, block, frame);
  frame.insert(frame.end(), tag.begin(), tag.begin() + 16);
  std::vector<std::uint8_t> pad((data_bits + 7) / 8 - frame.size(), 0);
  if (keystream_pad) cipher.apply(pad);
  frame.insert(frame.end(), pad.begin(), pad.end());
  return frame;
}

/// Embed `frame` into `block` the way hide() does: BCH-encode its data
/// bits codeword by codeword, interleave across the hidden pages, embed.
void reference_embed(VthiCodec& codec, std::uint32_t block,
                     std::span<const std::uint8_t> frame) {
  const ReferenceLayout lay = reference_layout(codec);
  auto data = util::bytes_to_bits(frame);
  data.resize(lay.data_bits);
  std::vector<std::uint8_t> coded;
  std::size_t offset = 0;
  for (const std::size_t len : lay.data_lens) {
    const auto cw = lay.bch.encode(std::span(data).subspan(offset, len));
    coded.insert(coded.end(), cw.begin(), cw.end());
    offset += len;
  }
  ASSERT_EQ(coded.size(), lay.total_bits);
  const std::size_t pages = lay.pages.size();
  for (std::size_t pi = 0; pi < pages; ++pi) {
    std::vector<std::uint8_t> bits(lay.bits_per_page);
    for (std::size_t j = 0; j < bits.size(); ++j) bits[j] = coded[j * pages + pi];
    ASSERT_TRUE(codec.channel().embed(block, lay.pages[pi], bits).is_ok());
  }
}

/// Read `block`'s frame bytes back the way reveal does at the nominal
/// reference: extract, de-interleave, BCH-decode.
std::vector<std::uint8_t> reference_extract(VthiCodec& codec,
                                            std::uint32_t block) {
  const ReferenceLayout lay = reference_layout(codec);
  const std::size_t pages = lay.pages.size();
  std::vector<std::uint8_t> coded(lay.total_bits);
  for (std::size_t pi = 0; pi < pages; ++pi) {
    const auto bits =
        codec.channel().extract(block, lay.pages[pi], lay.bits_per_page);
    EXPECT_TRUE(bits.is_ok());
    if (!bits.is_ok()) return {};
    for (std::size_t j = 0; j < bits.value().size(); ++j) {
      coded[j * pages + pi] = bits.value()[j];
    }
  }
  std::vector<std::uint8_t> data;
  std::size_t offset = 0;
  for (const std::size_t len : lay.data_lens) {
    const std::size_t cw_len = len + lay.bch.parity_bits();
    const auto decoded =
        lay.bch.decode(std::span(coded).subspan(offset, cw_len));
    EXPECT_TRUE(decoded.ok);
    data.insert(data.end(), decoded.data_bits.begin(), decoded.data_bits.end());
    offset += cw_len;
  }
  return util::bits_to_bytes(data);
}

TEST(Codec, FrameMatchesItsWrittenOutFormat) {
  // hide() writes the reference frame with zero padding, and reveal opens
  // a frame by its length and MAC alone: a frame padded with the stream's
  // next bytes instead (charging about half the padding's cells, as
  // ciphertext does) reveals on this build too.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 81);
  (void)chip.program_block_random(3, 21);
  (void)chip.program_block_random(4, 22);
  VthiCodec codec(chip, test_key());
  const std::size_t data_bits = reference_layout(codec).data_bits;
  const std::vector<std::uint8_t> payload(40, 0x6d);

  ASSERT_TRUE(codec.hide(3, payload).is_ok());
  const auto written = reference_extract(codec, 3);
  EXPECT_EQ(written,
            reference_frame(test_key(), 3, payload, data_bits, false));

  const auto keystream_padded =
      reference_frame(test_key(), 4, payload, data_bits, true);
  reference_embed(codec, 4, keystream_padded);
  const auto revealed = codec.reveal(4);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

TEST(Codec, EraseDestroysHiddenData) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 77);
  (void)chip.program_block_random(6, 15);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(32, 0x99);
  ASSERT_TRUE(codec.hide(6, payload).is_ok());
  ASSERT_TRUE(codec.erase_hidden(6).is_ok());
  EXPECT_FALSE(codec.reveal(6).is_ok());
}

TEST(Codec, ReembedAfterMigration) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 78);
  (void)chip.program_block_random(0, 16);
  (void)chip.program_block_random(1, 17);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(40, 0x77);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());
  const auto rescued = codec.reveal(0);
  ASSERT_TRUE(rescued.is_ok());
  ASSERT_TRUE(codec.hide(1, rescued.value()).is_ok());
  ASSERT_TRUE(chip.erase_block(0).is_ok());
  const auto revealed = codec.reveal(1);
  ASSERT_TRUE(revealed.is_ok());
  EXPECT_EQ(revealed.value(), payload);
}

TEST(Codec, RepeatedRevealsAreStable) {
  // Table 1 "repeated reads +": decoding is non-destructive.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 79);
  (void)chip.program_block_random(7, 18);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(50, 0xee);
  ASSERT_TRUE(codec.hide(7, payload).is_ok());
  for (int i = 0; i < 20; ++i) {
    const auto revealed = codec.reveal(7);
    ASSERT_TRUE(revealed.is_ok()) << "read " << i;
    EXPECT_EQ(revealed.value(), payload) << "read " << i;
  }
}

TEST(Codec, EccOverheadMatchesPaperBallpark) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 80);
  VthiCodec codec(chip, test_key());
  // Production config: a real (non-Shannon-limit) shortened BCH with
  // 3-sigma margin spends 15-30% on parity at the ~1% measured raw BER;
  // the paper's "5%" figure is the Shannon-limit estimate (see
  // EXPERIMENTS.md).
  EXPECT_GT(codec.ecc_overhead(), 0.05);
  EXPECT_LT(codec.ecc_overhead(), 0.35);
}

TEST(Codec, EnhancedConfigRoundTripsWithMoreCapacity) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 81);
  (void)chip.program_block_random(0, 19);

  // At this tiny test geometry the enhanced bit count is ~8x denser than
  // on paper-width pages, which raises the raw channel BER; budget the ECC
  // accordingly (the paper-density benches use the stock estimate).
  VthiConfig enhanced_config = VthiConfig::enhanced();
  enhanced_config.raw_ber_estimate = 0.05;

  VthiCodec production(chip, test_key(), VthiConfig::production());
  VthiCodec enhanced(chip, test_key(), enhanced_config);
  // §8: the enhanced configuration raises usable capacity several-fold.
  EXPECT_GT(enhanced.capacity_bytes(), 2 * production.capacity_bytes());

  std::vector<std::uint8_t> payload(enhanced.capacity_bytes() / 2);
  util::Xoshiro256 rng(19);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const auto hidden = enhanced.hide(0, payload);
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().to_string();
  const auto revealed = enhanced.reveal(0);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

TEST(Codec, SurvivesModerateRetention) {
  // Fig. 11 operating point: fresh cells keep hidden data readable after a
  // four-month bake.
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 82);
  (void)chip.program_block_random(0, 20);
  VthiCodec codec(chip, test_key());
  std::vector<std::uint8_t> payload(codec.capacity_bytes() / 2, 0x3c);
  ASSERT_TRUE(codec.hide(0, payload).is_ok());
  chip.bake_block(0, 24.0 * 120);
  const auto revealed = codec.reveal(0);
  ASSERT_TRUE(revealed.is_ok()) << revealed.status().to_string();
  EXPECT_EQ(revealed.value(), payload);
}

TEST(Codec, HiddenPagesHonourInterval) {
  FlashChip chip(vthi_geometry(), NoiseModel::vendor_a(), 83);
  VthiCodec codec(chip, test_key());
  const auto pages = codec.hidden_pages();
  ASSERT_FALSE(pages.empty());
  for (std::size_t i = 1; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i] - pages[i - 1], kPageInterval + 1);
  }
}

}  // namespace
}  // namespace stash::vthi
