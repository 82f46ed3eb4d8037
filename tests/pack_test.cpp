// stash::pack tests: CDC chunker invariants (coverage, bounds, determinism,
// boundary re-synchronization after edits), LZ/range-coder roundtrips, the
// versioned container's roundtrip + dedup multiplier, the never-garbage
// corruption contract (every truncation point and every bit flip decodes as
// a clean error, mirroring store_test's sweeps), and the device-level gates:
// packed stores byte-identical across thread counts, empty hidden payloads
// as a defined roundtrip, and hidden_info() as the versioned object view.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "stash/crypto/sha256.hpp"
#include "stash/dev/device.hpp"
#include "stash/pack/chunker.hpp"
#include "stash/pack/codec.hpp"
#include "stash/pack/pack.hpp"
#include "stash/util/rng.hpp"

namespace stash::pack {
namespace {

using util::ErrorCode;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// English-ish text: dictionary words with skewed frequencies — the corpus
/// class the paper's hidden volumes (documents, source) actually carry.
std::vector<std::uint8_t> text_corpus(std::size_t n, std::uint64_t seed) {
  static const char* kWords[] = {
      "the",     "hidden", "voltage",   "threshold", "flash",  "channel",
      "capacity", "cell",  "program",   "retention", "stash",  "volume",
      "of",      "and",    "in",        "to",        "is",     "a",
  };
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + 16);
  while (out.size() < n) {
    // Zipf-ish skew: half the draws come from the four most common words.
    const std::size_t i = (rng() & 1) ? (rng() % 4 + 12) : (rng() % 18);
    for (const char* p = kWords[i]; *p; ++p) {
      out.push_back(static_cast<std::uint8_t>(*p));
    }
    out.push_back((rng() % 12) ? ' ' : '\n');
  }
  out.resize(n);
  return out;
}

/// A corpus with large-window redundancy: one 32 KiB block (several CDC
/// chunks wide) tiled with a one-byte edit per copy, the workload CDC
/// dedup exists for — interior chunks repeat verbatim across tiles.
std::vector<std::uint8_t> tiled_corpus(std::size_t n, std::uint64_t seed) {
  const std::vector<std::uint8_t> tile = random_bytes(32768, seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + tile.size());
  std::uint64_t gen = 0;
  while (out.size() < n) {
    out.insert(out.end(), tile.begin(), tile.end());
    out.back() = static_cast<std::uint8_t>(gen++);  // tiny per-tile edit
  }
  out.resize(n);
  return out;
}

// ---- Chunker ---------------------------------------------------------------

TEST(Chunker, SpansCoverInputWithinBounds) {
  const ChunkerConfig config;
  const auto data = text_corpus(200'000, 1);
  const auto spans = chunk_spans(data, config);
  ASSERT_FALSE(spans.empty());
  std::size_t expect_offset = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].offset, expect_offset);
    ASSERT_GT(spans[i].size, 0u);
    EXPECT_LE(spans[i].size, config.max_bytes);
    if (i + 1 < spans.size()) {
      EXPECT_GE(spans[i].size, config.min_bytes);
    }
    expect_offset += spans[i].size;
  }
  EXPECT_EQ(expect_offset, data.size());
}

TEST(Chunker, EmptyInputYieldsNoSpans) {
  EXPECT_TRUE(chunk_spans({}, ChunkerConfig{}).empty());
}

TEST(Chunker, DeterministicAcrossCalls) {
  const auto data = random_bytes(100'000, 2);
  const auto a = chunk_spans(data, ChunkerConfig{});
  const auto b = chunk_spans(data, ChunkerConfig{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

TEST(Chunker, BoundariesResynchronizeAfterPrefixInsert) {
  // Content-defined cuts must survive a prefix edit: chunk the stream,
  // shift it by an 11-byte insert, and most chunk *contents* must reappear
  // (identical spans at shifted offsets) — the property dedup rides on.
  const ChunkerConfig config;
  const auto base = text_corpus(300'000, 3);
  std::vector<std::uint8_t> shifted(11, 0xee);
  shifted.insert(shifted.end(), base.begin(), base.end());

  const auto digest_set = [](std::span<const std::uint8_t> data,
                             const std::vector<ChunkSpan>& spans) {
    std::set<std::array<std::uint8_t, 32>> out;
    for (const ChunkSpan& s : spans) {
      out.insert(crypto::Sha256::hash(data.subspan(s.offset, s.size)));
    }
    return out;
  };
  const auto a = digest_set(base, chunk_spans(base, config));
  const auto b = digest_set(shifted, chunk_spans(shifted, config));
  std::size_t common = 0;
  for (const auto& d : a) common += b.count(d);
  // All but the chunks adjacent to the edit re-synchronize.
  EXPECT_GE(common * 10, a.size() * 8)
      << common << " of " << a.size() << " chunks survived the shift";
}

// ---- Codec -----------------------------------------------------------------

TEST(Codec, LzRoundTripsTextAndRandomAndEmpty) {
  for (std::uint64_t seed : {10ull, 11ull}) {
    const auto text = text_corpus(50'000, seed);
    const auto lz = lz_compress(text);
    EXPECT_LT(lz.size(), text.size());  // text must actually compress
    const auto back = lz_decompress(lz, text.size());
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), text);
  }
  const auto noise = random_bytes(50'000, 12);
  const auto lz = lz_compress(noise);
  const auto back = lz_decompress(lz, noise.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), noise);

  const auto empty = lz_compress({});
  const auto eback = lz_decompress(empty, 0);
  ASSERT_TRUE(eback.is_ok());
  EXPECT_TRUE(eback.value().empty());
}

TEST(Codec, LzRejectsWrongExpectedSize) {
  const auto text = text_corpus(10'000, 13);
  const auto lz = lz_compress(text);
  EXPECT_EQ(lz_decompress(lz, text.size() - 1).status().code(),
            ErrorCode::kCorrupted);
  EXPECT_EQ(lz_decompress(lz, text.size() + 1).status().code(),
            ErrorCode::kCorrupted);
}

TEST(Codec, RangeCoderRoundTripsAndShrinksSkewedStreams) {
  const auto text = text_corpus(60'000, 14);
  const auto rc = rc_compress(text);
  EXPECT_LT(rc.size(), text.size());  // adaptive model beats raw text
  EXPECT_EQ(rc_decompress(rc, text.size()), text);

  const auto noise = random_bytes(20'000, 15);
  EXPECT_EQ(rc_decompress(rc_compress(noise), noise.size()), noise);
  EXPECT_TRUE(rc_decompress(rc_compress({}), 0).empty());
}

TEST(Codec, TruncatedRangeStreamDecodesToDeclaredLengthNotACrash) {
  const auto text = text_corpus(8'000, 16);
  auto rc = rc_compress(text);
  rc.resize(rc.size() / 2);
  const auto out = rc_decompress(rc, text.size());
  EXPECT_EQ(out.size(), text.size());  // wrong bytes allowed; UB not
}

// ---- Container -------------------------------------------------------------

TEST(Pack, RoundTripsEveryCorpusClass) {
  const PackConfig config;
  for (const auto& payload :
       {text_corpus(120'000, 20), random_bytes(50'000, 21),
        tiled_corpus(150'000, 22), std::vector<std::uint8_t>{},
        std::vector<std::uint8_t>(3, 0x42)}) {
    PackStats stats;
    auto packed = pack(payload, config, &stats);
    ASSERT_TRUE(packed.is_ok());
    EXPECT_EQ(stats.logical_bytes, payload.size());
    EXPECT_EQ(stats.packed_bytes, packed.value().size());
    auto back = unpack(packed.value());
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), payload);
  }
}

TEST(Pack, TextCompressesTwofoldAndRandomCostsAlmostNothing) {
  PackStats stats;
  auto packed = pack(text_corpus(200'000, 23), PackConfig{}, &stats);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_GE(stats.multiplier(), 2.0) << "text multiplier " << stats.multiplier();

  const auto noise = random_bytes(100'000, 24);
  auto raw = pack(noise, PackConfig{}, &stats);
  ASSERT_TRUE(raw.is_ok());
  EXPECT_GE(stats.multiplier(), 0.98)
      << "incompressible payload overhead too high: " << stats.multiplier();
  EXPECT_EQ(stats.method, static_cast<std::uint8_t>(Method::kStored));
}

TEST(Pack, DedupCollapsesRepeatedChunks) {
  PackStats stats;
  auto packed = pack(tiled_corpus(400'000, 25), PackConfig{}, &stats);
  ASSERT_TRUE(packed.is_ok());
  EXPECT_LT(stats.unique_chunks, stats.chunks / 4)
      << stats.unique_chunks << " uniques of " << stats.chunks;
  EXPECT_GE(stats.multiplier(), 4.0);
  EXPECT_GT(stats.dedup_ratio(), 2.0);
}

TEST(Pack, InspectMatchesPackStatsWithoutDecoding) {
  PackStats stats;
  auto packed = pack(text_corpus(80'000, 26), PackConfig{}, &stats);
  ASSERT_TRUE(packed.is_ok());
  auto inspected = inspect(packed.value());
  ASSERT_TRUE(inspected.is_ok());
  EXPECT_EQ(inspected.value().logical_bytes, stats.logical_bytes);
  EXPECT_EQ(inspected.value().packed_bytes, stats.packed_bytes);
  EXPECT_EQ(inspected.value().chunks, stats.chunks);
  EXPECT_EQ(inspected.value().unique_chunks, stats.unique_chunks);
  EXPECT_EQ(inspected.value().method, stats.method);
}

TEST(Pack, NewerFormatVersionIsUnsupportedNotCorrupted) {
  auto packed = pack(text_corpus(4'000, 27), PackConfig{}, nullptr);
  ASSERT_TRUE(packed.is_ok());
  auto container = packed.value();
  container[4] = kFormatVersion + 1;  // version byte follows the u32 magic
  EXPECT_EQ(unpack(container).status().code(), ErrorCode::kUnsupported);
  EXPECT_EQ(inspect(container).status().code(), ErrorCode::kUnsupported);
}

// ---- Corruption sweeps (mirroring store_test's battery) --------------------

/// Clean outcome = kCorrupted, kUnsupported when the damage happens to
/// forge a plausible newer-version header, or OK with the *exact* original
/// bytes (a handful of container bytes are genuinely non-load-bearing: the
/// range coder's init byte and its final flush bits are never consumed by
/// the decoder).  OK with wrong bytes is the garbage the container exists
/// to rule out.
void expect_clean_failure(const Result<std::vector<std::uint8_t>>& r,
                          const std::vector<std::uint8_t>& original,
                          const std::string& what) {
  if (r.is_ok()) {
    EXPECT_EQ(r.value(), original) << what << ": OK with wrong payload";
    return;
  }
  EXPECT_TRUE(r.status().code() == ErrorCode::kCorrupted ||
              r.status().code() == ErrorCode::kUnsupported)
      << what << ": " << r.status().to_string();
}

TEST(PackCorruption, EveryTruncationPointDecodesAsCleanCorruption) {
  const auto payload = text_corpus(30'000, 30);
  auto packed = pack(payload, PackConfig{}, nullptr);
  ASSERT_TRUE(packed.is_ok());
  const auto& container = packed.value();
  for (std::size_t keep = 0; keep < container.size(); ++keep) {
    const std::span<const std::uint8_t> cut{container.data(), keep};
    const auto r = unpack(cut);
    ASSERT_FALSE(r.is_ok()) << "truncation at " << keep << " decoded OK";
    expect_clean_failure(r, payload, "truncate@" + std::to_string(keep));
  }
}

TEST(PackCorruption, EveryBitFlipDecodesAsCleanCorruptionOrExactPayload) {
  // One flip per container byte (rotating bit position) over a payload
  // small enough to keep the sweep square: no single-bit damage may ever
  // yield OK-with-wrong-bytes.
  const auto payload = text_corpus(6'000, 31);
  auto packed = pack(payload, PackConfig{}, nullptr);
  ASSERT_TRUE(packed.is_ok());
  auto container = packed.value();
  for (std::size_t i = 0; i < container.size(); ++i) {
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1u << (i % 8));
    container[i] ^= mask;
    expect_clean_failure(unpack(container), payload,
                         "flip@" + std::to_string(i));
    container[i] ^= mask;  // restore
  }
}

// ---- Device-level gates ----------------------------------------------------

crypto::HidingKey pack_test_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x5c);
  return crypto::HidingKey(raw);
}

dev::DeviceConfig pack_dev_config(unsigned threads) {
  dev::DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;
  config.seed = 4242;
  config.chips = 2;
  config.threads = threads;
  return config;
}

void fill_public_pages(dev::StashDevice& dev, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    std::vector<std::uint8_t> page(dev.page_bits());
    for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
    ASSERT_TRUE(dev.write(lpn, page).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
}

/// Raw (pre-pack) hidden capacity of the device as filled — the yardstick
/// every secret is sized against, so the tests track geometry changes.
std::size_t raw_hidden_capacity(dev::StashDevice& dev) {
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    total += dev.volume(c).hidden_capacity_bytes();
  }
  return total;
}

TEST(PackDevice, PackedStoreIsByteIdenticalAcrossThreadCounts) {
  // The pack pipeline sits inside the device's hidden path; the device's
  // determinism gate (state_checksum equality for any thread count) must
  // hold straight through it.
  std::uint64_t checksums[2] = {};
  std::vector<std::uint8_t> payloads[2];
  const unsigned thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    dev::StashDevice dev(pack_dev_config(thread_counts[i]), pack_test_key());
    fill_public_pages(dev, 999);
    const auto secret = text_corpus(raw_hidden_capacity(dev), 77);
    ASSERT_TRUE(dev.store_hidden(secret).is_ok());
    auto loaded = dev.load_hidden();
    ASSERT_TRUE(loaded.is_ok());
    EXPECT_EQ(loaded.value(), secret);
    checksums[i] = dev.state_checksum();
    auto raw = dev.load_hidden();
    payloads[i] = raw.value().to_vector();
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(payloads[0], payloads[1]);
}

TEST(PackDevice, HiddenInfoDescribesThePackedObject) {
  dev::StashDevice dev(pack_dev_config(1), pack_test_key());
  fill_public_pages(dev, 1234);
  EXPECT_EQ(dev.hidden_info().status().code(), ErrorCode::kNotFound);

  const auto secret = text_corpus(raw_hidden_capacity(dev), 55);
  ASSERT_TRUE(dev.store_hidden(secret).is_ok());
  auto info = dev.hidden_info();
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  EXPECT_EQ(info.value().logical_bytes, secret.size());
  EXPECT_LT(info.value().packed_bytes, secret.size());
  EXPECT_EQ(info.value().format, kFormatVersion);
  EXPECT_GT(info.value().chunks, 0u);
  EXPECT_GE(info.value().multiplier(), 2.0);
  // Headroom of a replacement store: every chip's room for chunks beside
  // the stored generation.
  std::uint64_t headroom = 0;
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    headroom += dev.volume(c).hidden_capacity_bytes();
  }
  EXPECT_EQ(info.value().remaining_capacity_bytes, headroom);

  const auto stats = dev.stats_snapshot();
  EXPECT_EQ(stats.hidden_stores, 1u);
  EXPECT_EQ(stats.pack_logical_bytes, secret.size());
  EXPECT_EQ(stats.pack_packed_bytes, info.value().packed_bytes);
  // stats_json carries the pack counters under their canonical keys.
  const std::string json = dev.stats_json();
  EXPECT_NE(json.find("\"pack_logical_bytes\":" +
                      std::to_string(secret.size())),
            std::string::npos)
      << json;
}

TEST(PackDevice, EffectiveHiddenCapacityExceedsRawCapacityOnText) {
  // The tentpole claim, end to end: a text payload larger than the raw
  // hidden capacity stores and roundtrips because packing shrinks it.
  dev::StashDevice dev(pack_dev_config(1), pack_test_key());
  fill_public_pages(dev, 4321);
  const std::size_t raw_capacity = raw_hidden_capacity(dev);
  ASSERT_GT(raw_capacity, 0u);
  const auto secret = text_corpus(raw_capacity + raw_capacity / 2, 66);
  ASSERT_TRUE(dev.store_hidden(secret).is_ok());
  auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
}

TEST(PackDevice, EmptyHiddenPayloadRoundTrips) {
  // Regression pin: store_hidden({}) is a defined roundtrip — an empty
  // object, not kNotFound, not an error.
  dev::StashDevice dev(pack_dev_config(1), pack_test_key());
  fill_public_pages(dev, 2222);
  ASSERT_TRUE(dev.store_hidden({}).is_ok());
  auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded.value().empty());
  auto info = dev.hidden_info();
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().logical_bytes, 0u);
}

TEST(PackDevice, PackedPayloadSurvivesSnapshotRoundTrip) {
  const std::string dir = "./pack_test_snapshot_scratch";
  std::filesystem::remove_all(dir);
  std::vector<std::uint8_t> secret;
  std::uint64_t saved_checksum = 0;
  {
    dev::StashDevice dev(pack_dev_config(1), pack_test_key());
    fill_public_pages(dev, 3333);
    secret = text_corpus(raw_hidden_capacity(dev), 88);
    ASSERT_TRUE(dev.store_hidden(secret).is_ok());
    auto saved = dev.save_snapshot(dir);
    ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();
    saved_checksum = dev.state_checksum();
  }
  {
    dev::StashDevice dev(pack_dev_config(1), pack_test_key());
    ASSERT_TRUE(dev.load_snapshot(dir).is_ok());
    EXPECT_EQ(dev.state_checksum(), saved_checksum);
    auto loaded = dev.load_hidden();
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded.value(), secret);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stash::pack
