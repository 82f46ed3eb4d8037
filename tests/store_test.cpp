// stash::store tests: the wire codec, the two-generation snapshot store's
// atomic-commit discipline (torn-write sweep over every syscall index, the
// fsync/rename fault points, post-hoc bit rot), FlashChip/FTL full-state
// round trips, the device-level save/load gates — state_checksum
// equality for both generations, thread-count independence of the snapshot
// bytes, and read-cache/write-back invalidation on restore — and the
// hidden volume across a restore or a power cut (no snapshot names it; its
// carriers are found by key afterwards).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "stash/crypto/sha256.hpp"
#include "stash/dev/device.hpp"
#include "stash/fault/file_plan.hpp"
#include "stash/fault/plan.hpp"
#include "stash/store/file_io.hpp"
#include "stash/store/snapshot.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/wire.hpp"

namespace stash::store {
namespace {

using util::ErrorCode;

/// Per-test scratch directory under the build tree's cwd (not /tmp); removed
/// on destruction so a failed run leaves debris only for the failing test.
/// The name carries the process id and the full test name: `ctest -j` runs
/// every test in its own process from one shared cwd, so a tag alone would
/// let two tests race on the same directory.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) : path_(unique_path(tag)) {
    std::filesystem::remove_all(path_);
    EXPECT_TRUE(ensure_dir(path_).is_ok());
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  static std::string unique_path(const std::string& tag) {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(test->test_suite_name()) + "." + test->name();
    std::replace(name.begin(), name.end(), '/', '_');
    return "./store_test_scratch_" + std::to_string(::getpid()) + "_" + name +
           "_" + tag;
  }

  std::string path_;
};

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::vector<Chunk> sample_chunks(std::uint64_t tag = 7) {
  return {
      {"dev/meta", pattern_bytes(48, tag)},
      {"chip0/block/3", pattern_bytes(5000, tag + 1)},
      {"ftl0", pattern_bytes(333, tag + 2)},
      {"empty", {}},
  };
}

// ---- util::wire -----------------------------------------------------------

TEST(Wire, RoundTripsEveryScalarAndContainer) {
  util::ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f32(-1.5f);
  w.blob(std::array<std::uint8_t, 3>{1, 2, 3});
  w.str("chip0/block/17");

  util::ByteReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  float e = 0;
  std::vector<std::uint8_t> blob;
  std::string s;
  ASSERT_TRUE(r.u8(a).is_ok());
  ASSERT_TRUE(r.u16(b).is_ok());
  ASSERT_TRUE(r.u32(c).is_ok());
  ASSERT_TRUE(r.u64(d).is_ok());
  ASSERT_TRUE(r.f32(e).is_ok());
  ASSERT_TRUE(r.blob(blob).is_ok());
  ASSERT_TRUE(r.str(s).is_ok());
  EXPECT_TRUE(r.expect_exhausted().is_ok());

  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_EQ(e, -1.5f);
  EXPECT_EQ(blob, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(s, "chip0/block/17");
}

TEST(Wire, ReaderReportsTruncationAndTrailingBytesAsCorrupted) {
  util::ByteWriter w;
  w.u32(7);
  {
    // Truncated scalar.
    util::ByteReader r({w.bytes().data(), 2});
    std::uint32_t v = 0;
    EXPECT_EQ(r.u32(v).code(), ErrorCode::kCorrupted);
  }
  {
    // Blob whose length prefix overruns the buffer.
    util::ByteWriter bad;
    bad.u64(1000);  // claims 1000 payload bytes, provides none
    util::ByteReader r(bad.bytes());
    std::vector<std::uint8_t> blob;
    EXPECT_EQ(r.blob(blob).code(), ErrorCode::kCorrupted);
  }
  {
    // Trailing garbage after a complete record.
    util::ByteReader r(w.bytes());
    std::uint16_t v = 0;
    ASSERT_TRUE(r.u16(v).is_ok());
    EXPECT_EQ(r.expect_exhausted().code(), ErrorCode::kCorrupted);
  }
}

// ---- Snapshot encoding ----------------------------------------------------

TEST(SnapshotCodec, EncodeDecodeRoundTripPreservesChunkOrder) {
  const auto chunks = sample_chunks();
  const auto image = encode_snapshot(42, 0xc0ffee, chunks);
  auto decoded = decode_snapshot(image);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().commit_seq, 42u);
  EXPECT_EQ(decoded.value().config_hash, 0xc0ffeeu);
  ASSERT_EQ(decoded.value().chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(decoded.value().chunks[i].name, chunks[i].name);
    EXPECT_EQ(decoded.value().chunks[i].bytes, chunks[i].bytes);
  }
  EXPECT_NE(decoded.value().find("ftl0"), nullptr);
  EXPECT_EQ(decoded.value().find("nope"), nullptr);
}

TEST(SnapshotCodec, EveryTruncationPointDecodesAsCleanCorruption) {
  const auto image = encode_snapshot(1, 2, sample_chunks());
  // Sparse sweep of prefix lengths plus the exact boundaries around the
  // header, each chunk, and the footer.
  std::set<std::size_t> cuts = {0, 1, 7, 8, 31, 32, 33};
  for (std::size_t cut = 0; cut < image.size(); cut += 97) cuts.insert(cut);
  cuts.insert(image.size() - 1);
  for (const std::size_t cut : cuts) {
    auto r = decode_snapshot({image.data(), cut});
    ASSERT_FALSE(r.is_ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), ErrorCode::kCorrupted) << "cut=" << cut;
  }
}

TEST(SnapshotCodec, EveryBitFlipDecodesAsCleanCorruption) {
  const auto image = encode_snapshot(9, 10, sample_chunks());
  // One flip per byte-stride keeps the sweep fast while still hitting the
  // header, every chunk region, digests, and the footer.
  for (std::size_t byte = 0; byte < image.size(); byte += 61) {
    auto copy = image;
    copy[byte] ^= 1u << (byte % 8);
    auto r = decode_snapshot(copy);
    ASSERT_FALSE(r.is_ok()) << "byte=" << byte;
    EXPECT_EQ(r.status().code(), ErrorCode::kCorrupted) << "byte=" << byte;
  }
}

TEST(SnapshotCodec, TrailingBytesAfterFooterAreCorruption) {
  auto image = encode_snapshot(3, 4, sample_chunks());
  image.push_back(0);
  EXPECT_EQ(decode_snapshot(image).status().code(), ErrorCode::kCorrupted);
}

TEST(SnapshotCodec, GenerationBytesArePinned) {
  // A generation file saved by an older build must load in this one, so
  // the encoding of fixed chunks must never move.
  const auto image = encode_snapshot(5, 0x0123456789abcdefULL, sample_chunks());
  EXPECT_EQ(image.size(), 5727u);
  EXPECT_EQ(crypto::to_hex(crypto::Sha256::hash(image)),
            "bb01e184d4938abb7b1014dc66b1b010898b3ed74bed997f1f97be4078f4c5e1");
}

// ---- SnapshotStore commit discipline --------------------------------------

TEST(SnapshotStore, EmptyDirectoryLoadsAsNotFound) {
  ScratchDir dir("empty");
  SnapshotStore store(dir.path());
  EXPECT_EQ(store.load_latest().status().code(), ErrorCode::kNotFound);
}

TEST(SnapshotStore, SavesAlternateGenerationsAndBumpCommitSeq) {
  ScratchDir dir("alt");
  SnapshotStore store(dir.path());

  auto s1 = store.save(0xaa, sample_chunks(1));
  ASSERT_TRUE(s1.is_ok()) << s1.status().message();
  auto s2 = store.save(0xaa, sample_chunks(2));
  ASSERT_TRUE(s2.is_ok());
  auto s3 = store.save(0xaa, sample_chunks(3));
  ASSERT_TRUE(s3.is_ok());

  EXPECT_NE(s1.value().generation, s2.value().generation);
  EXPECT_EQ(s1.value().generation, s3.value().generation);
  EXPECT_LT(s1.value().commit_seq, s2.value().commit_seq);
  EXPECT_LT(s2.value().commit_seq, s3.value().commit_seq);
  EXPECT_GT(s1.value().bytes, 0u);

  auto latest = store.load_latest();
  ASSERT_TRUE(latest.is_ok());
  EXPECT_EQ(latest.value().commit_seq, s3.value().commit_seq);
  EXPECT_EQ(latest.value().generation, s3.value().generation);
  ASSERT_NE(latest.value().find("dev/meta"), nullptr);
  EXPECT_EQ(*latest.value().find("dev/meta"), pattern_bytes(48, 3));

  // Both generations on disk validate independently.
  auto prior = store.load_generation(s2.value().generation);
  ASSERT_TRUE(prior.is_ok());
  EXPECT_EQ(prior.value().commit_seq, s2.value().commit_seq);
}

/// Count the file ops of one fault-free save so the sweeps below can target
/// every index exactly once.
std::uint64_t count_save_ops(const std::vector<Chunk>& chunks) {
  ScratchDir dir("probe");
  SnapshotStore store(dir.path());
  EXPECT_TRUE(store.save(1, sample_chunks()).is_ok()) << "seed save";
  fault::FileFaultPlan probe;  // no schedule: pure op counter
  auto s = store.save(1, chunks, &probe);
  EXPECT_TRUE(s.is_ok());
  return probe.ops_seen();
}

TEST(SnapshotStore, CrashAtEverySyscallOfASaveLeavesPriorGenerationLoadable) {
  const auto v2 = sample_chunks(20);
  const std::uint64_t total_ops = count_save_ops(v2);
  // A one-slab save: data write, fsync, rename, directory fsync.
  ASSERT_EQ(total_ops, 4u);

  for (std::uint64_t cut = 0; cut < total_ops; ++cut) {
    ScratchDir dir("crash" + std::to_string(cut));
    SnapshotStore store(dir.path());
    auto s1 = store.save(0x11, sample_chunks(10));
    ASSERT_TRUE(s1.is_ok());

    fault::FileFaultPlan plan;
    plan.fail_at(cut);
    auto s2 = store.save(0x11, v2, &plan);
    ASSERT_FALSE(s2.is_ok()) << "cut=" << cut;
    EXPECT_EQ(plan.stats().faults_fired, 1u) << "cut=" << cut;

    // Next incarnation: the store must load a valid generation, never
    // corrupt data, never nothing.  The rename is the commit point, so the
    // new generation loads exactly when only the directory fsync after it
    // was cut; every earlier cut keeps the prior commit.
    auto recovered = store.load_latest();
    ASSERT_TRUE(recovered.is_ok())
        << "cut=" << cut << ": " << recovered.status().message();
    const auto* meta = recovered.value().find("dev/meta");
    ASSERT_NE(meta, nullptr) << "cut=" << cut;
    const bool committed = cut + 1 == total_ops;
    EXPECT_EQ(*meta, pattern_bytes(48, committed ? 20 : 10)) << "cut=" << cut;
    EXPECT_EQ(recovered.value().commit_seq,
              s1.value().commit_seq + (committed ? 1 : 0))
        << "cut=" << cut;

    // And the crashed save must not have consumed the sequence number: a
    // retry after reboot commits cleanly.
    auto s3 = store.save(0x11, v2);
    ASSERT_TRUE(s3.is_ok()) << "cut=" << cut;
    auto after = store.load_latest();
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(*after.value().find("dev/meta"), pattern_bytes(48, 20))
        << "cut=" << cut;
  }
}

TEST(SnapshotStore, TornDataWriteRecoversOnPriorGeneration) {
  const auto v2 = sample_chunks(20);
  const std::uint64_t total_ops = count_save_ops(v2);

  // Tear every write op at a few prefix lengths (0, 1, mid, almost-all).
  for (std::uint64_t cut = 0; cut < total_ops; ++cut) {
    for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                   std::size_t{117}, std::size_t{4096}}) {
      ScratchDir dir("torn" + std::to_string(cut) + "_" +
                     std::to_string(keep));
      SnapshotStore store(dir.path());
      ASSERT_TRUE(store.save(0x11, sample_chunks(10)).is_ok());

      fault::FileFaultPlan plan;
      plan.torn_write_at(cut, keep);
      ASSERT_FALSE(store.save(0x11, v2, &plan).is_ok())
          << "cut=" << cut << " keep=" << keep;

      auto recovered = store.load_latest();
      ASSERT_TRUE(recovered.is_ok())
          << "cut=" << cut << " keep=" << keep << ": "
          << recovered.status().message();
      const auto* meta = recovered.value().find("dev/meta");
      ASSERT_NE(meta, nullptr);
      EXPECT_TRUE(*meta == pattern_bytes(48, 10) ||
                  *meta == pattern_bytes(48, 20))
          << "cut=" << cut << " keep=" << keep;
    }
  }
}

TEST(SnapshotStore, BitRotInActiveGenerationFallsBackToPrior) {
  ScratchDir dir("rot");
  SnapshotStore store(dir.path());
  auto s1 = store.save(0x11, sample_chunks(10));
  ASSERT_TRUE(s1.is_ok());
  auto s2 = store.save(0x11, sample_chunks(20));
  ASSERT_TRUE(s2.is_ok());

  // Rot a payload byte well inside the active generation's chunk region.
  ASSERT_TRUE(flip_bit(s2.value().path, 8 * 200 + 3).is_ok());

  EXPECT_EQ(store.load_generation(s2.value().generation).status().code(),
            ErrorCode::kCorrupted);
  auto recovered = store.load_latest();
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value().commit_seq, s1.value().commit_seq);
  EXPECT_EQ(*recovered.value().find("dev/meta"), pattern_bytes(48, 10));
}

TEST(SnapshotStore, BitRotInBothGenerationsIsCleanlyCorrupted) {
  ScratchDir dir("rotall");
  SnapshotStore store(dir.path());
  auto s1 = store.save(0x11, sample_chunks(10));
  ASSERT_TRUE(s1.is_ok());
  auto s2 = store.save(0x11, sample_chunks(20));
  ASSERT_TRUE(s2.is_ok());
  ASSERT_TRUE(flip_bit(s1.value().path, 99).is_ok());
  ASSERT_TRUE(flip_bit(s2.value().path, 99).is_ok());
  EXPECT_EQ(store.load_latest().status().code(), ErrorCode::kCorrupted);
}

TEST(SnapshotStore, LeftoverManifestIsIgnored) {
  // Older builds also kept a MANIFEST naming the active generation.  The
  // generation headers alone decide now, even when a leftover MANIFEST
  // names the older generation.
  ScratchDir dir("leftover");
  SnapshotStore store(dir.path());
  auto s1 = store.save(0x11, sample_chunks(10));
  ASSERT_TRUE(s1.is_ok());
  auto s2 = store.save(0x11, sample_chunks(20));
  ASSERT_TRUE(s2.is_ok());

  util::ByteWriter w;
  w.raw(std::array<std::uint8_t, 8>{'S', 'T', 'S', 'H', 'M', 'A', 'N', '1'});
  w.u32(1);  // version
  w.u32(s1.value().generation);
  w.u64(s1.value().commit_seq);
  w.raw(crypto::Sha256::hash(w.bytes()));
  OutputFile f;
  ASSERT_TRUE(f.open(dir.path() + "/MANIFEST", nullptr).is_ok());
  ASSERT_TRUE(f.write(w.bytes()).is_ok());
  f.close();

  auto latest = store.load_latest();
  ASSERT_TRUE(latest.is_ok()) << latest.status().message();
  EXPECT_EQ(latest.value().commit_seq, s2.value().commit_seq);
  EXPECT_EQ(latest.value().generation, s2.value().generation);

  auto s3 = store.save(0x11, sample_chunks(30));
  ASSERT_TRUE(s3.is_ok());
  EXPECT_EQ(s3.value().generation, s1.value().generation);
  EXPECT_EQ(s3.value().commit_seq, s2.value().commit_seq + 1);
}

// ---- FlashChip full-state round trip --------------------------------------

nand::FlashChip make_worked_chip(std::uint64_t seed) {
  nand::FlashChip chip(nand::Geometry::tiny(), nand::NoiseModel{}, seed);
  const auto geom = chip.geometry();
  for (std::uint32_t b = 0; b < 3 && b < geom.blocks; ++b) {
    EXPECT_TRUE(chip.erase_block(b).is_ok());
    // Sequential programming (geometry enforces it), partially-filled block.
    for (std::uint32_t p = 0; p + 1 < geom.pages_per_block; ++p) {
      std::vector<std::uint8_t> bits(geom.cells_per_page);
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = static_cast<std::uint8_t>((i + p + b) & 1);
      }
      EXPECT_TRUE(chip.program_page(b, p, bits).is_ok());
    }
  }
  // Cycle block 0 so it accrues sparse stress state that survives erase.
  EXPECT_TRUE(chip.erase_block(0).is_ok());
  EXPECT_TRUE(
      chip.program_page(0, 0, std::vector<std::uint8_t>(
                                  geom.cells_per_page, 1))
          .is_ok());
  return chip;
}

TEST(ChipPersistence, SerializeDeserializeReproducesStateDigest) {
  auto src = make_worked_chip(777);
  const std::uint64_t digest = src.state_digest();

  nand::FlashChip dst(src.geometry(), nand::NoiseModel{}, 777);
  std::vector<std::uint8_t> meta;
  src.serialize_meta(meta);
  ASSERT_TRUE(dst.deserialize_meta(meta).is_ok());
  for (std::uint32_t b = 0; b < src.geometry().blocks; ++b) {
    if (!src.block_allocated(b)) continue;
    std::vector<std::uint8_t> rec;
    ASSERT_TRUE(src.serialize_block(b, rec).is_ok());
    ASSERT_TRUE(dst.deserialize_block(b, rec).is_ok());
  }
  EXPECT_EQ(dst.state_digest(), digest);

  // The restored chip reads back the same bits (same RNG epochs => same
  // noise draws on any post-restore operation).
  EXPECT_EQ(dst.read_page(1, 0), src.read_page(1, 0));
}

TEST(ChipPersistence, SerializeRejectsBadAddressesAndUnallocatedBlocks) {
  nand::FlashChip chip(nand::Geometry::tiny(), nand::NoiseModel{}, 1);
  std::vector<std::uint8_t> rec;
  EXPECT_EQ(chip.serialize_block(chip.geometry().blocks, rec).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(chip.serialize_block(0, rec).code(), ErrorCode::kNotFound);
}

TEST(ChipPersistence, DeserializeRejectsCorruptRecordsWithoutMutating) {
  auto src = make_worked_chip(5);
  std::vector<std::uint8_t> rec;
  ASSERT_TRUE(src.serialize_block(1, rec).is_ok());

  nand::FlashChip dst(src.geometry(), nand::NoiseModel{}, 5);
  // Truncated record.
  EXPECT_EQ(dst.deserialize_block(1, {rec.data(), rec.size() - 1}).code(),
            ErrorCode::kCorrupted);
  EXPECT_FALSE(dst.block_allocated(1));
  // Trailing garbage.
  auto padded = rec;
  padded.push_back(0);
  EXPECT_EQ(dst.deserialize_block(1, padded).code(), ErrorCode::kCorrupted);
  EXPECT_FALSE(dst.block_allocated(1));
}

// ---- Device-level snapshots ----------------------------------------------

using dev::DeviceConfig;
using dev::StashDevice;

crypto::HidingKey test_key(std::uint8_t fill = 0x3d) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return crypto::HidingKey(raw);
}

DeviceConfig dev_config(unsigned threads = 1) {
  DeviceConfig config;  // tiny geometry, inline pool by default
  config.seed = 90210;
  config.chips = 2;
  config.threads = threads;
  return config;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

std::size_t hamming(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d += (a[i] ^ b[i]) & 1;
  }
  return d;
}

bool matches(std::span<const std::uint8_t> read,
             const std::vector<std::uint8_t>& wrote) {
  return hamming(read, wrote) < wrote.size() / 4;
}

constexpr std::uint64_t kWorkloadLpns = 8;

/// A workload that exercises every persisted structure: host writes (FTL
/// maps + voltages) across the whole logical space so blocks finish fully
/// programmed (hidden-volume carriers), a trim, a hidden payload, a flush.
void run_workload(StashDevice& dev, std::uint64_t tag) {
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), tag + lpn))
                    .is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.trim(kWorkloadLpns - 1).is_ok());
  ASSERT_TRUE(dev.store_hidden(pattern_bytes(64, tag + 100)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
}

TEST(DeviceSnapshot, SaveLoadRoundTripPreservesChecksumAndData) {
  ScratchDir dir("devrt");
  std::uint64_t checksum = 0;
  {
    StashDevice dev(dev_config(), test_key());
    run_workload(dev, 400);
    checksum = dev.state_checksum();
    auto saved = dev.save_snapshot(dir.path());
    ASSERT_TRUE(saved.is_ok()) << saved.status().message();
    EXPECT_GT(saved.value().bytes, 0u);
    // Saving is non-destructive.
    EXPECT_EQ(dev.state_checksum(), checksum);
  }
  // A brand-new device of the same configuration — with its own divergent
  // history — restores to the exact saved state.
  DeviceConfig config = dev_config();
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 9999)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.load_snapshot(dir.path()).is_ok());
  EXPECT_EQ(dev.state_checksum(), checksum);

  for (std::uint64_t lpn = 0; lpn + 1 < kWorkloadLpns; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 400 + lpn)))
        << "lpn=" << lpn;
  }
  EXPECT_EQ(dev.read(kWorkloadLpns - 1).status().code(), ErrorCode::kNotFound)
      << "trim must survive the round trip";
  auto hidden = dev.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), pattern_bytes(64, 500));
}

TEST(DeviceSnapshot, BothGenerationsRestoreBitExactly) {
  ScratchDir dir("devgen");
  StashDevice dev(dev_config(), test_key());
  run_workload(dev, 600);
  const std::uint64_t sum1 = dev.state_checksum();
  auto s1 = dev.save_snapshot(dir.path());
  ASSERT_TRUE(s1.is_ok());

  ASSERT_TRUE(dev.write(2, page_pattern(dev.page_bits(), 777)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  const std::uint64_t sum2 = dev.state_checksum();
  ASSERT_NE(sum1, sum2);
  auto s2 = dev.save_snapshot(dir.path());
  ASSERT_TRUE(s2.is_ok());
  ASSERT_NE(s1.value().generation, s2.value().generation);

  // Newest generation first...
  StashDevice fresh(dev_config(), test_key());
  ASSERT_TRUE(fresh.load_snapshot(dir.path()).is_ok());
  EXPECT_EQ(fresh.state_checksum(), sum2);

  // ...and after rotting it, the prior generation restores checksum-exact.
  ASSERT_TRUE(flip_bit(s2.value().path, 777).is_ok());
  StashDevice fallback(dev_config(), test_key());
  ASSERT_TRUE(fallback.load_snapshot(dir.path()).is_ok());
  EXPECT_EQ(fallback.state_checksum(), sum1);
}

TEST(DeviceSnapshot, ThreadedSaveMatchesSerialSaveByteForByte) {
  // Satellite: snapshot bit-exactness under concurrency.  The same
  // workload at threads=1 and threads=8 must snapshot to identical bytes
  // (and hence identical checksums).
  ScratchDir dir1("t1");
  ScratchDir dir8("t8");
  std::uint64_t sum1 = 0;
  std::uint64_t sum8 = 0;
  {
    StashDevice dev(dev_config(1), test_key());
    run_workload(dev, 800);
    sum1 = dev.state_checksum();
    ASSERT_TRUE(dev.save_snapshot(dir1.path()).is_ok());
  }
  {
    StashDevice dev(dev_config(8), test_key());
    run_workload(dev, 800);
    sum8 = dev.state_checksum();
    ASSERT_TRUE(dev.save_snapshot(dir8.path()).is_ok());
  }
  EXPECT_EQ(sum1, sum8);

  SnapshotStore store1(dir1.path());
  SnapshotStore store8(dir8.path());
  auto g1 = store1.load_latest();
  auto g8 = store8.load_latest();
  ASSERT_TRUE(g1.is_ok());
  ASSERT_TRUE(g8.is_ok());
  auto f1 = read_file(store1.generation_path(g1.value().generation));
  auto f8 = read_file(store8.generation_path(g8.value().generation));
  ASSERT_TRUE(f1.is_ok());
  ASSERT_TRUE(f8.is_ok());
  EXPECT_EQ(f1.value(), f8.value()) << "snapshot bytes differ across threads";

  // Cross-restore: a threads=1 device restored from the threads=8 snapshot
  // carries the identical state.
  StashDevice dev(dev_config(1), test_key());
  ASSERT_TRUE(dev.load_snapshot(dir8.path()).is_ok());
  EXPECT_EQ(dev.state_checksum(), sum1);
}

TEST(DeviceSnapshot, LoadInvalidatesReadCacheAndWriteBackBuffer) {
  // Satellite: stale cached reads must not survive a restore.
  ScratchDir dir("stale");
  StashDevice dev(dev_config(), test_key());
  const auto v1 = page_pattern(dev.page_bits(), 41);
  const auto v2 = page_pattern(dev.page_bits(), 42);

  ASSERT_TRUE(dev.write(0, v1).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());

  // Overwrite lpn 0 post-snapshot and read it so the new version sits in
  // the read cache; stage another write so the write-back buffer is
  // non-empty at load time.
  ASSERT_TRUE(dev.write(0, v2).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  auto cached = dev.read(0);
  ASSERT_TRUE(cached.is_ok());
  ASSERT_TRUE(matches(cached.value(), v2));
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 43)).is_ok());

  const auto before = dev.stats_snapshot();
  ASSERT_TRUE(dev.load_snapshot(dir.path()).is_ok());

  // The restore rewound lpn 0 to v1; a cache hit of v2 here is the bug.
  auto r = dev.read(0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), v1)) << "stale cached read survived restore";
  EXPECT_FALSE(matches(r.value(), v2));

  // The rolled-back buffered write is undone, not lost: lpn 1 was never in
  // the snapshot, and the rollback does not report it as a power-cut loss.
  EXPECT_EQ(dev.read(1).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(dev.stats_snapshot().lost_writes, before.lost_writes);
}

TEST(DeviceSnapshot, LoadRejectsMismatchedConfigLeavingDeviceIntact) {
  ScratchDir dir("mismatch");
  {
    StashDevice dev(dev_config(), test_key());
    run_workload(dev, 300);
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
  }
  DeviceConfig other = dev_config();
  other.seed = 1;  // different device identity
  StashDevice dev(other, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 7)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  const std::uint64_t sum = dev.state_checksum();

  EXPECT_EQ(dev.load_snapshot(dir.path()).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(dev.state_checksum(), sum) << "failed load mutated the device";
  EXPECT_TRUE(matches(dev.read(0).value(), page_pattern(dev.page_bits(), 7)));
}

TEST(DeviceSnapshot, ConfigHashIsPinned) {
  // A snapshot loads only into a device whose config hash matches the one
  // in its header, so a change to the hashed fields or their encoding
  // strands every snapshot saved before it.
  ScratchDir dir("pinhash");
  StashDevice dev(dev_config(), test_key());
  ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
  const auto loaded = SnapshotStore(dir.path()).load_latest();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().config_hash, 0x069b0f2238b59b8dULL);
}

TEST(DeviceSnapshot, LoadFromEmptyDirIsNotFoundAndNonDestructive) {
  ScratchDir dir("nosnap");
  StashDevice dev(dev_config(), test_key());
  run_workload(dev, 100);
  const std::uint64_t sum = dev.state_checksum();
  EXPECT_EQ(dev.load_snapshot(dir.path()).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dev.state_checksum(), sum);
}

TEST(DeviceSnapshot, CrashMidSaveNeverLosesThePriorSnapshot) {
  // Device-level torn-write sweep: crash a save_snapshot at every file-op
  // index; a fresh device must always restore one committed state exactly.
  std::uint64_t total_ops = 0;
  std::uint64_t sum1 = 0;
  {
    ScratchDir dir("probe2");
    StashDevice dev(dev_config(), test_key());
    run_workload(dev, 250);
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
    ASSERT_TRUE(dev.write(3, page_pattern(dev.page_bits(), 251)).is_ok());
    ASSERT_TRUE(dev.flush().is_ok());
    fault::FileFaultPlan probe;
    ASSERT_TRUE(dev.save_snapshot(dir.path(), &probe).is_ok());
    total_ops = probe.ops_seen();
  }
  ASSERT_GT(total_ops, 4u);

  // Sweep a subset of indices (first, last, and a stride through the
  // middle) to keep the test fast; the soak harness sweeps exhaustively.
  std::set<std::uint64_t> cuts = {0, 1, total_ops - 2, total_ops - 1};
  for (std::uint64_t c = 2; c + 2 < total_ops; c += 3) cuts.insert(c);

  for (const std::uint64_t cut : cuts) {
    ScratchDir dir("devcrash" + std::to_string(cut));
    StashDevice dev(dev_config(), test_key());
    run_workload(dev, 250);
    sum1 = dev.state_checksum();
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());

    ASSERT_TRUE(dev.write(3, page_pattern(dev.page_bits(), 251)).is_ok());
    ASSERT_TRUE(dev.flush().is_ok());
    const std::uint64_t sum2 = dev.state_checksum();

    fault::FileFaultPlan plan;
    plan.torn_write_at(cut, 33);
    ASSERT_FALSE(dev.save_snapshot(dir.path(), &plan).is_ok())
        << "cut=" << cut;

    StashDevice fresh(dev_config(), test_key());
    ASSERT_TRUE(fresh.load_snapshot(dir.path()).is_ok()) << "cut=" << cut;
    const std::uint64_t restored = fresh.state_checksum();
    EXPECT_TRUE(restored == sum1 || restored == sum2)
        << "cut=" << cut << " restored neither committed state";
  }
}

// ---- The hidden volume across a restore or a power cut --------------------
//
// A snapshot holds only what survives power-off on a real drive, and
// nothing that names the hidden volume: the carrier set and the rescued
// chunks awaiting a new home live in RAM, and a restore or a power cut
// makes the volume find its carriers by key again.

/// Production VT-HI needs real pages: room for multi-chunk payloads.
DeviceConfig hidden_dev_config() {
  DeviceConfig config = dev_config();
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;
  return config;
}

void fill_public(StashDevice& dev, std::uint64_t tag) {
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), tag + lpn))
                    .is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
}

/// Incompressible bytes, four chunks' worth: pack stores them verbatim, so
/// a middle chunk of the container is payload bytes and nothing else.
std::vector<std::uint8_t> multi_chunk_payload(StashDevice& dev,
                                              std::uint64_t tag) {
  return pattern_bytes(dev.volume(0).hidden_chunk_capacity() * 4, tag);
}

/// Leave a rescued chunk waiting in chip 0's RAM: empty the middle carrier
/// of its public pages, then run a background GC pass, which collects the
/// emptied carrier and rescues its chunk with no public write after it to
/// re-home the chunk.  (The flush's own GC may rescue and re-home a chunk
/// at once; then the next attempt empties another carrier.)
void strand_rescued_chunk(StashDevice& dev) {
  stego::StegoVolume& volume = dev.volume(0);
  for (int attempt = 0; attempt < 8 && volume.pending_chunks() == 0;
       ++attempt) {
    ASSERT_FALSE(volume.hidden_blocks().empty());
    const std::set<std::uint32_t>& carriers = volume.hidden_blocks();
    const std::uint32_t carrier =
        *std::next(carriers.begin(), static_cast<long>(carriers.size() / 2));
    for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); lpn += dev.chips()) {
      const auto at = volume.ftl().locate(lpn / dev.chips());
      if (at && at->block == carrier) {
        ASSERT_TRUE(
            dev.write(lpn, page_pattern(dev.page_bits(), 7000 + lpn)).is_ok());
      }
    }
    ASSERT_TRUE(dev.flush().is_ok());
    auto gc = dev.submit_gc();
    dev.drain();
    ASSERT_TRUE(gc.get().is_ok());
  }
  ASSERT_GT(volume.pending_chunks(), 0u);
}

/// Whether any 32-byte window of `needle` occurs in `hay`.
bool shares_a_window(const std::vector<std::uint8_t>& hay,
                     const std::vector<std::uint8_t>& needle) {
  constexpr std::size_t kWindow = 32;
  for (std::size_t i = 0; i + kWindow <= needle.size(); ++i) {
    const auto first = needle.begin() + static_cast<long>(i);
    if (std::search(hay.begin(), hay.end(), first, first + kWindow) !=
        hay.end()) {
      return true;
    }
  }
  return false;
}

TEST(HiddenRestart, SaveHoldsNothingThatNamesTheHiddenVolume) {
  ScratchDir dir("leak");
  StashDevice dev(hidden_dev_config(), test_key());
  fill_public(dev, 1100);
  const auto payload = multi_chunk_payload(dev, 1101);
  ASSERT_TRUE(dev.store_hidden(payload).is_ok());
  strand_rescued_chunk(dev);

  auto saved = dev.save_snapshot(dir.path());
  ASSERT_TRUE(saved.is_ok()) << saved.status().message();
  EXPECT_EQ(dev.volume(0).pending_chunks(), 0u)
      << "the save re-embeds the rescued chunk into the voltages";

  auto loaded = SnapshotStore(dir.path()).load_latest();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  for (const Chunk& chunk : loaded.value().chunks) {
    const std::string& name = chunk.name;
    bool expected = name == "dev/meta";
    for (std::uint32_t c = 0; c < dev.chips(); ++c) {
      const std::string chip = "chip" + std::to_string(c) + "/";
      expected = expected || name == chip + "meta" ||
                 name.compare(0, chip.size() + 6, chip + "block/") == 0 ||
                 name == "ftl" + std::to_string(c);
    }
    EXPECT_TRUE(expected) << "unexpected snapshot chunk " << name;
    if (name.compare(0, 4, "chip") != 0) {
      EXPECT_FALSE(shares_a_window(chunk.bytes, payload))
          << "hidden payload bytes in snapshot chunk " << name;
    }
  }
  // The layout with per-chip stego records (carrier list, rescued chunks,
  // counters) saved this same state in 6,036,322 bytes.
  EXPECT_LE(saved.value().bytes, 6036322u);

  // The voltages alone carry the payload across the restore.
  StashDevice restored(hidden_dev_config(), test_key());
  ASSERT_TRUE(restored.load_snapshot(dir.path()).is_ok());
  auto hidden = restored.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), payload);
}

TEST(HiddenRestart, SaveRefusesWhileARescuedChunkHasNoCarrier) {
  // Every embed fails its read-back, so the stranded chunk finds no home:
  // the save reports kNoSpace and writes nothing.
  ScratchDir dir("nohome");
  StashDevice dev(hidden_dev_config(), test_key());
  fill_public(dev, 1150);
  ASSERT_TRUE(dev.store_hidden(multi_chunk_payload(dev, 1151)).is_ok());
  strand_rescued_chunk(dev);
  fault::FaultPlan plan(1152);
  plan.fail_when([](nand::FaultOp op, std::uint32_t, std::uint32_t) {
    return op == nand::FaultOp::kPartialProgram ||
           op == nand::FaultOp::kFineProgram;
  });
  dev.set_fault_injector(&plan);

  auto saved = dev.save_snapshot(dir.path());
  dev.set_fault_injector(nullptr);
  EXPECT_EQ(saved.status().code(), ErrorCode::kNoSpace);
  EXPECT_GT(dev.volume(0).pending_chunks(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(HiddenRestart, DirectoryWithAnOlderStegoRecordStillLoads) {
  // Builds before this layout wrote one `stego<c>` record per chip after
  // `ftl<c>`: u64 carrier count, u32 carriers, u64 pending-chunk count,
  // four u64 counters.  Such a directory loads; the record is ignored.
  ScratchDir plain_dir("plain");
  ScratchDir old_dir("older");
  StashDevice dev(hidden_dev_config(), test_key());
  fill_public(dev, 1200);
  const auto payload = multi_chunk_payload(dev, 1201);
  ASSERT_TRUE(dev.store_hidden(payload).is_ok());
  ASSERT_TRUE(dev.save_snapshot(plain_dir.path()).is_ok());

  auto snap = SnapshotStore(plain_dir.path()).load_latest();
  ASSERT_TRUE(snap.is_ok()) << snap.status().message();
  std::vector<Chunk> chunks;
  for (const Chunk& chunk : snap.value().chunks) {
    chunks.push_back(chunk);
    if (chunk.name.compare(0, 3, "ftl") != 0) continue;
    const auto c = static_cast<std::uint32_t>(std::stoul(chunk.name.substr(3)));
    Chunk stego{"stego" + std::to_string(c), {}};
    util::ByteWriter w(stego.bytes);
    const std::set<std::uint32_t>& carriers = dev.volume(c).hidden_blocks();
    w.u64(carriers.size());
    for (const std::uint32_t b : carriers) w.u32(b);
    w.u64(0);  // no rescued chunk pending
    for (int counter = 0; counter < 4; ++counter) w.u64(0);
    chunks.push_back(std::move(stego));
  }
  ASSERT_EQ(chunks.size(), snap.value().chunks.size() + dev.chips());
  ASSERT_TRUE(SnapshotStore(old_dir.path())
                  .save(snap.value().config_hash, chunks)
                  .is_ok());

  StashDevice plain(hidden_dev_config(), test_key());
  ASSERT_TRUE(plain.load_snapshot(plain_dir.path()).is_ok());
  StashDevice older(hidden_dev_config(), test_key());
  ASSERT_TRUE(older.load_snapshot(old_dir.path()).is_ok());
  EXPECT_EQ(older.state_checksum(), plain.state_checksum());
  auto hidden = older.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), payload);
}

TEST(HiddenRestart, StoreAfterRestoreScrubsTheRestoredGeneration) {
  // The restore forgets the carriers; the next store finds them by key
  // before it picks new ones, so it neither embeds over a live carrier nor
  // leaves the old generation for a key-only scan to splice in.
  ScratchDir dir("restore_store");
  std::vector<std::size_t> capacity;
  {
    StashDevice dev(hidden_dev_config(), test_key());
    fill_public(dev, 1300);
    ASSERT_TRUE(dev.store_hidden(multi_chunk_payload(dev, 1301)).is_ok());
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
    for (std::uint32_t c = 0; c < dev.chips(); ++c) {
      capacity.push_back(dev.volume(c).hidden_capacity_bytes());
    }
  }
  StashDevice dev(hidden_dev_config(), test_key());
  ASSERT_TRUE(dev.load_snapshot(dir.path()).is_ok());
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    EXPECT_EQ(dev.volume(c).hidden_capacity_bytes(), capacity[c])
        << "chip " << c << ": a forgotten carrier counted as free room";
  }
  const auto second = pattern_bytes(24, 1302);
  ASSERT_TRUE(dev.store_hidden(second).is_ok());
  auto hidden = dev.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), second);

  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    const DeviceConfig config = hidden_dev_config();
    stego::StegoVolume reader(dev.chip(c), test_key(),
                              stego::StegoConfig{config.ftl, config.vthi});
    auto found = reader.load_hidden();
    auto tracked = dev.volume(c).load_hidden();
    ASSERT_EQ(found.is_ok(), tracked.is_ok()) << "chip " << c;
    if (!found.is_ok()) {
      EXPECT_EQ(found.status().code(), ErrorCode::kNotFound) << "chip " << c;
      continue;
    }
    EXPECT_EQ(found.value(), tracked.value()) << "chip " << c;
    EXPECT_EQ(reader.hidden_blocks(), dev.volume(c).hidden_blocks())
        << "chip " << c << ": a key-only scan found another generation";
  }
}

TEST(HiddenRestart, GcAfterRestoreRescuesEveryForgottenCarrier) {
  // GC's pre-erase hook finds the forgotten carriers before the first
  // erase; without that, collecting a carrier destroys its chunk silently.
  ScratchDir dir("restore_gc");
  std::vector<std::uint8_t> payload;
  std::set<std::uint32_t> carriers;
  {
    StashDevice dev(hidden_dev_config(), test_key());
    fill_public(dev, 1400);
    payload = multi_chunk_payload(dev, 1401);
    ASSERT_TRUE(dev.store_hidden(payload).is_ok());
    carriers = dev.volume(0).hidden_blocks();
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
  }
  ASSERT_GE(carriers.size(), 2u);
  StashDevice dev(hidden_dev_config(), test_key());
  ASSERT_TRUE(dev.load_snapshot(dir.path()).is_ok());
  std::vector<std::uint32_t> pec_before;
  for (const std::uint32_t b : carriers) pec_before.push_back(dev.chip(0).pec(b));

  for (std::uint64_t pass = 0; pass < 3; ++pass) fill_public(dev, 1500 + 100 * pass);
  std::size_t i = 0;
  for (const std::uint32_t b : carriers) {
    EXPECT_GT(dev.chip(0).pec(b), pec_before[i++])
        << "carrier " << b << " was never collected";
  }
  EXPECT_GE(dev.volume(0).stats().rescues, carriers.size());
  EXPECT_EQ(dev.volume(0).stats().lost_chunks, 0u);
  auto hidden = dev.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), payload);
}

TEST(HiddenRestart, PowerCutLosesAPendingChunkAndCountsIt) {
  StashDevice dev(hidden_dev_config(), test_key());
  fill_public(dev, 1600);
  ASSERT_TRUE(dev.store_hidden(multi_chunk_payload(dev, 1601)).is_ok());
  strand_rescued_chunk(dev);
  stego::StegoVolume& volume = dev.volume(0);
  ASSERT_TRUE(volume.load_hidden().is_ok()) << "pending chunks still load";
  const std::size_t pending = volume.pending_chunks();
  const std::uint64_t lost_before = volume.stats().lost_chunks;

  ASSERT_TRUE(dev.power_cycle().is_ok());
  EXPECT_EQ(volume.pending_chunks(), 0u);
  EXPECT_EQ(volume.stats().lost_chunks, lost_before + pending);
  auto on_chip = volume.load_hidden();
  ASSERT_EQ(on_chip.status().code(), ErrorCode::kCorrupted);
  EXPECT_NE(on_chip.status().message().find("missing"), std::string::npos)
      << on_chip.status().message();
  auto whole = dev.load_hidden();
  ASSERT_EQ(whole.status().code(), ErrorCode::kCorrupted)
      << whole.status().message();
  EXPECT_NE(whole.status().message().find("missing"), std::string::npos)
      << whole.status().message();
}

TEST(HiddenRestart, ScanThatMissedACarrierScansAgainBeforeGc) {
  // After a restore, the first key-only scan cannot read one carrier: the
  // chip fails every probe of it.  That scan must leave the carrier set
  // unknown, so the GC that later collects the block finds it first and
  // rescues its chunk; a set marked known would let the erase destroy the
  // chunk without a rescue or a count.
  ScratchDir dir("restore_unread");
  std::vector<std::uint8_t> payload;
  std::uint32_t unread = 0;
  {
    StashDevice dev(hidden_dev_config(), test_key());
    fill_public(dev, 1750);
    payload = multi_chunk_payload(dev, 1751);
    ASSERT_TRUE(dev.store_hidden(payload).is_ok());
    const std::set<std::uint32_t>& carriers = dev.volume(0).hidden_blocks();
    ASSERT_GE(carriers.size(), 2u);
    unread = *std::next(carriers.begin());
    ASSERT_TRUE(dev.save_snapshot(dir.path()).is_ok());
  }
  StashDevice dev(hidden_dev_config(), test_key());
  ASSERT_TRUE(dev.load_snapshot(dir.path()).is_ok());
  const std::uint32_t pec_before = dev.chip(0).pec(unread);

  fault::FaultPlan plan(1752);
  plan.fail_when([&](nand::FaultOp op, std::uint32_t block, std::uint32_t) {
    return op == nand::FaultOp::kRead && block == unread;
  });
  dev.chip(0).set_fault_injector(&plan);
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kCorrupted);
  dev.chip(0).set_fault_injector(nullptr);
  EXPECT_GT(plan.stats().predicate_fails, 0u);
  EXPECT_EQ(dev.volume(0).hidden_blocks().count(unread), 0u);

  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    fill_public(dev, 1760 + 100 * pass);
  }
  ASSERT_GT(dev.chip(0).pec(unread), pec_before) << "the block was never collected";
  EXPECT_EQ(dev.volume(0).stats().lost_chunks, 0u);
  auto hidden = dev.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), payload);
}

TEST(HiddenRestart, PowerCutWithNothingPendingRescansAndLoads) {
  StashDevice dev(hidden_dev_config(), test_key());
  fill_public(dev, 1700);
  const auto payload = multi_chunk_payload(dev, 1701);
  ASSERT_TRUE(dev.store_hidden(payload).is_ok());
  const std::set<std::uint32_t> carriers = dev.volume(0).hidden_blocks();

  ASSERT_TRUE(dev.power_cycle().is_ok());
  EXPECT_TRUE(dev.volume(0).hidden_blocks().empty());
  auto hidden = dev.load_hidden();
  ASSERT_TRUE(hidden.is_ok()) << hidden.status().message();
  EXPECT_EQ(hidden.value(), payload);
  EXPECT_EQ(dev.volume(0).hidden_blocks(), carriers);
  EXPECT_EQ(dev.volume(0).stats().lost_chunks, 0u);
}

}  // namespace
}  // namespace stash::store
