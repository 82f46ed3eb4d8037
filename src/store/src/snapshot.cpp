#include "stash/store/snapshot.hpp"

#include <algorithm>
#include <array>

#include "stash/crypto/sha256.hpp"
#include "stash/util/wire.hpp"

namespace stash::store {

using util::ByteReader;
using util::ByteWriter;
using util::ErrorCode;

namespace {

constexpr std::array<std::uint8_t, 8> kFileMagic = {'S', 'T', 'S', 'H',
                                                    'S', 'N', 'P', '1'};
constexpr std::array<std::uint8_t, 4> kChunkMagic = {'C', 'H', 'N', 'K'};
constexpr std::array<std::uint8_t, 4> kFooterMagic = {'F', 'O', 'O', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kDigestBytes = 32;
/// magic | version | flags | commit_seq | config_hash | sha256 of those.
constexpr std::size_t kHeaderBody = 8 + 4 + 4 + 8 + 8;
constexpr std::size_t kHeaderBytes = kHeaderBody + kDigestBytes;
/// One fault-injectable write syscall per slab: big chunks get torn-write
/// truncation points *inside* them, not just at chunk boundaries.
constexpr std::size_t kWriteSlab = 64 * 1024;

Status corrupted(std::string what) {
  return {ErrorCode::kCorrupted, std::move(what)};
}

crypto::Digest256 chunk_digest(const Chunk& chunk) {
  crypto::Sha256 h;
  h.update(chunk.name);
  h.update(chunk.bytes);
  return h.finish();
}

Status read_digest(ByteReader& r, crypto::Digest256& out) {
  return r.raw(out);
}

struct Header {
  std::uint64_t commit_seq = 0;
  std::uint64_t config_hash = 0;
};

/// Parse and verify the 64-byte generation header: the one header parser,
/// used by the full decode and by the save/load probe that reads nothing
/// else of the file.
Result<Header> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return corrupted("snapshot shorter than its header");
  }
  ByteReader r(bytes.first(kHeaderBytes));
  std::array<std::uint8_t, 8> magic{};
  STASH_RETURN_IF_ERROR(r.raw(magic));
  if (magic != kFileMagic) return corrupted("bad snapshot magic");
  Header header;
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  STASH_RETURN_IF_ERROR(r.u32(version));
  STASH_RETURN_IF_ERROR(r.u32(flags));
  STASH_RETURN_IF_ERROR(r.u64(header.commit_seq));
  STASH_RETURN_IF_ERROR(r.u64(header.config_hash));
  crypto::Digest256 stored{};
  STASH_RETURN_IF_ERROR(read_digest(r, stored));
  if (crypto::Sha256::hash(bytes.first(kHeaderBody)) != stored) {
    return corrupted("snapshot header digest mismatch");
  }
  if (version != kVersion) return corrupted("unsupported snapshot version");
  if (flags != 0) return corrupted("unsupported snapshot flags");
  return header;
}

/// The generation whose header verifies with the higher commit_seq, and
/// that seq; gen 1 and seq 0 when neither header verifies.
struct Newest {
  std::uint32_t gen = 1;
  std::uint64_t commit_seq = 0;
};

Newest newest_header(const SnapshotStore& store) {
  Newest newest;
  for (std::uint32_t gen = 0; gen < 2; ++gen) {
    auto bytes = read_file(store.generation_path(gen), kHeaderBytes);
    if (!bytes.is_ok()) continue;
    auto header = decode_header(bytes.value());
    if (header.is_ok() && header.value().commit_seq >= newest.commit_seq) {
      newest = {gen, header.value().commit_seq};
    }
  }
  return newest;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(std::uint64_t commit_seq,
                                          std::uint64_t config_hash,
                                          const std::vector<Chunk>& chunks) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.raw(kFileMagic);
  w.u32(kVersion);
  w.u32(0);  // flags
  w.u64(commit_seq);
  w.u64(config_hash);
  w.raw(crypto::Sha256::hash({out.data(), out.size()}));
  for (const Chunk& chunk : chunks) {
    w.raw(kChunkMagic);
    w.str(chunk.name);
    w.blob(chunk.bytes);
    w.raw(chunk_digest(chunk));
  }
  const std::size_t body_end = out.size();
  w.raw(kFooterMagic);
  w.u64(chunks.size());
  w.raw(crypto::Sha256::hash({out.data(), body_end}));
  return out;
}

Result<SnapshotData> decode_snapshot(std::span<const std::uint8_t> bytes) {
  auto header = decode_header(bytes);
  if (!header.is_ok()) return header.status();
  SnapshotData snap;
  snap.commit_seq = header.value().commit_seq;
  snap.config_hash = header.value().config_hash;

  ByteReader r(bytes.subspan(kHeaderBytes));
  crypto::Digest256 stored{};
  for (;;) {
    std::array<std::uint8_t, 4> tag{};
    STASH_RETURN_IF_ERROR(r.raw(tag));
    if (tag == kFooterMagic) {
      const std::size_t body_end = bytes.size() - r.remaining() - 4;
      std::uint64_t count = 0;
      STASH_RETURN_IF_ERROR(r.u64(count));
      STASH_RETURN_IF_ERROR(read_digest(r, stored));
      if (count != snap.chunks.size()) {
        return corrupted("snapshot chunk count mismatch");
      }
      if (crypto::Sha256::hash({bytes.data(), body_end}) != stored) {
        return corrupted("snapshot footer digest mismatch");
      }
      // Exact EOF: bytes appended past the footer are corruption too.
      STASH_RETURN_IF_ERROR(r.expect_exhausted());
      return snap;
    }
    if (tag != kChunkMagic) return corrupted("bad chunk magic");
    Chunk chunk;
    STASH_RETURN_IF_ERROR(r.str(chunk.name));
    STASH_RETURN_IF_ERROR(r.blob(chunk.bytes));
    STASH_RETURN_IF_ERROR(read_digest(r, stored));
    if (chunk_digest(chunk) != stored) {
      return corrupted("chunk digest mismatch: " + chunk.name);
    }
    snap.chunks.push_back(std::move(chunk));
  }
}

std::string SnapshotStore::generation_path(std::uint32_t gen) const {
  return dir_ + "/gen-" + std::to_string(gen) + ".stash";
}

Result<SaveInfo> SnapshotStore::save(std::uint64_t config_hash,
                                     const std::vector<Chunk>& chunks,
                                     FileFaultInjector* injector) {
  STASH_RETURN_IF_ERROR(ensure_dir(dir_));

  // Overwrite the generation that does NOT hold the newest commit, so a
  // crash anywhere below leaves that one intact.
  const Newest newest = newest_header(*this);
  const std::uint32_t target = 1 - newest.gen;
  const std::uint64_t seq = newest.commit_seq + 1;

  const std::vector<std::uint8_t> image =
      encode_snapshot(seq, config_hash, chunks);
  const std::string path = generation_path(target);
  const std::string tmp = path + ".tmp";
  OutputFile f;
  STASH_RETURN_IF_ERROR(f.open(tmp, injector));
  for (std::size_t off = 0; off < image.size(); off += kWriteSlab) {
    const std::size_t n = std::min(kWriteSlab, image.size() - off);
    STASH_RETURN_IF_ERROR(f.write({image.data() + off, n}));
  }
  STASH_RETURN_IF_ERROR(f.fsync());
  f.close();
  // The commit point: the rename makes the new header the newest one.
  STASH_RETURN_IF_ERROR(faulty_rename(tmp, path, injector));
  STASH_RETURN_IF_ERROR(fsync_parent_dir(path, injector));
  return SaveInfo{path, target, seq, image.size()};
}

Result<SnapshotData> SnapshotStore::load_generation(std::uint32_t gen) const {
  auto bytes = read_file(generation_path(gen));
  if (!bytes.is_ok()) return bytes.status();
  auto snap = decode_snapshot(
      {bytes.value().data(), bytes.value().size()});
  if (!snap.is_ok()) return snap.status();
  SnapshotData out = std::move(snap).take();
  out.generation = gen;
  return out;
}

Result<SnapshotData> SnapshotStore::load_latest() const {
  if (!file_exists(generation_path(0)) && !file_exists(generation_path(1))) {
    return Status{ErrorCode::kNotFound,
                  "no snapshot generations in '" + dir_ + "'"};
  }
  // Newest header first; any mismatch in its body falls back to the other.
  const std::uint32_t first = newest_header(*this).gen;
  for (const std::uint32_t gen : {first, 1 - first}) {
    if (auto snap = load_generation(gen); snap.is_ok()) return snap;
  }
  return Status{ErrorCode::kCorrupted,
                "no loadable snapshot generation in '" + dir_ + "'"};
}

}  // namespace stash::store
