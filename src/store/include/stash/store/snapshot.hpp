#pragma once
// stash::store — a checksummed, chunked snapshot format with two-generation
// atomic commit.
//
// Layout of a snapshot directory:
//
//   gen-0.stash / gen-1.stash   alternating full-state generations
//
// A generation file is [header][chunk]*[footer]:
//
//   header : magic "STSHSNP1" | version u32 | flags u32 | commit_seq u64 |
//            config_hash u64 | sha256(header bytes)
//   chunk  : "CHNK" | name (u64-len string) | payload (u64-len blob) |
//            sha256(name || payload)
//   footer : "FOOT" | chunk_count u64 | sha256(everything before footer)
//
// The digest-checked commit_seq in each 64-byte header is the only commit
// record, as LMDB opens whichever of its two meta pages is valid with the
// higher transaction id.  Commit discipline: a save overwrites the
// generation that does NOT hold the newest verified header, with
// commit_seq one past it — temp file, fsync, rename into place, fsync the
// directory.  The rename is the commit point: a crash before it leaves the
// previous generation untouched and newest, a crash after it leaves the
// new one complete.  Recovery validates the generation with the newer
// header end to end (every chunk checksum, the footer digest, exact EOF);
// on any mismatch it reports a clean kCorrupted and falls back to the
// other generation.  Corrupt state is never returned as data.
//
// The store knows nothing about chips or FTLs — it moves named byte chunks.
// Domain layers (FlashChip, PageMappedFtl, StegoVolume) serialize
// themselves with util::wire and StashDevice orchestrates which chunks make
// up a device snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include "stash/store/file_io.hpp"
#include "stash/util/status.hpp"

namespace stash::store {

using util::Result;
using util::Status;

struct Chunk {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

/// A fully validated generation: every chunk checksum, the footer digest
/// and the exact file length checked before any byte is handed out.
struct SnapshotData {
  std::uint64_t commit_seq = 0;
  std::uint64_t config_hash = 0;
  std::uint32_t generation = 0;
  std::vector<Chunk> chunks;  // file order

  [[nodiscard]] const std::vector<std::uint8_t>* find(
      const std::string& name) const noexcept {
    for (const Chunk& c : chunks) {
      if (c.name == name) return &c.bytes;
    }
    return nullptr;
  }
};

struct SaveInfo {
  std::string path;            // committed generation file
  std::uint32_t generation = 0;
  std::uint64_t commit_seq = 0;
  std::uint64_t bytes = 0;     // size of the generation file
};

class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] std::string generation_path(std::uint32_t gen) const;

  /// Atomically commit a new generation holding `chunks`.  On any failure
  /// (including injected faults) before the commit rename, the previous
  /// generation is untouched; the returned Status carries the failing
  /// syscall.
  Result<SaveInfo> save(std::uint64_t config_hash,
                        const std::vector<Chunk>& chunks,
                        FileFaultInjector* injector = nullptr);

  /// Load the newest loadable generation: the one whose header carries the
  /// higher commit_seq first, the other as fallback.  kNotFound when the
  /// directory holds no snapshot at all; kCorrupted when generations exist
  /// but none validates.
  [[nodiscard]] Result<SnapshotData> load_latest() const;

  /// Load (and fully validate) one specific generation.
  [[nodiscard]] Result<SnapshotData> load_generation(std::uint32_t gen) const;

 private:
  std::string dir_;
};

/// Serialize `chunks` into the generation-file byte image (exposed for
/// tests that want to corrupt precise offsets).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    std::uint64_t commit_seq, std::uint64_t config_hash,
    const std::vector<Chunk>& chunks);

/// Parse + fully validate a generation-file byte image.
[[nodiscard]] Result<SnapshotData> decode_snapshot(
    std::span<const std::uint8_t> bytes);

}  // namespace stash::store
