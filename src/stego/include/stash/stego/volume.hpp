#pragma once
// StegoVolume: the §9.2 steganographic system sketched by the paper, made
// concrete.  A publicly visible volume (page-mapped FTL over the flash
// chip, assumed encrypted by the normal user) coexists with a hidden volume
// embedded in the voltage levels of the public pages via VT-HI.
//
// Properties reproduced from the paper:
//  * Key-only recovery: no persistent metadata — mounting scans candidate
//    blocks and authenticates chunks with the hiding key (§9.2 "Metadata
//    Persistence and Security").  The carrier set lives only in RAM; after
//    a restore or a power cut the volume finds it by key again.
//  * Migration survival: when the FTL garbage-collects or wear-levels a
//    block carrying hidden data, the volume rescues the chunk before the
//    erase and re-embeds it into freshly written public data (§5.1).  A
//    carrier the chip cannot read at that moment is not erased.
//  * Panic erase: destroying the hidden volume is one erase per block
//    ("almost instantaneous", §1).
//
// The hidden payload has one framing: per-block chunks of
// [index u16][total u16][data], each authenticated by the VT-HI frame MAC.
// The free store_hidden / load_hidden / hidden_capacity_bytes below number
// one chunk set across several volumes (a device's chips); a volume's own
// members are their one-volume case.

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/nand/chip.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/util/status.hpp"
#include "stash/vthi/codec.hpp"

namespace stash::stego {

using util::Result;
using util::Status;

/// The volume's counters: hidden chunks lifted out of GC victims,
/// re-embedded into new blocks, lost (read at rescue but not authentic, or
/// rescued and dropped by a power cut before a new home took them), and
/// embeds whose read-back verification failed (worn carrier rejected; the
/// chunk was retried elsewhere or kept pending, never lost).
#define STASH_STEGO_COUNTERS(X) \
  X(rescues) X(reembeds) X(lost_chunks) X(failed_embeds)

struct StegoStats {
  STASH_COUNTER_FIELDS("stego", STASH_STEGO_COUNTERS)
};

/// Aggregate configuration of one steganographic volume: the public FTL's
/// knobs plus the hidden channel's.  Follows the uniform config contract
/// (see FtlConfig::validate): validate() is checked by the StegoVolume
/// constructor, which throws std::invalid_argument on a non-OK status.
struct StegoConfig {
  ftl::FtlConfig ftl;
  vthi::VthiConfig vthi = vthi::VthiConfig::production();

  [[nodiscard]] Status validate() const {
    STASH_RETURN_IF_ERROR(ftl.validate());
    return vthi.validate();
  }
};

class StegoVolume;

/// The volumes one hidden payload spans, in order (a device's chips).
using Volumes = std::span<StegoVolume* const>;

/// Store (or atomically replace) the hidden payload of `volumes`.  The
/// payload is split into chunks numbered across all of them, which fill
/// volume 0's eligible blocks first, then volume 1's, and so on.  Every new
/// chunk is embedded and read back before the previous generation is
/// scrubbed, so a failed store leaves the old payload loadable; kNoSpace
/// before any block is touched when the eligible blocks cannot take it.  A
/// volume that takes no chunk is cleared with discard_hidden().
Status store_hidden(Volumes volumes, std::span<const std::uint8_t> data);

/// Recover the hidden payload of `volumes` with nothing but the key: every
/// volume's carriers (found by a key-only scan where it tracks none) and
/// rescued chunks awaiting a new carrier, reassembled once in index order.
/// kNotFound when no volume holds a chunk; kCorrupted when the chunks are
/// not one complete set (an index missing or twice, totals that differ).
Result<std::vector<std::uint8_t>> load_hidden(Volumes volumes);

/// Payload bytes store_hidden(volumes, ...) could accept right now.
[[nodiscard]] std::size_t hidden_capacity_bytes(Volumes volumes);

class StegoVolume {
 public:
  StegoVolume(nand::FlashChip& chip, const crypto::HidingKey& key,
              StegoConfig config = {});

  // ---- Public (normal user) volume ---------------------------------------
  Status write_public(std::uint64_t lpn, std::span<const std::uint8_t> bits);
  Result<std::vector<std::uint8_t>> read_public(std::uint64_t lpn);
  [[nodiscard]] std::uint64_t public_pages() const noexcept {
    return ftl_.logical_pages();
  }
  [[nodiscard]] std::uint32_t page_bits() const noexcept {
    return ftl_.page_bits();
  }

  // ---- Hidden (hiding user) volume ---------------------------------------

  /// Store (or atomically replace) the hidden payload: the one-volume case
  /// of stego::store_hidden below.
  Status store_hidden(std::span<const std::uint8_t> data);

  /// Scrub and untrack every hidden chunk (locating them with a key-only
  /// scan first when this instance tracks none).  Unlike panic_erase the
  /// public data sharing the carrier blocks is left intact.
  Status discard_hidden();

  /// Recover the hidden payload with nothing but the key: the one-volume
  /// case of stego::load_hidden below.
  Result<std::vector<std::uint8_t>> load_hidden();

  /// Destroy all hidden data (and the public data sharing its blocks),
  /// scanning for forgotten carriers first.  Returns the scan's status: a
  /// block the chip did not serve may still carry a chunk, so a retry
  /// scans again.
  Status panic_erase();

  /// Re-embed any chunks rescued from relocated blocks.  Called
  /// automatically after public writes; exposed for deterministic tests.
  Status reembed_pending();
  /// Rescued chunks still waiting for a new carrier.
  [[nodiscard]] std::size_t pending_chunks() const noexcept {
    return pending_.size();
  }

  /// Drop the carrier set and the rescued chunks awaiting a home, as a
  /// restart does: only RAM holds them.  The next operation that needs the
  /// carriers (a hidden store, load, discard or panic erase, a capacity
  /// query, or GC of any block) finds them with a key-only scan.
  /// `pending_lost` counts the dropped chunks in lost_chunks: a power cut
  /// destroys them, while a snapshot restore rewinds to before them.
  void forget_carriers(bool pending_lost);

  [[nodiscard]] std::size_t hidden_chunk_capacity() const;
  /// Payload bytes store_hidden() could accept right now: per-chunk
  /// capacity times the blocks currently eligible to carry a chunk.
  [[nodiscard]] std::size_t hidden_capacity_bytes();
  [[nodiscard]] const StegoStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ftl::FtlStats ftl_stats_snapshot() const noexcept {
    return ftl_.stats_snapshot();
  }
  /// The public FTL beneath this volume (batch reads, GC, locate).
  [[nodiscard]] ftl::PageMappedFtl& ftl() noexcept { return ftl_; }
  [[nodiscard]] const std::set<std::uint32_t>& hidden_blocks() const noexcept {
    return hidden_blocks_;
  }

 private:
  friend Status store_hidden(Volumes, std::span<const std::uint8_t>);
  friend Result<std::vector<std::uint8_t>> load_hidden(Volumes);
  friend std::size_t hidden_capacity_bytes(Volumes);

  struct Chunk {
    std::uint16_t index = 0;
    std::uint16_t total = 0;
    std::vector<std::uint8_t> data;
  };

  static constexpr std::size_t kChunkHeaderBytes = 4;

  [[nodiscard]] std::vector<std::uint8_t> pack_chunk(const Chunk& chunk) const;
  [[nodiscard]] static std::optional<Chunk> unpack_chunk(
      std::span<const std::uint8_t> payload);

  /// Reveal the tracked carriers or, when none are tracked or the set is
  /// unknown, scan every fully programmed block by key and adopt each one
  /// that yields a chunk, appending the chunks to `found` (when non-null).
  /// A scan makes the carrier set known only when the chip served every
  /// probe: a block it did not serve (a read fault, a power cut) may be a
  /// carrier, so the next operation scans again.  Returns the first status
  /// the chip did not serve, or OK.
  Status reveal_carriers(std::vector<Chunk>* found);
  /// Resolve a forgotten carrier set with the key-only scan (its status).
  Status find_carriers();

  /// Blocks whose hidden pages are all programmed with public data and that
  /// do not already carry a hidden chunk.
  [[nodiscard]] std::vector<std::uint32_t> eligible_blocks();
  [[nodiscard]] bool block_fully_programmed(std::uint32_t block) const;

  /// The FTL's pre-erase hook: rescue a carrier's chunk into pending_.
  /// Refuses the erase while the carrier set is unknown after its scan, or
  /// when the chip did not serve the carrier's reveal.
  Status on_relocation(std::uint32_t block);

  /// Embed `chunk` into `block` and read it back through the full reveal
  /// path.  Only a verified embedding claims the block; a failed one marks
  /// the carrier bad for this chunk and the caller tries elsewhere.
  bool embed_verified(std::uint32_t block, const Chunk& chunk);

  /// Best-effort release of a superseded carrier: overwrite the embedding
  /// with a tombstone frame whose chunk header is invalid.  Partial
  /// programming only raises voltages, so the overwrite scrambles the old
  /// codewords; whether the tombstone itself survives reveal or not, the
  /// block no longer yields a valid chunk to a key-only scan.
  void scrub_block(std::uint32_t block);

  nand::FlashChip* chip_;
  ftl::PageMappedFtl ftl_;
  vthi::VthiCodec codec_;
  std::set<std::uint32_t> hidden_blocks_;
  std::vector<Chunk> pending_;  // rescued, waiting for a new home
  /// False after forget_carriers() until a key-only scan that the chip
  /// served in full; while false, hidden_blocks_ may miss carriers.
  bool carriers_known_ = true;
  StegoStats stats_;
};

}  // namespace stash::stego
