#pragma once
// stash::pack — the hidden-capacity multiplier: content-defined-chunking
// dedup + entropy coding in front of the VT-HI stego path.
//
// Hidden capacity is the paper's scarcest resource (~1.1% of the device),
// so every hidden byte that never has to be embedded multiplies what the
// channel can hold.  pack() runs a three-stage pipeline:
//
//   1. CDC chunking (chunker.hpp): boundaries survive inserts/deletes.
//   2. SHA-256 dedup: identical chunks are stored once (srep-style
//      large-window dedup — the window is the whole payload).
//   3. LZ + adaptive range coding (codec.hpp) over the concatenated
//      unique chunks; per-container the smaller of {stored, LZ, LZ+RC}
//      is kept, so incompressible payloads pay only the header.
//
// The result is a self-describing versioned container that rides through
// the existing hidden-volume MAC/framing unchanged.  unpack() verifies
// structure at every step and the SHA-256 of the reassembled payload last,
// so *any* truncation or bit damage yields kCorrupted (or kUnsupported for
// a well-formed container of a newer format) — never garbage bytes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stash/pack/chunker.hpp"
#include "stash/util/status.hpp"

namespace stash::pack {

using util::Result;
using util::Status;

/// Container format version this build writes and reads.
constexpr std::uint8_t kFormatVersion = 1;

/// Payload encoding of a container (pick-smallest, recorded per container).
enum class Method : std::uint8_t {
  kStored = 0,   // unique chunk stream as-is
  kLz = 1,       // LZ token stream
  kLzRc = 2,     // range-coded LZ token stream
};

/// Pack pipeline knobs.  Uniform config contract: validated through the
/// owning DeviceConfig::validate().
struct PackConfig {
  ChunkerConfig chunker{};

  [[nodiscard]] Status validate() const { return chunker.validate(); }
};

/// What one pack() run did (or, via inspect(), what a container records).
struct PackStats {
  std::uint64_t logical_bytes = 0;  // payload in
  std::uint64_t packed_bytes = 0;   // container out
  std::uint64_t chunks = 0;         // CDC chunks in the payload
  std::uint64_t unique_chunks = 0;  // after dedup
  std::uint64_t unique_bytes = 0;   // bytes of the deduped chunk stream
  std::uint8_t method = 0;          // Method actually used

  /// Logical bytes per stored unique byte (1.0 = no dedup win).
  [[nodiscard]] double dedup_ratio() const noexcept {
    return unique_bytes
               ? static_cast<double>(logical_bytes) /
                     static_cast<double>(unique_bytes)
               : 1.0;
  }
  /// Effective hidden-capacity multiplier: logical bytes stored per
  /// container byte actually embedded.
  [[nodiscard]] double multiplier() const noexcept {
    return packed_bytes ? static_cast<double>(logical_bytes) /
                              static_cast<double>(packed_bytes)
                        : 1.0;
  }
};

/// Pack `data` into a container.  Deterministic: same bytes + config, same
/// container, on any thread count.  Optional `stats` reports the outcome.
[[nodiscard]] Result<std::vector<std::uint8_t>> pack(
    std::span<const std::uint8_t> data, const PackConfig& config,
    PackStats* stats = nullptr);

/// Reverse pack().  kCorrupted on any structural damage, size mismatch, or
/// payload-digest mismatch; kUnsupported for a well-formed header of a
/// format version newer than kFormatVersion.  Never returns wrong bytes.
[[nodiscard]] Result<std::vector<std::uint8_t>> unpack(
    std::span<const std::uint8_t> container);

/// Parse just the container header (counts and sizes, no decode).  Same
/// error contract as unpack() minus the payload checks.
[[nodiscard]] Result<PackStats> inspect(
    std::span<const std::uint8_t> container);

}  // namespace stash::pack
