#pragma once
// Configuration of the stash::dev::StashDevice frontend — the one serving
// surface over the whole stack (N FlashChips -> per-chip FTL + StegoVolume).
// Follows the uniform config contract: validate() is checked by the
// StashDevice constructor, which throws std::invalid_argument on a non-OK
// status; the nested FtlConfig/VthiConfig validate through it.

#include <cstdint>

#include "stash/ftl/ftl.hpp"
#include "stash/nand/geometry.hpp"
#include "stash/nand/noise.hpp"
#include "stash/pack/pack.hpp"
#include "stash/util/status.hpp"
#include "stash/vthi/config.hpp"

namespace stash::dev {

/// Requests coalesced into one dispatch round.  The round runs inline on
/// the submitting caller once this many requests are queued (backpressure:
/// the producer pays for the drain), or when a caller drains.
inline constexpr std::size_t kBatchPages = 16;

struct DeviceConfig {
  // ---- Substrate ----------------------------------------------------------
  nand::Geometry geometry = nand::Geometry::tiny();
  nand::OpCosts costs{};
  /// Root seed: chip i of the array is seeded from (seed, i), so the whole
  /// device is reproducible from this one value.
  std::uint64_t seed = 0x57a5Fdeb1ceULL;
  std::uint32_t chips = 1;
  /// Threads for batch fan-out, counting the dispatching caller (so
  /// threads - 1 workers); <= 1 runs everything inline on the submitting
  /// thread (the fully serial reference schedule).  Results are
  /// byte-identical for any value — see stash::par.
  unsigned threads = 1;

  // ---- Caching ------------------------------------------------------------
  /// Read LRU capacity in pages; 0 disables the cache.
  std::size_t read_cache_pages = 256;
  /// Write-back buffer capacity in pages (>= 1); reaching it forces a
  /// flush (backpressure).  1 makes every write durable before write()
  /// returns.
  std::size_t write_back_pages = 64;

  // ---- Per-chip layers ----------------------------------------------------
  ftl::FtlConfig ftl{};
  vthi::VthiConfig vthi = vthi::VthiConfig::production();

  // ---- Hidden-capacity packing --------------------------------------------
  /// Dedup + compression stage in front of the stego path (stash::pack).
  /// store_hidden always embeds a versioned pack container; load reverses
  /// it transparently.
  pack::PackConfig pack{};

  [[nodiscard]] util::Status validate() const {
    using util::ErrorCode;
    using util::Status;
    if (geometry.blocks == 0 || geometry.pages_per_block == 0 ||
        geometry.cells_per_page == 0) {
      return Status{ErrorCode::kInvalidArgument,
                    "DeviceConfig: geometry dimensions must be non-zero"};
    }
    if (chips == 0) {
      return Status{ErrorCode::kInvalidArgument,
                    "DeviceConfig: chips must be >= 1"};
    }
    if (write_back_pages == 0) {
      return Status{ErrorCode::kInvalidArgument,
                    "DeviceConfig: write_back_pages must be >= 1"};
    }
    STASH_RETURN_IF_ERROR(ftl.validate());
    STASH_RETURN_IF_ERROR(vthi.validate());
    return pack.validate();
  }
};

}  // namespace stash::dev
