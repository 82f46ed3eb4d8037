#pragma once
// Page-mapping flash translation layer (paper §3): logical pages are
// remapped on every write, invalidated versions are garbage collected, and
// wear is leveled across blocks.  The steganographic layer (§9.2) sits on
// top of this and uses the pre-erase hook to lift hidden data out of a
// victim block and re-embed it elsewhere before that block is erased (§5.1:
// "The HU must either re-embed the hidden data in a new location ... before
// the old NU page containing it is permanently erased").

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "stash/nand/chip.hpp"
#include "stash/par/pool.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/util/batch.hpp"
#include "stash/util/status.hpp"

namespace stash::ftl {

using util::BatchResult;
using util::Result;
using util::Status;

/// GC triggers when free blocks drop to this count.
inline constexpr std::uint32_t kGcLowWatermark = 2;
/// Static wear leveling kicks in when (max PEC - min PEC) reaches this.
inline constexpr std::uint32_t kWearDeltaThreshold = 100;
/// Placement attempts for one page write before the FTL gives up.  Each
/// failed attempt burns the failed page and moves to another block.
inline constexpr std::uint32_t kMaxProgramRetries = 8;

struct FtlConfig {
  /// Fraction of physical blocks reserved as over-provisioning.
  double overprovision = 0.125;
  /// Program failures charged to one block before it is retired as
  /// grown-bad.  Failures persist across erases (they indicate physical
  /// damage, not stale data).  An erase failure retires immediately.
  std::uint32_t bad_block_program_fail_threshold = 2;

  /// Uniform config contract: every layer's config exposes validate(), and
  /// construction entry points check it (throwing std::invalid_argument on
  /// a non-OK status, the library's programming-error convention).
  [[nodiscard]] Status validate() const;
};

/// The FTL's counters, named once (see stash/telemetry/counter_table.hpp):
/// FtlStats, the per-instance table and its JSON keys are generated from
/// this list.
#define STASH_FTL_COUNTERS(X)                                          \
  X(host_writes)           /* pages written by the host */            \
  X(nand_writes)           /* pages physically programmed */          \
  X(gc_runs)                                                          \
  X(relocations)           /* valid pages moved by GC/WL */           \
  X(wear_swaps)                                                       \
  X(program_fail_rewrites) /* pages rewritten after kProgramFail */   \
  X(grown_bad_blocks)      /* blocks retired in the field */

/// Point-in-time FTL statistics (PageMappedFtl::stats_snapshot).
struct FtlStats {
  STASH_COUNTER_FIELDS("ftl", STASH_FTL_COUNTERS)

  [[nodiscard]] double write_amplification() const noexcept {
    return host_writes ? static_cast<double>(nand_writes) /
                             static_cast<double>(host_writes)
                       : 0.0;
  }
};

class PageMappedFtl {
 public:
  /// Called once per victim block (GC or wear leveling), before the first
  /// page moves and before the erase, while every cell is still intact:
  /// the last chance to lift hidden data out of the block, even one with
  /// no valid public pages.  A non-OK return refuses the erase: the victim
  /// keeps its pages, mappings and wear, and the collection ends with that
  /// status (allocate_page then fails only if no free block is left).
  using PreEraseHook = std::function<Status(std::uint32_t block)>;

  PageMappedFtl(nand::FlashChip& chip, FtlConfig config = {});

  /// Number of logical pages exposed to the host.
  [[nodiscard]] std::uint64_t logical_pages() const noexcept {
    return logical_pages_;
  }
  /// Bits (cells) per page — the host I/O unit.
  [[nodiscard]] std::uint32_t page_bits() const noexcept {
    return chip_->geometry().cells_per_page;
  }

  Status write(std::uint64_t lpn, std::span<const std::uint8_t> bits);
  /// Read one logical page: the page bits land in `dest` (>= page_bits()
  /// bytes, typically a dev::BufferArena slab), so the read allocates
  /// nothing.  OK carries the cells written; 0 means an injected fault
  /// interrupted the read (FlashChip::read_page_into).  kOutOfBounds /
  /// kNotFound for an lpn beyond capacity / never written; `dest` is
  /// unspecified then.
  Result<std::size_t> read_into(std::uint64_t lpn,
                                std::span<std::uint8_t> dest);
  Status trim(std::uint64_t lpn);

  // ---- Batch entry points (stash::par) -----------------------------------

  /// Read many logical pages, fanning the physical reads across the pool
  /// grouped by physical block (same-block reads stay in request order, so
  /// read-disturb noise is deterministic for any thread count).  Slot i's
  /// page lands in dests[i] (each >= page_bits() bytes), result i carrying
  /// the cells written as read_into does.  Follows the util::BatchResult
  /// convention (stash/util/batch.hpp): result i corresponds to lpns[i].
  /// The mapping tables must not be concurrently mutated: do not
  /// interleave with write()/trim()/run_gc().
  BatchResult<std::size_t> read_batch_into(
      std::span<const std::uint64_t> lpns, par::ThreadPool& pool,
      std::span<const std::span<std::uint8_t>> dests);

  /// Physical location of a logical page, if mapped.
  [[nodiscard]] std::optional<nand::PageAddr> locate(std::uint64_t lpn) const;

  void set_pre_erase_hook(PreEraseHook hook) {
    pre_erase_hook_ = std::move(hook);
  }

  /// Point-in-time snapshot of the per-instance counters.
  [[nodiscard]] FtlStats stats_snapshot() const noexcept {
    return counters_.snapshot();
  }
  [[nodiscard]] std::uint32_t free_blocks() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }
  /// True when `block` has been retired as grown-bad.
  [[nodiscard]] bool is_retired(std::uint32_t block) const noexcept {
    return block < bad_.size() && bad_[block];
  }

  /// Force a garbage-collection pass (also runs automatically on demand).
  /// With no block worth collecting it does nothing and returns OK.
  Status run_gc();

  // ---- Persistence (stash::store) ----------------------------------------
  /// Canonical serialization of the full mapping state: l2p/p2l tables,
  /// per-block valid counts, the free list *in order* (future allocations
  /// pop from its back, so order is part of the determinism contract),
  /// grown-bad set, per-block program-failure charges, and the active
  /// write point.  Telemetry counters are observability, not state, and
  /// are not captured.
  void serialize_state(std::vector<std::uint8_t>& out) const;
  /// Replace the mapping state from a serialize_state record.  kCorrupted
  /// on malformed or geometry-mismatched input; the FTL is unchanged on
  /// failure.
  Status deserialize_state(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::uint64_t kUnmapped = ~0ULL;

  [[nodiscard]] std::uint64_t phys_index(nand::PageAddr addr) const noexcept {
    return static_cast<std::uint64_t>(addr.block) *
               chip_->geometry().pages_per_block +
           addr.page;
  }

  Result<nand::PageAddr> allocate_page();
  /// Place one page, rewriting elsewhere on kProgramFail and charging each
  /// failure to the block it happened on (the recovery path the paper's
  /// hostile-substrate premise demands).
  Result<nand::PageAddr> program_with_recovery(
      std::span<const std::uint8_t> bits);
  void note_program_failure(std::uint32_t block);
  /// Mark a block grown-bad, pull it out of circulation, and move any valid
  /// data still on it (the block stays readable — only program/erase fail).
  Status retire_block(std::uint32_t block);
  /// Relocate every valid page off `block` without erasing it.
  Status drain_block(std::uint32_t block);
  /// The one way a block leaves service (GC and wear leveling): count the
  /// pass in `counter`, call the hook, drain, then erase or retire the
  /// victim.  kNoSpace when re-entered or short of slack.
  Status collect(std::uint32_t victim, FtlStats::Field counter);
  Status maybe_wear_level();
  [[nodiscard]] std::uint32_t pick_gc_victim() const;

  nand::FlashChip* chip_;
  FtlConfig config_;
  std::uint64_t logical_pages_;

  std::vector<std::uint64_t> l2p_;        // lpn -> phys index (or kUnmapped)
  std::vector<std::uint64_t> p2l_;        // phys index -> lpn (or kUnmapped)
  std::vector<std::uint32_t> valid_count_;  // per block
  std::vector<std::uint32_t> free_;         // free block list
  std::vector<bool> bad_;                   // grown-bad (retired) blocks
  std::vector<std::uint32_t> block_program_fails_;  // persists across erases
  std::optional<std::uint32_t> active_block_;
  std::uint32_t active_next_page_ = 0;
  bool gc_active_ = false;  // prevents re-entrant collection
  PreEraseHook pre_erase_hook_;

  // Per-instance counts: a multi-chip device runs one FTL per chip, and
  // each reports its own write amplification.
  telemetry::CounterTable<FtlStats> counters_;
};

}  // namespace stash::ftl
