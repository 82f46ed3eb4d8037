#include "stash/ftl/ftl.hpp"

#include <algorithm>
#include <limits>

#include "stash/trace/trace.hpp"
#include "stash/util/wire.hpp"

namespace stash::ftl {

using nand::PageAddr;
using util::ErrorCode;
using F = FtlStats::Field;

Status FtlConfig::validate() const {
  if (!(overprovision >= 0.0) || overprovision >= 1.0) {
    return {ErrorCode::kInvalidArgument,
            "FtlConfig: overprovision must be in [0, 1)"};
  }
  if (gc_low_watermark == 0) {
    return {ErrorCode::kInvalidArgument,
            "FtlConfig: gc_low_watermark must be >= 1"};
  }
  if (bad_block_program_fail_threshold == 0) {
    return {ErrorCode::kInvalidArgument,
            "FtlConfig: bad_block_program_fail_threshold must be >= 1"};
  }
  if (max_program_retries == 0) {
    return {ErrorCode::kInvalidArgument,
            "FtlConfig: max_program_retries must be >= 1"};
  }
  return Status::ok();
}

PageMappedFtl::PageMappedFtl(nand::FlashChip& chip, FtlConfig config)
    : chip_(&chip), config_(config) {
  if (const Status valid = config_.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
  const auto& geom = chip.geometry();
  const auto op_blocks = static_cast<std::uint32_t>(
      static_cast<double>(geom.blocks) * config_.overprovision);
  const std::uint32_t user_blocks =
      geom.blocks > op_blocks + 1 ? geom.blocks - op_blocks : 1;
  logical_pages_ =
      static_cast<std::uint64_t>(user_blocks) * geom.pages_per_block;

  l2p_.assign(logical_pages_, kUnmapped);
  p2l_.assign(static_cast<std::size_t>(geom.blocks) * geom.pages_per_block,
              kUnmapped);
  valid_count_.assign(geom.blocks, 0);
  bad_.assign(geom.blocks, false);
  block_program_fails_.assign(geom.blocks, 0);
  free_.resize(geom.blocks);
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    free_[b] = geom.blocks - 1 - b;  // pop_back() hands out block 0 first
  }
}

Result<PageAddr> PageMappedFtl::allocate_page() {
  const auto& geom = chip_->geometry();
  if (!active_block_ || active_next_page_ >= geom.pages_per_block) {
    if (!gc_active_) {
      // Collect until the free pool is healthy again.  Each pass frees its
      // victim but may consume free space relocating valid pages, so guard
      // against a stuck state where no pass makes net progress.
      std::uint32_t guard = geom.blocks * 2;
      while (free_.size() <= config_.gc_low_watermark && guard-- > 0) {
        const Status collected = run_gc();
        if (!collected.is_ok()) {
          if (free_.empty()) return collected;
          break;
        }
      }
    }
    if (free_.empty()) {
      return Status{ErrorCode::kNoSpace, "no free blocks"};
    }
    active_block_ = free_.back();
    free_.pop_back();
    active_next_page_ = 0;
  }
  return PageAddr{*active_block_, active_next_page_++};
}

Result<PageAddr> PageMappedFtl::program_with_recovery(
    std::span<const std::uint8_t> bits) {
  for (std::uint32_t attempt = 0; attempt <= config_.max_program_retries;
       ++attempt) {
    auto addr = allocate_page();
    if (!addr.is_ok()) return addr.status();
    const PageAddr dst = addr.value();
    const Status programmed = chip_->program_page(dst.block, dst.page, bits);
    if (programmed.is_ok()) return dst;
    if (programmed.code() != ErrorCode::kProgramFail) return programmed;
    // The failed attempt consumed dst: the page may hold partial charge and
    // only an erase reclaims it.  Charge the failure to its block and place
    // the data elsewhere.
    counters_.add(F::program_fail_rewrites);
    note_program_failure(dst.block);
  }
  return Status{ErrorCode::kProgramFail, "page placement exhausted retries"};
}

void PageMappedFtl::note_program_failure(std::uint32_t block) {
  ++block_program_fails_[block];
  if (!bad_[block] &&
      block_program_fails_[block] >= config_.bad_block_program_fail_threshold) {
    // Best-effort: retirement drains the block, and a drain failure leaves
    // the mappings intact for a later GC pass to retry.
    (void)retire_block(block);
  }
}

Status PageMappedFtl::retire_block(std::uint32_t block) {
  if (bad_[block]) return Status::ok();
  bad_[block] = true;
  counters_.add(F::grown_bad_blocks);
  free_.erase(std::remove(free_.begin(), free_.end(), block), free_.end());
  if (active_block_ && *active_block_ == block) {
    active_block_.reset();
    active_next_page_ = 0;
  }
  // A grown-bad block rejects programs and erases but its cells still read;
  // move whatever is valid while that holds.
  return drain_block(block);
}

Status PageMappedFtl::drain_block(std::uint32_t block) {
  const auto& geom = chip_->geometry();
  for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
    const std::uint64_t phys =
        static_cast<std::uint64_t>(block) * geom.pages_per_block + p;
    const std::uint64_t lpn = p2l_[phys];
    if (lpn == kUnmapped) continue;

    const auto data = chip_->read_page(block, p);
    auto dst = program_with_recovery(data);
    if (!dst.is_ok()) return dst.status();
    const PageAddr to = dst.value();
    if (hook_) hook_(PageAddr{block, p}, to, data);

    p2l_[phys] = kUnmapped;
    --valid_count_[block];
    l2p_[lpn] = phys_index(to);
    p2l_[phys_index(to)] = lpn;
    ++valid_count_[to.block];
    counters_.add(F::nand_writes);
    counters_.add(F::relocations);
  }
  return Status::ok();
}

Status PageMappedFtl::write(std::uint64_t lpn,
                            std::span<const std::uint8_t> bits) {
  if (lpn >= logical_pages_) {
    return {ErrorCode::kOutOfBounds, "lpn beyond logical capacity"};
  }
  if (bits.size() != page_bits()) {
    return {ErrorCode::kInvalidArgument, "write size != page size"};
  }
  trace::ScopedSpan span(trace::Stage::kFtlWrite, trace::Op::kWrite, lpn,
                         bits.size() / 8);

  auto placed = program_with_recovery(bits);
  if (!placed.is_ok()) {
    span.set_status(static_cast<std::uint8_t>(placed.status().code()));
    return placed.status();
  }
  const PageAddr dst = placed.value();

  // Invalidate the old copy after the new one is durable.
  if (l2p_[lpn] != kUnmapped) {
    const std::uint64_t old = l2p_[lpn];
    p2l_[old] = kUnmapped;
    const auto old_block =
        static_cast<std::uint32_t>(old / chip_->geometry().pages_per_block);
    --valid_count_[old_block];
  }
  l2p_[lpn] = phys_index(dst);
  p2l_[phys_index(dst)] = lpn;
  ++valid_count_[dst.block];
  counters_.add(F::host_writes);
  counters_.add(F::nand_writes);

  STASH_RETURN_IF_ERROR(maybe_wear_level());
  return Status::ok();
}

Result<std::size_t> PageMappedFtl::read_into(std::uint64_t lpn,
                                             std::span<std::uint8_t> dest) {
  if (lpn >= logical_pages_) {
    return Status{ErrorCode::kOutOfBounds, "lpn beyond logical capacity"};
  }
  if (l2p_[lpn] == kUnmapped) {
    return Status{ErrorCode::kNotFound, "logical page not written"};
  }
  const std::uint64_t phys = l2p_[lpn];
  const auto& geom = chip_->geometry();
  return chip_->read_page_into(
      static_cast<std::uint32_t>(phys / geom.pages_per_block),
      static_cast<std::uint32_t>(phys % geom.pages_per_block), dest);
}

BatchResult<std::size_t> PageMappedFtl::read_batch_into(
    std::span<const std::uint64_t> lpns, par::ThreadPool& pool,
    std::span<const std::span<std::uint8_t>> dests) {
  const auto& geom = chip_->geometry();
  // Group request indices by the physical block backing each lpn
  // (first-appearance order); unmapped/out-of-range lpns resolve inline.
  // Dispatch batches are small (the device caps them at batch_pages), so a
  // linear scan of the blocks seen so far beats a hash map — no node
  // allocations on the read tail.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::optional<Result<std::size_t>>> slots(lpns.size());
  std::vector<std::uint32_t> group_block;
  groups.reserve(lpns.size());
  group_block.reserve(lpns.size());
  for (std::size_t i = 0; i < lpns.size(); ++i) {
    if (lpns[i] >= logical_pages_ || l2p_[lpns[i]] == kUnmapped) {
      slots[i].emplace(read_into(lpns[i], dests[i]));
      continue;
    }
    const auto block =
        static_cast<std::uint32_t>(l2p_[lpns[i]] / geom.pages_per_block);
    std::size_t g = 0;
    while (g < group_block.size() && group_block[g] != block) ++g;
    if (g == group_block.size()) {
      groups.emplace_back();
      group_block.push_back(block);
    }
    groups[g].push_back(i);
  }
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    trace::ScopedSpan span(trace::Stage::kFtlReadBatch, trace::Op::kRead,
                           group_block[g],
                           groups[g].size() * (page_bits() / 8));
    for (const std::size_t i : groups[g]) {
      slots[i].emplace(read_into(lpns[i], dests[i]));
    }
  });
  BatchResult<std::size_t> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

BatchStatus PageMappedFtl::write_batch(std::span<const WriteRequest> requests) {
  BatchStatus out;
  out.reserve(requests.size());
  for (const WriteRequest& req : requests) {
    out.push_back(write(req.lpn, req.bits));
  }
  return out;
}

Status PageMappedFtl::trim(std::uint64_t lpn) {
  if (lpn >= logical_pages_) {
    return {ErrorCode::kOutOfBounds, "lpn beyond logical capacity"};
  }
  if (l2p_[lpn] != kUnmapped) {
    const std::uint64_t old = l2p_[lpn];
    p2l_[old] = kUnmapped;
    --valid_count_[static_cast<std::uint32_t>(
        old / chip_->geometry().pages_per_block)];
    l2p_[lpn] = kUnmapped;
  }
  return Status::ok();
}

std::optional<PageAddr> PageMappedFtl::locate(std::uint64_t lpn) const {
  if (lpn >= logical_pages_ || l2p_[lpn] == kUnmapped) return std::nullopt;
  const auto& geom = chip_->geometry();
  return PageAddr{
      static_cast<std::uint32_t>(l2p_[lpn] / geom.pages_per_block),
      static_cast<std::uint32_t>(l2p_[lpn] % geom.pages_per_block)};
}

std::uint32_t PageMappedFtl::pick_gc_victim() const {
  // Greedy: the block with the fewest valid pages, excluding the active
  // block and free blocks.
  const auto& geom = chip_->geometry();
  std::uint32_t best = geom.blocks;
  std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
  std::vector<bool> is_free(geom.blocks, false);
  for (std::uint32_t b : free_) is_free[b] = true;
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    if (is_free[b] || bad_[b]) continue;
    if (active_block_ && *active_block_ == b) continue;
    // Only consider blocks that have been written to.
    bool touched = false;
    for (std::uint32_t p = 0; p < geom.pages_per_block && !touched; ++p) {
      touched = p2l_[static_cast<std::uint64_t>(b) * geom.pages_per_block + p] !=
                kUnmapped;
    }
    if (!touched && valid_count_[b] == 0) {
      // Fully invalid (or never-used but not in free list): ideal victim.
      return b;
    }
    // A fully-valid block reclaims nothing: erasing it costs one PEC and
    // pages_per_block relocation writes for zero net free pages.  Churning
    // such victims when the free pool runs low burns endurance and can
    // wedge the drain mid-relocation; they are never worth collecting.
    if (valid_count_[b] >= geom.pages_per_block) continue;
    if (valid_count_[b] < best_valid) {
      best_valid = valid_count_[b];
      best = b;
    }
  }
  return best;
}

Status PageMappedFtl::relocate_block(std::uint32_t victim) {
  if (pre_erase_hook_) pre_erase_hook_(victim);
  STASH_RETURN_IF_ERROR(drain_block(victim));
  if (const Status erased = chip_->erase_block(victim); !erased.is_ok()) {
    if (erased.code() == ErrorCode::kEraseFail ||
        erased.code() == ErrorCode::kWornOut) {
      // The block cannot be reclaimed; pull it out of circulation instead
      // of failing the collection pass (it is already drained).
      return retire_block(victim);
    }
    return erased;
  }
  free_.insert(free_.begin(), victim);  // FIFO-ish reuse spreads wear
  return Status::ok();
}

Status PageMappedFtl::run_gc() {
  if (gc_active_) return Status::ok();
  const auto& geom = chip_->geometry();
  const std::uint32_t victim = pick_gc_victim();
  if (victim >= geom.blocks) {
    return {ErrorCode::kNoSpace, "no GC victim available"};
  }
  // Liveness guard: draining the victim allocates one page per valid page
  // it still holds.  If that does not provably fit in the current slack
  // (free blocks plus the active block's remaining pages), the drain would
  // fail mid-relocation and wedge the allocator — refuse instead and let
  // the caller surface an honest kNoSpace.
  const std::uint64_t slack =
      static_cast<std::uint64_t>(free_.size()) * geom.pages_per_block +
      (active_block_ ? geom.pages_per_block - active_next_page_ : 0);
  if (slack < valid_count_[victim]) {
    return {ErrorCode::kNoSpace, "insufficient slack to relocate GC victim"};
  }
  counters_.add(F::gc_runs);
  gc_active_ = true;
  trace::ScopedSpan span(trace::Stage::kFtlGc, trace::Op::kGc, victim);
  const Status status = relocate_block(victim);
  span.set_status(static_cast<std::uint8_t>(status.code()));
  gc_active_ = false;
  return status;
}

Status PageMappedFtl::maybe_wear_level() {
  // Threshold-based static wear leveling: when the wear spread exceeds the
  // configured delta, migrate the coldest (most-valid, least-worn) block's
  // data onto the most-worn free block so cold data stops shielding it.
  const auto& geom = chip_->geometry();
  std::uint32_t min_pec = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_pec = 0;
  std::uint32_t coldest = geom.blocks;
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    if (bad_[b]) continue;
    const std::uint32_t pec = chip_->pec(b);
    if (pec < min_pec && valid_count_[b] > 0) {
      min_pec = pec;
      coldest = b;
    }
    max_pec = std::max(max_pec, pec);
  }
  if (coldest >= geom.blocks ||
      max_pec - std::min(min_pec, max_pec) < config_.wear_delta_threshold) {
    return Status::ok();
  }
  if (active_block_ && *active_block_ == coldest) return Status::ok();
  if (gc_active_) return Status::ok();
  counters_.add(F::wear_swaps);
  gc_active_ = true;
  const Status status = relocate_block(coldest);
  gc_active_ = false;
  return status;
}

// ---- Persistence -----------------------------------------------------------

void PageMappedFtl::serialize_state(std::vector<std::uint8_t>& out) const {
  util::ByteWriter w(out);
  w.u64(logical_pages_);
  for (const std::uint64_t p : l2p_) w.u64(p);
  for (const std::uint64_t l : p2l_) w.u64(l);
  for (const std::uint32_t c : valid_count_) w.u32(c);
  w.u64(free_.size());
  for (const std::uint32_t b : free_) w.u32(b);
  for (const bool b : bad_) w.u8(b ? 1 : 0);
  for (const std::uint32_t f : block_program_fails_) w.u32(f);
  w.u8(active_block_ ? 1 : 0);
  w.u32(active_block_.value_or(0));
  w.u32(active_next_page_);
}

Status PageMappedFtl::deserialize_state(std::span<const std::uint8_t> bytes) {
  using util::ErrorCode;
  const auto& geom = chip_->geometry();
  const std::uint64_t phys_pages =
      static_cast<std::uint64_t>(geom.blocks) * geom.pages_per_block;

  util::ByteReader r(bytes);
  std::uint64_t logical = 0;
  STASH_RETURN_IF_ERROR(r.u64(logical));
  if (logical != logical_pages_) {
    return {ErrorCode::kCorrupted, "ftl logical-page count mismatch"};
  }
  std::vector<std::uint64_t> l2p(logical_pages_);
  for (auto& p : l2p) {
    STASH_RETURN_IF_ERROR(r.u64(p));
    if (p != kUnmapped && p >= phys_pages) {
      return {ErrorCode::kCorrupted, "l2p entry beyond physical space"};
    }
  }
  std::vector<std::uint64_t> p2l(phys_pages);
  for (auto& l : p2l) {
    STASH_RETURN_IF_ERROR(r.u64(l));
    if (l != kUnmapped && l >= logical_pages_) {
      return {ErrorCode::kCorrupted, "p2l entry beyond logical space"};
    }
  }
  std::vector<std::uint32_t> valid(geom.blocks);
  for (auto& c : valid) {
    STASH_RETURN_IF_ERROR(r.u32(c));
    if (c > geom.pages_per_block) {
      return {ErrorCode::kCorrupted, "valid count beyond block size"};
    }
  }
  std::uint64_t free_count = 0;
  STASH_RETURN_IF_ERROR(r.u64(free_count));
  if (free_count > geom.blocks) {
    return {ErrorCode::kCorrupted, "free list longer than device"};
  }
  std::vector<std::uint32_t> free(free_count);
  for (auto& b : free) {
    STASH_RETURN_IF_ERROR(r.u32(b));
    if (b >= geom.blocks) {
      return {ErrorCode::kCorrupted, "free list entry beyond device"};
    }
  }
  std::vector<bool> bad(geom.blocks);
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    std::uint8_t v = 0;
    STASH_RETURN_IF_ERROR(r.u8(v));
    if (v > 1) return {ErrorCode::kCorrupted, "invalid grown-bad flag"};
    bad[b] = v != 0;
  }
  std::vector<std::uint32_t> fails(geom.blocks);
  for (auto& f : fails) STASH_RETURN_IF_ERROR(r.u32(f));
  std::uint8_t has_active = 0;
  std::uint32_t active_block = 0;
  std::uint32_t active_next = 0;
  STASH_RETURN_IF_ERROR(r.u8(has_active));
  STASH_RETURN_IF_ERROR(r.u32(active_block));
  STASH_RETURN_IF_ERROR(r.u32(active_next));
  if (has_active > 1 || (has_active && active_block >= geom.blocks) ||
      active_next > geom.pages_per_block) {
    return {ErrorCode::kCorrupted, "invalid active write point"};
  }
  STASH_RETURN_IF_ERROR(r.expect_exhausted());

  l2p_ = std::move(l2p);
  p2l_ = std::move(p2l);
  valid_count_ = std::move(valid);
  free_ = std::move(free);
  bad_ = std::move(bad);
  block_program_fails_ = std::move(fails);
  active_block_ = has_active ? std::optional<std::uint32_t>(active_block)
                             : std::nullopt;
  active_next_page_ = active_next;
  gc_active_ = false;
  return Status::ok();
}

}  // namespace stash::ftl
