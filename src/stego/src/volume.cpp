#include "stash/stego/volume.hpp"

#include <algorithm>
#include <array>

#include "stash/util/wire.hpp"

namespace stash::stego {

using util::ErrorCode;

StegoVolume::StegoVolume(nand::FlashChip& chip, const crypto::HidingKey& key,
                         StegoConfig config)
    : chip_(&chip), ftl_(chip, config.ftl), codec_(chip, key, config.vthi) {
  if (const Status valid = config.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
  // Rescue on the pre-erase hook: it fires exactly once per victim block,
  // before any cell is touched — even for blocks whose public pages are all
  // invalid (a relocation hook alone would miss those and the erase would
  // silently destroy the hidden chunk).
  ftl_.set_pre_erase_hook(
      [this](std::uint32_t block) { on_relocation({block, 0}); });
}

Status StegoVolume::write_public(std::uint64_t lpn,
                                 std::span<const std::uint8_t> bits) {
  STASH_RETURN_IF_ERROR(ftl_.write(lpn, bits));
  // New public data may have created room to re-home rescued chunks.
  return reembed_pending();
}

Result<std::vector<std::uint8_t>> StegoVolume::read_public(std::uint64_t lpn) {
  std::vector<std::uint8_t> bits(ftl_.page_bits());
  auto cells = ftl_.read_into(lpn, bits);
  if (!cells.is_ok()) return cells.status();
  bits.resize(cells.value());
  return bits;
}

std::size_t StegoVolume::hidden_chunk_capacity() const {
  const std::size_t block_capacity = codec_.capacity_bytes();
  return block_capacity > kChunkHeaderBytes ? block_capacity - kChunkHeaderBytes
                                            : 0;
}

std::size_t StegoVolume::hidden_capacity_bytes() const {
  return hidden_chunk_capacity() * eligible_blocks().size();
}

std::vector<std::uint8_t> StegoVolume::pack_chunk(const Chunk& chunk) const {
  std::vector<std::uint8_t> out;
  out.reserve(kChunkHeaderBytes + chunk.data.size());
  out.push_back(static_cast<std::uint8_t>(chunk.index));
  out.push_back(static_cast<std::uint8_t>(chunk.index >> 8));
  out.push_back(static_cast<std::uint8_t>(chunk.total));
  out.push_back(static_cast<std::uint8_t>(chunk.total >> 8));
  out.insert(out.end(), chunk.data.begin(), chunk.data.end());
  return out;
}

std::optional<StegoVolume::Chunk> StegoVolume::unpack_chunk(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < kChunkHeaderBytes) return std::nullopt;
  Chunk chunk;
  chunk.index = static_cast<std::uint16_t>(payload[0] |
                                           (static_cast<unsigned>(payload[1]) << 8));
  chunk.total = static_cast<std::uint16_t>(payload[2] |
                                           (static_cast<unsigned>(payload[3]) << 8));
  if (chunk.total == 0 || chunk.index >= chunk.total) return std::nullopt;
  chunk.data.assign(payload.begin() + kChunkHeaderBytes, payload.end());
  return chunk;
}

bool StegoVolume::block_fully_programmed(std::uint32_t block) const {
  const auto& geom = chip_->geometry();
  for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
    if (chip_->page_state(block, p) != nand::PageState::kProgrammed) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> StegoVolume::eligible_blocks() const {
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < chip_->geometry().blocks; ++b) {
    if (hidden_blocks_.count(b)) continue;
    if (block_fully_programmed(b)) blocks.push_back(b);
  }
  return blocks;
}

Status StegoVolume::store_hidden(std::span<const std::uint8_t> data) {
  auto txn = prepare_store_hidden(data);
  STASH_RETURN_IF_ERROR(txn.status());
  return commit_store_hidden(txn.value());
}

Result<StegoVolume::HiddenTxn> StegoVolume::prepare_store_hidden(
    std::span<const std::uint8_t> data) {
  const std::size_t per_chunk = hidden_chunk_capacity();
  if (per_chunk == 0) {
    return Status{ErrorCode::kNoSpace, "hidden chunk capacity is zero"};
  }
  const std::size_t chunks =
      std::max<std::size_t>(1, (data.size() + per_chunk - 1) / per_chunk);
  if (chunks > 0xffff) {
    return Status{ErrorCode::kNoSpace, "hidden payload needs too many chunks"};
  }

  // eligible_blocks excludes every tracked carrier, so the new generation
  // lands beside the old one: until commit the previous payload is still
  // fully loadable, and a failure here costs nothing but scrubbed spares.
  const auto targets = eligible_blocks();
  if (targets.size() < chunks) {
    return Status{ErrorCode::kNoSpace,
                  "not enough public-data blocks to carry the hidden payload"};
  }

  HiddenTxn txn;
  txn.old_blocks = hidden_blocks_;
  std::size_t next_target = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    Chunk chunk;
    chunk.index = static_cast<std::uint16_t>(i);
    chunk.total = static_cast<std::uint16_t>(chunks);
    const std::size_t begin = i * per_chunk;
    const std::size_t end = std::min(data.size(), begin + per_chunk);
    if (begin < end) {
      chunk.data.assign(data.begin() + static_cast<long>(begin),
                        data.begin() + static_cast<long>(end));
    }
    bool embedded = false;
    while (next_target < targets.size()) {
      const std::uint32_t block = targets[next_target++];
      if (embed_verified(block, chunk)) {
        txn.new_blocks.push_back(block);
        embedded = true;
        break;
      }
    }
    if (!embedded) {
      for (const std::uint32_t b : txn.new_blocks) {
        hidden_blocks_.erase(b);
        scrub_block(b);
      }
      return Status{ErrorCode::kNoSpace,
                    "no carrier block held a verified hidden embedding"};
    }
  }
  txn.active = true;
  return txn;
}

Status StegoVolume::commit_store_hidden(HiddenTxn& txn) {
  if (!txn.active) {
    return {ErrorCode::kInvalidArgument, "hidden txn is not active"};
  }
  txn.active = false;
  for (const std::uint32_t b : txn.old_blocks) {
    hidden_blocks_.erase(b);
    scrub_block(b);
  }
  // The replacement supersedes any chunks rescued out of the old payload.
  pending_.clear();
  return Status::ok();
}

Status StegoVolume::abort_store_hidden(HiddenTxn& txn) {
  if (!txn.active) {
    return {ErrorCode::kInvalidArgument, "hidden txn is not active"};
  }
  txn.active = false;
  for (const std::uint32_t b : txn.new_blocks) {
    hidden_blocks_.erase(b);
    scrub_block(b);
  }
  return Status::ok();
}

Status StegoVolume::discard_hidden() {
  // Locate the carriers with a key-only scan when nothing is tracked (the
  // same discovery path load_hidden's scanning mode uses).
  if (hidden_blocks_.empty()) (void)load_hidden();
  for (const std::uint32_t b : hidden_blocks_) scrub_block(b);
  hidden_blocks_.clear();
  pending_.clear();
  return Status::ok();
}

void StegoVolume::scrub_block(std::uint32_t block) {
  // A MAC-valid frame whose chunk header can never parse: total == 0 is
  // rejected by unpack_chunk, so a scanning mount skips the block instead
  // of resurrecting the superseded chunk.
  const std::array<std::uint8_t, kChunkHeaderBytes> tombstone = {0xff, 0xff,
                                                                 0x00, 0x00};
  (void)codec_.hide(block, tombstone);
}

Result<std::vector<std::uint8_t>> StegoVolume::load_hidden() {
  // Key-only mount: reveal every candidate block; the MAC rejects blocks
  // without (our) hidden data.  When this instance already tracks hidden
  // blocks, restrict to those; otherwise scan everything fully programmed.
  const bool scanning = hidden_blocks_.empty();
  std::vector<Chunk> found;
  std::vector<std::uint32_t> discovered;
  for (std::uint32_t b = 0; b < chip_->geometry().blocks; ++b) {
    if (!scanning && !hidden_blocks_.count(b)) continue;
    if (scanning && !block_fully_programmed(b)) continue;
    auto revealed = codec_.reveal(b);
    if (!revealed.is_ok()) continue;
    if (auto chunk = unpack_chunk(revealed.value())) {
      found.push_back(std::move(*chunk));
      if (scanning) discovered.push_back(b);
    }
  }
  hidden_blocks_.insert(discovered.begin(), discovered.end());
  // Chunks rescued from a GC victim but not yet re-homed live in pending_;
  // they are part of the volume and must survive a load (and a snapshot
  // restore) taken before the next write re-embeds them.
  for (const Chunk& chunk : pending_) found.push_back(chunk);
  if (found.empty()) {
    return Status{ErrorCode::kNotFound, "no hidden volume under this key"};
  }

  const std::uint16_t total = found.front().total;
  std::vector<const Chunk*> ordered(total, nullptr);
  for (const auto& chunk : found) {
    if (chunk.total != total || chunk.index >= total) {
      return Status{ErrorCode::kCorrupted, "inconsistent hidden chunk set"};
    }
    if (ordered[chunk.index] != nullptr) {
      // Two carriers claiming one index means generations got mixed;
      // splicing whichever block scanned last would be silent corruption.
      return Status{ErrorCode::kCorrupted,
                    "duplicate hidden chunk " + std::to_string(chunk.index)};
    }
    ordered[chunk.index] = &chunk;
  }
  std::vector<std::uint8_t> out;
  for (std::uint16_t i = 0; i < total; ++i) {
    if (!ordered[i]) {
      return Status{ErrorCode::kCorrupted,
                    "hidden chunk " + std::to_string(i) + " missing"};
    }
    out.insert(out.end(), ordered[i]->data.begin(), ordered[i]->data.end());
  }
  return out;
}

Status StegoVolume::panic_erase() {
  for (std::uint32_t b : hidden_blocks_) {
    STASH_RETURN_IF_ERROR(chip_->erase_block(b));
  }
  hidden_blocks_.clear();
  pending_.clear();
  return Status::ok();
}

void StegoVolume::on_relocation(nand::PageAddr from) {
  // First relocation out of a hidden block: the victim's cells are still
  // intact (erase happens after all pages move), so rescue the chunk now.
  if (!hidden_blocks_.count(from.block)) return;
  hidden_blocks_.erase(from.block);
  auto revealed = codec_.reveal(from.block);
  if (!revealed.is_ok()) {
    ++stats_.lost_chunks;
    return;
  }
  if (auto chunk = unpack_chunk(revealed.value())) {
    pending_.push_back(std::move(*chunk));
    ++stats_.rescues;
  } else {
    ++stats_.lost_chunks;
  }
}

bool StegoVolume::embed_verified(std::uint32_t block, const Chunk& chunk) {
  const auto packed = pack_chunk(chunk);
  auto hidden = codec_.hide(block, packed);
  // A worn carrier can absorb every partial-program step and still come
  // back unreadable — and by the next GC pass the chunk would be gone for
  // good.  Read the embedding back through the full reveal path before
  // counting on it; an unverified carrier is simply skipped.
  if (hidden.is_ok()) {
    auto readback = codec_.reveal(block);
    if (readback.is_ok() && readback.value() == packed) {
      hidden_blocks_.insert(block);
      return true;
    }
  }
  ++stats_.failed_embeds;
  return false;
}

Status StegoVolume::reembed_pending() {
  if (pending_.empty()) return Status::ok();
  auto targets = eligible_blocks();
  std::size_t used = 0;
  while (!pending_.empty() && used < targets.size()) {
    if (embed_verified(targets[used], pending_.back())) {
      pending_.pop_back();
      ++stats_.reembeds;
    }
    ++used;
  }
  return Status::ok();
}

// ---- Persistence -----------------------------------------------------------

void StegoVolume::serialize_state(std::vector<std::uint8_t>& out) const {
  util::ByteWriter w(out);
  // std::set iterates in key order: the emission is canonical for free.
  w.u64(hidden_blocks_.size());
  for (const std::uint32_t b : hidden_blocks_) w.u32(b);
  w.u64(pending_.size());
  for (const Chunk& chunk : pending_) {
    w.u16(chunk.index);
    w.u16(chunk.total);
    w.blob(chunk.data);
  }
  w.u64(stats_.rescues);
  w.u64(stats_.reembeds);
  w.u64(stats_.lost_chunks);
  w.u64(stats_.failed_embeds);
}

Status StegoVolume::deserialize_state(std::span<const std::uint8_t> bytes) {
  using util::ErrorCode;
  const std::uint32_t device_blocks = chip_->geometry().blocks;

  util::ByteReader r(bytes);
  std::uint64_t block_count = 0;
  STASH_RETURN_IF_ERROR(r.u64(block_count));
  if (block_count > device_blocks) {
    return {ErrorCode::kCorrupted, "hidden-block set larger than device"};
  }
  std::set<std::uint32_t> blocks;
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < block_count; ++i) {
    std::uint32_t b = 0;
    STASH_RETURN_IF_ERROR(r.u32(b));
    if (b >= device_blocks || (i > 0 && b <= prev)) {
      return {ErrorCode::kCorrupted, "hidden blocks out of order or range"};
    }
    prev = b;
    blocks.insert(blocks.end(), b);
  }
  std::uint64_t pending_count = 0;
  STASH_RETURN_IF_ERROR(r.u64(pending_count));
  if (pending_count > 0xFFFF) {
    return {ErrorCode::kCorrupted, "pending chunk count implausible"};
  }
  std::vector<Chunk> pending(pending_count);
  for (Chunk& chunk : pending) {
    STASH_RETURN_IF_ERROR(r.u16(chunk.index));
    STASH_RETURN_IF_ERROR(r.u16(chunk.total));
    if (chunk.total == 0 || chunk.index >= chunk.total) {
      return {ErrorCode::kCorrupted, "pending chunk header invalid"};
    }
    STASH_RETURN_IF_ERROR(r.blob(chunk.data));
  }
  StegoStats stats;
  STASH_RETURN_IF_ERROR(r.u64(stats.rescues));
  STASH_RETURN_IF_ERROR(r.u64(stats.reembeds));
  STASH_RETURN_IF_ERROR(r.u64(stats.lost_chunks));
  STASH_RETURN_IF_ERROR(r.u64(stats.failed_embeds));
  STASH_RETURN_IF_ERROR(r.expect_exhausted());

  hidden_blocks_ = std::move(blocks);
  pending_ = std::move(pending);
  stats_ = stats;
  return Status::ok();
}

}  // namespace stash::stego
