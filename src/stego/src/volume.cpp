#include "stash/stego/volume.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

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
  // invalid (a per-page relocation callback would miss those and the erase
  // would silently destroy the hidden chunk).
  ftl_.set_pre_erase_hook(
      [this](std::uint32_t block) { return on_relocation(block); });
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

std::size_t StegoVolume::hidden_capacity_bytes() {
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

std::vector<std::uint32_t> StegoVolume::eligible_blocks() {
  // A forgotten carrier would look eligible, and embedding over it would
  // scramble a live chunk: find the carriers first.
  (void)find_carriers();
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < chip_->geometry().blocks; ++b) {
    if (hidden_blocks_.count(b)) continue;
    if (block_fully_programmed(b)) blocks.push_back(b);
  }
  return blocks;
}

Status StegoVolume::store_hidden(std::span<const std::uint8_t> data) {
  StegoVolume* const self = this;
  return stego::store_hidden(Volumes(&self, 1), data);
}

Status StegoVolume::discard_hidden() {
  // Locate the carriers with a key-only scan when nothing is tracked (the
  // same discovery path load_hidden's scanning mode uses).
  if (hidden_blocks_.empty()) (void)reveal_carriers(nullptr);
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

namespace {

/// A reveal the chip did not serve (an empty probe, a power cut) says
/// nothing of the block: it may still carry a chunk.
bool served(const Status& revealed) noexcept {
  return revealed.code() != ErrorCode::kOutOfBounds &&
         revealed.code() != ErrorCode::kPowerLoss;
}

/// Payload bytes per chunk that every volume can carry.
std::size_t chunk_capacity(Volumes volumes) {
  std::size_t per_chunk = SIZE_MAX;
  for (const StegoVolume* volume : volumes) {
    per_chunk = std::min(per_chunk, volume->hidden_chunk_capacity());
  }
  return volumes.empty() ? 0 : per_chunk;
}

}  // namespace

Status StegoVolume::reveal_carriers(std::vector<Chunk>* found) {
  // Key-only mount: reveal every candidate block; the MAC rejects blocks
  // without (our) hidden data.  When this instance already tracks hidden
  // blocks, restrict to those; otherwise scan everything fully programmed.
  const bool scanning = !carriers_known_ || hidden_blocks_.empty();
  Status unserved;
  std::vector<std::uint32_t> discovered;
  for (std::uint32_t b = 0; b < chip_->geometry().blocks; ++b) {
    if (!scanning && !hidden_blocks_.count(b)) continue;
    if (scanning && !block_fully_programmed(b)) continue;
    auto revealed = codec_.reveal(b);
    if (!revealed.is_ok()) {
      if (unserved.is_ok() && !served(revealed.status())) {
        unserved = revealed.status();
      }
      continue;
    }
    if (auto chunk = unpack_chunk(revealed.value())) {
      if (found) found->push_back(std::move(*chunk));
      if (scanning) discovered.push_back(b);
    }
  }
  hidden_blocks_.insert(discovered.begin(), discovered.end());
  if (scanning && unserved.is_ok()) carriers_known_ = true;
  return unserved;
}

Status StegoVolume::find_carriers() {
  return carriers_known_ ? Status::ok() : reveal_carriers(nullptr);
}

void StegoVolume::forget_carriers(bool pending_lost) {
  if (pending_lost) stats_.lost_chunks += pending_.size();
  hidden_blocks_.clear();
  pending_.clear();
  carriers_known_ = false;
}

Result<std::vector<std::uint8_t>> StegoVolume::load_hidden() {
  StegoVolume* const self = this;
  return stego::load_hidden(Volumes(&self, 1));
}

Status StegoVolume::panic_erase() {
  const Status scan = find_carriers();
  for (std::uint32_t b : hidden_blocks_) {
    STASH_RETURN_IF_ERROR(chip_->erase_block(b));
  }
  hidden_blocks_.clear();
  pending_.clear();
  return scan;
}

Status StegoVolume::on_relocation(std::uint32_t block) {
  // The victim's cells are still intact, so rescue its chunk now.  A
  // forgotten carrier set is found first, or the erase would destroy an
  // untracked chunk; while it stays unknown the erase waits.
  STASH_RETURN_IF_ERROR(find_carriers());
  if (!hidden_blocks_.count(block)) return Status::ok();
  auto revealed = codec_.reveal(block);
  if (!revealed.is_ok() && !served(revealed.status())) {
    return revealed.status();
  }
  hidden_blocks_.erase(block);
  auto chunk = revealed.is_ok() ? unpack_chunk(revealed.value()) : std::nullopt;
  if (chunk) {
    pending_.push_back(std::move(*chunk));
    ++stats_.rescues;
  } else {
    ++stats_.lost_chunks;
  }
  return Status::ok();
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

Status store_hidden(Volumes volumes, std::span<const std::uint8_t> data) {
  const std::size_t per_chunk = chunk_capacity(volumes);
  if (per_chunk == 0) {
    return Status{ErrorCode::kNoSpace, "hidden chunk capacity is zero"};
  }
  const std::size_t chunks =
      std::max<std::size_t>(1, (data.size() + per_chunk - 1) / per_chunk);
  if (chunks > 0xffff) {
    return Status{ErrorCode::kNoSpace, "hidden payload needs too many chunks"};
  }

  // eligible_blocks finds and excludes every carrier, so the new generation
  // lands beside the old one: until it is complete the previous payload is
  // still fully loadable, and a failure costs nothing but scrubbed spares.
  struct Target {
    std::size_t volume;
    std::uint32_t block;
  };
  std::vector<Target> targets;  // volume 0's blocks first, then volume 1's
  std::vector<std::set<std::uint32_t>> old_blocks;
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    for (const std::uint32_t b : volumes[v]->eligible_blocks()) {
      targets.push_back({v, b});
    }
    old_blocks.push_back(volumes[v]->hidden_blocks_);
  }
  if (targets.size() < chunks) {
    return Status{ErrorCode::kNoSpace,
                  "not enough public-data blocks to carry the hidden payload"};
  }

  std::vector<Target> claimed;
  std::vector<bool> took_chunk(volumes.size(), false);
  std::size_t next_target = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    StegoVolume::Chunk chunk;
    chunk.index = static_cast<std::uint16_t>(i);
    chunk.total = static_cast<std::uint16_t>(chunks);
    const std::size_t begin = i * per_chunk;
    const std::size_t end = std::min(data.size(), begin + per_chunk);
    if (begin < end) {
      chunk.data.assign(data.begin() + static_cast<long>(begin),
                        data.begin() + static_cast<long>(end));
    }
    bool embedded = false;
    while (!embedded && next_target < targets.size()) {
      const Target target = targets[next_target++];
      embedded = volumes[target.volume]->embed_verified(target.block, chunk);
      if (embedded) {
        claimed.push_back(target);
        took_chunk[target.volume] = true;
      }
    }
    if (!embedded) {
      for (const Target& t : claimed) {
        volumes[t.volume]->hidden_blocks_.erase(t.block);
        volumes[t.volume]->scrub_block(t.block);
      }
      return Status{ErrorCode::kNoSpace,
                    "no carrier block held a verified hidden embedding"};
    }
  }

  // Every new chunk verified: release the old generation everywhere.  The
  // scrubs are best-effort; a straggler that survives is caught at load by
  // its total or a duplicate index.  The replacement also supersedes any
  // chunks rescued out of the old payload.
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    StegoVolume& volume = *volumes[v];
    if (!took_chunk[v]) {
      (void)volume.discard_hidden();
      continue;
    }
    for (const std::uint32_t b : old_blocks[v]) {
      volume.hidden_blocks_.erase(b);
      volume.scrub_block(b);
    }
    volume.pending_.clear();
  }
  return Status::ok();
}

Result<std::vector<std::uint8_t>> load_hidden(Volumes volumes) {
  std::vector<StegoVolume::Chunk> found;
  for (StegoVolume* volume : volumes) {
    (void)volume->reveal_carriers(&found);
    // Chunks rescued from a GC victim but not yet re-homed are part of the
    // payload and must survive a load taken before the next write
    // re-embeds them.
    found.insert(found.end(), volume->pending_.begin(),
                 volume->pending_.end());
  }
  if (found.empty()) {
    return Status{ErrorCode::kNotFound, "no hidden volume under this key"};
  }

  const std::uint16_t total = found.front().total;
  std::vector<const StegoVolume::Chunk*> ordered(total, nullptr);
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

std::size_t hidden_capacity_bytes(Volumes volumes) {
  std::size_t blocks = 0;
  for (StegoVolume* volume : volumes) {
    blocks += volume->eligible_blocks().size();
  }
  return chunk_capacity(volumes) * blocks;
}

}  // namespace stash::stego
