#include "hidden.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "stash/util/wire.hpp"

namespace stash::dev::hidden {

using util::ErrorCode;
using F = DeviceStats::Field;

namespace {

// Device-level framing of one per-chip hidden segment: the packed payload
// is split across chips in chip order, and each chip's StegoVolume stores
// [index:u16][used_chips:u16][format:u16][payload_len:u32][digest:u64]
// [payload].  The header is what lets load detect a missing middle segment
// instead of silently splicing the remainder; the digest (FNV-1a of the
// *whole* device payload, identical in every segment) additionally pins
// all segments to one store generation, so even segments with mutually
// consistent counts cannot splice across generations.  `format` is the
// pack container version the generation was written with; any other
// value fails kUnsupported instead of feeding an undecodable container to
// the caller.
constexpr std::size_t kSegmentHeaderBytes = 18;

std::vector<std::uint8_t> encode_segment(std::uint16_t index,
                                         std::uint16_t used_chips,
                                         std::uint64_t digest,
                                         std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u16(index);
  w.u16(used_chips);
  w.u16(pack::kFormatVersion);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(digest);
  w.raw(payload);
  return out;
}

struct Segment {
  std::uint16_t index = 0;
  std::uint16_t used_chips = 0;
  std::uint16_t format = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint8_t> payload;
};

std::optional<Segment> decode_segment(std::span<const std::uint8_t> raw) {
  if (raw.size() < kSegmentHeaderBytes) return std::nullopt;
  util::ByteReader r(raw);
  Segment seg;
  std::uint32_t len = 0;
  if (!r.u16(seg.index).is_ok() || !r.u16(seg.used_chips).is_ok() ||
      !r.u16(seg.format).is_ok() || !r.u32(len).is_ok() ||
      !r.u64(seg.digest).is_ok()) {
    return std::nullopt;
  }
  if (seg.used_chips == 0 || seg.index >= seg.used_chips ||
      raw.size() - kSegmentHeaderBytes != len) {
    return std::nullopt;
  }
  seg.payload.assign(raw.begin() + kSegmentHeaderBytes, raw.end());
  return seg;
}

/// The split planner: payload bytes each chip can carry, in chip order, up
/// to the first chip with no room past its segment header (a later chip
/// would leave a gap in the segment index).  store() fills these in order;
/// their sum is a replacement store's headroom.
std::vector<std::size_t> segment_room(Volumes volumes) {
  std::vector<std::size_t> room;
  for (const auto& volume : volumes) {
    const std::size_t cap = volume->hidden_capacity_bytes();
    if (cap <= kSegmentHeaderBytes) break;
    room.push_back(cap - kSegmentHeaderBytes);
  }
  return room;
}

/// The stored pack container: every chip's segment, checked to form one
/// generation, spliced in index order, verified against the generation
/// digest, and of the one segment format this build writes.
Result<std::vector<std::uint8_t>> reassemble(Volumes volumes,
                                             Counters& counters) {
  std::vector<Segment> found;
  for (const auto& volume : volumes) {
    auto loaded = volume->load_hidden();
    if (!loaded.is_ok()) continue;  // MAC rejects chips without our data
    if (auto seg = decode_segment(loaded.value())) {
      found.push_back(std::move(*seg));
    }
  }
  if (found.empty()) {
    return Status{ErrorCode::kNotFound, "no hidden volume under this key"};
  }
  const std::uint16_t total = found.front().used_chips;
  const std::uint16_t format = found.front().format;
  const std::uint64_t digest = found.front().digest;
  std::vector<const Segment*> ordered(total, nullptr);
  for (const Segment& seg : found) {
    if (seg.used_chips != total || seg.index >= total ||
        seg.digest != digest || seg.format != format) {
      return Status{ErrorCode::kCorrupted,
                    "inconsistent hidden segment set across chips"};
    }
    if (ordered[seg.index] != nullptr) {
      // Two chips answering for the same slot means two store generations
      // are interleaved; splicing either copy in silently would hand back
      // a payload that never existed.
      return Status{ErrorCode::kCorrupted,
                    "duplicate hidden segment " + std::to_string(seg.index)};
    }
    ordered[seg.index] = &seg;
  }
  std::vector<std::uint8_t> container;
  for (std::uint16_t i = 0; i < total; ++i) {
    if (!ordered[i]) {
      return Status{ErrorCode::kCorrupted,
                    "hidden segment " + std::to_string(i) + " missing"};
    }
    // Segment reassembly is the one real copy left on the hidden load
    // path (cross-chip splice into one contiguous payload); charge it so
    // bytes_copied stays an honest ledger.
    counters.add(F::bytes_copied, ordered[i]->payload.size());
    container.insert(container.end(), ordered[i]->payload.begin(),
                     ordered[i]->payload.end());
  }
  if (util::fnv1a(container) != digest) {
    return Status{ErrorCode::kCorrupted,
                  "reassembled hidden payload fails its stored digest"};
  }
  if (format != pack::kFormatVersion) {
    // The data is intact (it passed the generation digest) but not in the
    // format this build writes — kUnsupported, not kCorrupted.
    return Status{ErrorCode::kUnsupported,
                  "hidden segment format " + std::to_string(format) +
                      " is not format " +
                      std::to_string(pack::kFormatVersion)};
  }
  return container;
}

}  // namespace

Status store(Volumes volumes, std::span<const std::uint8_t> data,
             const pack::PackConfig& config, Counters& counters) {
  // Dedup + compress first (stash::pack): the voltage channel embeds the
  // container, not the raw payload.  A container that fails to beat raw is
  // still embedded (pack stores incompressible payloads verbatim inside
  // the container at near-zero overhead).
  pack::PackStats pstats;
  auto packed = pack::pack(data, config, &pstats);
  if (!packed.is_ok()) return packed.status();
  const std::span<const std::uint8_t> payload(packed.value());

  // Plan the split next so a too-large payload fails before any chip is
  // touched: chip c takes min(remaining, room[c]).
  std::vector<std::size_t> take;
  std::size_t remaining = payload.size();
  for (const std::size_t room : segment_room(volumes)) {
    take.push_back(std::min(remaining, room));
    remaining -= take.back();
    if (remaining == 0) break;
  }
  if (remaining > 0 || take.empty()) {
    return Status{ErrorCode::kNoSpace,
                  "hidden payload exceeds device hidden capacity"};
  }
  const auto used = static_cast<std::uint32_t>(take.size());
  const std::uint64_t digest = util::fnv1a(payload);

  // Phase 1: prepare every chip's segment beside its old generation.  A
  // failure on chip k (worn carriers, injected program faults, ...) aborts
  // the k segments already prepared, leaving the previous device payload
  // fully loadable — never the mixed-generation splice a chip-by-chip
  // store would leave behind.
  std::vector<stego::StegoVolume::HiddenTxn> prepared;
  prepared.reserve(used);
  std::size_t offset = 0;
  for (std::uint32_t c = 0; c < used; ++c) {
    const auto segment = encode_segment(static_cast<std::uint16_t>(c),
                                        static_cast<std::uint16_t>(used),
                                        digest, payload.subspan(offset, take[c]));
    auto txn = volumes[c]->prepare_store_hidden(segment);
    if (!txn.is_ok()) {
      for (std::uint32_t pc = 0; pc < prepared.size(); ++pc) {
        (void)volumes[pc]->abort_store_hidden(prepared[pc]);
      }
      return txn.status();
    }
    prepared.push_back(std::move(txn.value()));
    offset += take[c];
  }

  // Phase 2: every chip verified its new segment; release the old
  // generation everywhere.  Commit scrubs are best-effort — a straggler
  // that survives is caught by the per-generation digest at load time.
  Status first = Status::ok();
  for (std::uint32_t c = 0; c < used; ++c) {
    if (Status st = volumes[c]->commit_store_hidden(prepared[c]);
        !st.is_ok() && first.is_ok()) {
      first = st;
    }
  }
  // A previous, longer payload may have left segments on chips past this
  // store's span; discard them so load never sees two generations.
  for (std::size_t c = used; c < volumes.size(); ++c) {
    (void)volumes[c]->discard_hidden();
  }
  if (first.is_ok()) {
    counters.add(F::hidden_stores);
    counters.add(F::pack_logical_bytes, pstats.logical_bytes);
    counters.add(F::pack_packed_bytes, payload.size());
  }
  return first;
}

Result<std::vector<std::uint8_t>> load(Volumes volumes, Counters& counters) {
  auto container = reassemble(volumes, counters);
  if (!container.is_ok()) return container.status();
  auto unpacked = pack::unpack(container.value());
  if (unpacked.is_ok()) counters.add(F::hidden_loads);
  return unpacked;
}

Result<HiddenInfo> describe(Volumes volumes, Counters& counters) {
  auto container = reassemble(volumes, counters);
  if (!container.is_ok()) return container.status();
  auto stats = pack::inspect(container.value());
  if (!stats.is_ok()) return stats.status();

  HiddenInfo info;
  info.format = pack::kFormatVersion;
  info.logical_bytes = stats.value().logical_bytes;
  info.packed_bytes = stats.value().packed_bytes;
  info.chunks = stats.value().chunks;
  info.unique_chunks = stats.value().unique_chunks;
  info.dedup_ratio = stats.value().dedup_ratio();
  // Headroom of a *replacement* store: store swaps the whole object, so
  // the room the planner would fill counts, chips this generation already
  // uses included.
  for (const std::size_t room : segment_room(volumes)) {
    info.remaining_capacity_bytes += room;
  }
  return info;
}

}  // namespace stash::dev::hidden
