#include "stash/net/protocol.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>
#include <string_view>

#include "stash/util/wire.hpp"

namespace stash::net {

using util::ByteReader;
using util::ByteWriter;
using util::ErrorCode;

const char* op_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::kRead: return "read";
    case OpCode::kWrite: return "write";
    case OpCode::kTrim: return "trim";
    case OpCode::kStoreHidden: return "store_hidden";
    case OpCode::kLoadHidden: return "load_hidden";
    case OpCode::kGc: return "gc";
    case OpCode::kFlush: return "flush";
    case OpCode::kStats: return "stats";
    case OpCode::kPing: return "ping";
    case OpCode::kHello: return "hello";
    case OpCode::kHiddenInfo: return "hidden_info";
  }
  return "unknown";
}

bool valid_op(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(OpCode::kRead) &&
         raw <= static_cast<std::uint8_t>(OpCode::kHiddenInfo);
}

namespace {

/// Reserve the 4-byte length slot, append the body, then patch the length.
class FrameWriter {
 public:
  explicit FrameWriter(std::vector<std::uint8_t>& out)
      : out_(out), body_start_(out.size() + kFrameHeaderBytes), w_(out) {
    w_.u32(0);
  }
  ~FrameWriter() {
    const auto len = static_cast<std::uint32_t>(out_.size() - body_start_);
    for (int i = 0; i < 4; ++i) {
      out_[body_start_ - kFrameHeaderBytes + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
  }
  ByteWriter& body() noexcept { return w_; }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t body_start_;
  ByteWriter w_;
};

std::uint32_t load_u32le(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  FrameWriter frame(out);
  ByteWriter& w = frame.body();
  w.u8(static_cast<std::uint8_t>(req.op));
  w.u8(req.priority);
  w.u64(req.id);
  w.u64(req.lpn);
  w.blob(req.data);
}

void encode_response(const Response& resp, std::vector<std::uint8_t>& out) {
  FrameWriter frame(out);
  ByteWriter& w = frame.body();
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.u8(resp.status);
  w.u64(resp.id);
  w.str(resp.message);
  w.blob(resp.payload.empty()
             ? std::span<const std::uint8_t>{resp.data.data(),
                                             resp.data.size()}
             : resp.payload.span());
}

Status decode_request(std::span<const std::uint8_t> body, Request& out) {
  ByteReader r(body);
  std::uint8_t op = 0;
  STASH_RETURN_IF_ERROR(r.u8(op));
  if (!valid_op(op)) {
    return Status{ErrorCode::kCorrupted, "unknown request op"};
  }
  out.op = static_cast<OpCode>(op);
  STASH_RETURN_IF_ERROR(r.u8(out.priority));
  STASH_RETURN_IF_ERROR(r.u64(out.id));
  STASH_RETURN_IF_ERROR(r.u64(out.lpn));
  STASH_RETURN_IF_ERROR(r.blob(out.data));
  return r.expect_exhausted();
}

Status decode_response(std::span<const std::uint8_t> body, Response& out) {
  ByteReader r(body);
  std::uint8_t op = 0;
  STASH_RETURN_IF_ERROR(r.u8(op));
  if (!valid_op(op)) {
    return Status{ErrorCode::kCorrupted, "unknown response op"};
  }
  out.op = static_cast<OpCode>(op);
  STASH_RETURN_IF_ERROR(r.u8(out.status));
  STASH_RETURN_IF_ERROR(r.u64(out.id));
  STASH_RETURN_IF_ERROR(r.str(out.message));
  STASH_RETURN_IF_ERROR(r.blob(out.data));
  return r.expect_exhausted();
}

void encode_device_stats(const dev::DeviceStats& stats,
                         std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(dev::DeviceStats::kNames.size()));
  dev::DeviceStats::for_each(stats, [&](std::string_view name,
                                        std::uint64_t value) {
    w.str(std::string(name));
    w.u64(value);
  });
}

Status decode_device_stats(std::span<const std::uint8_t> bytes,
                           dev::DeviceStats& out) {
  ByteReader r(bytes);
  std::uint32_t count = 0;
  STASH_RETURN_IF_ERROR(r.u32(count));
  dev::DeviceStats stats;
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t value = 0;
    STASH_RETURN_IF_ERROR(r.str(name));
    STASH_RETURN_IF_ERROR(r.u64(value));
    if (!seen.insert(name).second) {
      return Status{ErrorCode::kCorrupted, "duplicate stats counter " + name};
    }
    // A name this build does not know is a newer peer's counter: skip it.
    dev::DeviceStats::for_each(stats, [&](std::string_view field,
                                          std::uint64_t& slot) {
      if (field == name) slot = value;
    });
  }
  STASH_RETURN_IF_ERROR(r.expect_exhausted());
  out = stats;
  return Status::ok();
}

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u32(hello.version);
}

Status decode_hello(std::span<const std::uint8_t> bytes, Hello& out) {
  ByteReader r(bytes);
  STASH_RETURN_IF_ERROR(r.u32(out.version));
  if (out.version != kProtocolVersion) return Status::ok();
  return r.expect_exhausted();
}

void encode_hidden_info(const dev::HiddenInfo& info,
                        std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u64(info.logical_bytes);
  w.u64(info.packed_bytes);
  w.u64(info.chunks);
  w.u64(info.unique_chunks);
  w.u16(info.format);
  w.u64(static_cast<std::uint64_t>(info.dedup_ratio * 1e6 + 0.5));
  w.u64(info.remaining_capacity_bytes);
}

Status decode_hidden_info(std::span<const std::uint8_t> bytes,
                          dev::HiddenInfo& out) {
  ByteReader r(bytes);
  STASH_RETURN_IF_ERROR(r.u64(out.logical_bytes));
  STASH_RETURN_IF_ERROR(r.u64(out.packed_bytes));
  STASH_RETURN_IF_ERROR(r.u64(out.chunks));
  STASH_RETURN_IF_ERROR(r.u64(out.unique_chunks));
  STASH_RETURN_IF_ERROR(r.u16(out.format));
  std::uint64_t dedup_micro = 0;
  STASH_RETURN_IF_ERROR(r.u64(dedup_micro));
  out.dedup_ratio = static_cast<double>(dedup_micro) / 1e6;
  STASH_RETURN_IF_ERROR(r.u64(out.remaining_capacity_bytes));
  return r.expect_exhausted();
}

/// Bytes the buffer must hold to complete the frame at its head: the whole
/// frame once its header is in (and under the cap), else what is buffered.
std::size_t FrameAssembler::needed() const noexcept {
  const std::size_t held = buffered();
  if (held < kFrameHeaderBytes) return held;
  const std::size_t len = load_u32le(buf_.get() + head_);
  return len > kMaxFrameBytes ? held
                              : std::max(held, kFrameHeaderBytes + len);
}

/// Give a large frame's memory back once nothing buffered needs it.
bool FrameAssembler::shrink(std::size_t want) {
  if (cap_ <= kRetainBytes || want > kRetainBytes) return false;
  relocate(kRetainBytes);
  return true;
}

/// Move [head, tail) to the front of a `cap`-byte buffer: the current one
/// (one memmove) when `cap` is its size, else a fresh, uninitialised one.
void FrameAssembler::relocate(std::size_t cap) {
  const std::size_t held = buffered();
  if (cap == cap_) {
    if (held > 0) std::memmove(buf_.get(), buf_.get() + head_, held);
  } else {
    auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (held > 0) std::memcpy(fresh.get(), buf_.get() + head_, held);
    buf_ = std::move(fresh);
    cap_ = cap;
  }
  head_ = 0;
  tail_ = held;
}

std::span<std::uint8_t> FrameAssembler::room(std::size_t min_bytes) {
  const std::size_t want = std::max(needed(), buffered() + min_bytes);
  if (!shrink(want) && cap_ - head_ < want) {
    relocate(want <= cap_ ? cap_ : std::max(want, 2 * cap_));
  }
  return {buf_.get() + tail_, cap_ - tail_};
}

void FrameAssembler::commit(std::size_t n) noexcept {
  assert(n <= cap_ - tail_);
  tail_ += n;
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  std::memcpy(room(bytes.size()).data(), bytes.data(), bytes.size());
  commit(bytes.size());
}

Status FrameAssembler::poll(std::span<const std::uint8_t>& body,
                            bool& ready) {
  ready = false;
  const std::size_t held = buffered();
  if (held >= kFrameHeaderBytes) {
    const std::size_t len = load_u32le(buf_.get() + head_);
    if (len > kMaxFrameBytes) {
      return Status{ErrorCode::kCorrupted,
                    "frame of " + std::to_string(len) +
                        " bytes exceeds the frame cap"};
    }
    if (held >= kFrameHeaderBytes + len) {
      body = {buf_.get() + head_ + kFrameHeaderBytes, len};
      head_ += kFrameHeaderBytes + len;
      // Drained: the next bytes land at the front, with nothing to move.
      // The bytes `body` views stay where they are.
      if (head_ == tail_) head_ = tail_ = 0;
      ready = true;
      return Status::ok();
    }
  }
  (void)shrink(needed());
  return Status::ok();
}

}  // namespace stash::net
