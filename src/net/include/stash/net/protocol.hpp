#pragma once
// Wire protocol of stash::net — the length-prefixed binary framing that
// carries StashDevice requests over a TCP stream.
//
// Every message is one frame: [len:u32][body], little-endian, `len` the
// body size in bytes.  Bodies reuse the util::wire primitives so the
// encoding matches the rest of the stack (canonical little-endian, blobs
// u64-length-prefixed):
//
//   request  body: [op:u8][priority:u8][id:u64][lpn:u64][data:blob]
//   response body: [op:u8][status:u8][id:u64][message:str][data:blob]
//
// `id` is a client-chosen correlation id echoed verbatim in the response.
// Responses to one connection are always emitted in request order (the
// server resolves its per-connection pipeline front-only), so `id` is a
// convenience for client bookkeeping, not a reordering mechanism.
// `priority` is carried but not consulted: the device schedules by request
// kind (reads before background work).  `status` is a util::ErrorCode
// value; `message` is its human-readable detail, empty on success.
//
// FrameAssembler turns an arbitrary chunking of the byte stream back into
// frames, with a hard cap on the announced frame size — one malicious or
// corrupt 4-byte header must not make the peer allocate gigabytes.  Both
// ends `recv` straight into its buffer (room/commit) and decode each body
// from a view of that buffer (poll); a view is valid until the next feed,
// room or poll call on that assembler.  The user-space copies per frame
// are exactly these:
//
//   * receiving: one, view -> Request::data / Response::data (the blob
//     copy in decode_*); a write request's data then moves, uncopied, into
//     the device's write-back buffer;
//   * sending: one, payload -> output buffer (encode_*), which send()
//     hands to the kernel.
//
// None of these is charged to dev.bytes_copied: that counter covers the
// device's own copies only.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/util/status.hpp"

namespace stash::net {

using util::Result;
using util::Status;

/// Operation selector of a request frame.
enum class OpCode : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kTrim = 3,
  kStoreHidden = 4,
  kLoadHidden = 5,
  kGc = 6,
  kFlush = 7,
  kStats = 8,
  kPing = 9,
  kHello = 10,       // protocol-version handshake (data: Hello)
  kHiddenInfo = 11,  // versioned hidden-object query (data: HiddenInfo)
};
constexpr std::size_t kOpCount = 11;

[[nodiscard]] const char* op_name(OpCode op) noexcept;
[[nodiscard]] bool valid_op(std::uint8_t raw) noexcept;

/// Protocol revision this build speaks, exchanged in the hello.  Version 4
/// carries stats as the name/value list of encode_device_stats below;
/// version 5 shrinks the hello to the version alone.
constexpr std::uint32_t kProtocolVersion = 5;

/// Handshake payload of a kHello request *and* its response: each side
/// states its protocol version.  The server rejects a mismatched version
/// with kUnsupported and closes after the response — a clean refusal at
/// connect time instead of a kCorrupted mid-stream surprise at the first
/// frame the peer lays out differently.
struct Hello {
  std::uint32_t version = kProtocolVersion;
};

constexpr std::size_t kFrameHeaderBytes = 4;
/// Cap on one frame body (requests and responses alike).
constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;
/// Least room each end asks FrameAssembler for before one recv().
constexpr std::size_t kRecvChunkBytes = 64 * 1024;

struct Request {
  OpCode op = OpCode::kPing;
  std::uint8_t priority = 0;  // decoded, not consulted by the server
  std::uint64_t id = 0;       // echoed in the response
  std::uint64_t lpn = 0;      // read/write/trim target
  std::vector<std::uint8_t> data;  // write bits / store_hidden payload
};

struct Response {
  OpCode op = OpCode::kPing;
  std::uint8_t status = 0;  // util::ErrorCode value
  std::uint64_t id = 0;
  std::string message;             // error detail, empty on success
  std::vector<std::uint8_t> data;  // read bits / hidden payload / stats
  /// Zero-copy payload: when non-empty the server encodes this shared
  /// page reference instead of `data` — a read response borrows the same
  /// buffer the device's LRU holds, so the only per-response byte
  /// traffic is the wire serialization itself.  Decoding always fills
  /// `data` (the client owns its copy of the stream).
  dev::PageRef payload;
};

/// Append one complete frame (header + body) to `out`.
void encode_request(const Request& req, std::vector<std::uint8_t>& out);
void encode_response(const Response& resp, std::vector<std::uint8_t>& out);

/// Decode one frame *body* (the view FrameAssembler::poll hands back).
/// kCorrupted on truncation, trailing bytes, or an unknown op.
Status decode_request(std::span<const std::uint8_t> body, Request& out);
Status decode_response(std::span<const std::uint8_t> body, Response& out);

/// DeviceStats as a stats-response payload: [count:u32] then count
/// (name:str, value:u64) pairs, one per dev counter in table order.  The
/// decoder skips names it does not know and reads counters it does not
/// receive as 0, so adding a counter is not a protocol change; truncation,
/// trailing bytes, or a repeated name are kCorrupted.
void encode_device_stats(const dev::DeviceStats& stats,
                         std::vector<std::uint8_t>& out);
Status decode_device_stats(std::span<const std::uint8_t> bytes,
                           dev::DeviceStats& out);

/// Hello as a request/response data payload.  The version leads every
/// hello layout, so decode reads it first and, for another version, stops
/// there: the rest of a foreign hello is that version's business, and the
/// caller refuses the mismatch cleanly.
void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out);
Status decode_hello(std::span<const std::uint8_t> bytes, Hello& out);

/// dev::HiddenInfo as a hidden_info-response payload.  The dedup ratio
/// crosses the wire in micro-units (u64) so the payload stays integral
/// and byte-stable.
void encode_hidden_info(const dev::HiddenInfo& info,
                        std::vector<std::uint8_t>& out);
Status decode_hidden_info(std::span<const std::uint8_t> bytes,
                          dev::HiddenInfo& out);

/// Incremental frame reassembly over an arbitrarily-chunked byte stream.
///
/// The stream lives in one contiguous heap buffer as [head, tail) unconsumed
/// bytes.  The buffer is compacted with one memmove only when the room asked
/// for does not fit after tail; it grows to hold a whole announced frame,
/// without zero-filling, and once the frames that needed more than
/// kRetainBytes are consumed it shrinks back to that size.
class FrameAssembler {
 public:
  /// Capacity a buffer keeps once no buffered frame needs more, held per
  /// connection for as long as it is open (an idle one keeps whatever its
  /// traffic grew it to, 64 KiB at least).  Each recv asks for
  /// kRecvChunkBytes of room behind a partial frame, so a stream of 9 KiB
  /// pages settles at 128 KiB; four chunks leave room for a partial frame
  /// of up to 192 KiB, and such traffic never reallocates after it first
  /// grows.  Only a frame larger than that (a hidden payload, up to
  /// kMaxFrameBytes) gets memory that is given back.
  static constexpr std::size_t kRetainBytes = 4 * kRecvChunkBytes;

  /// Writable room for at least `min_bytes` more stream bytes, directly after
  /// the buffered ones (more when the frame at the head needs it).  Write the
  /// next stream bytes at its front, then commit() how many were written.
  std::span<std::uint8_t> room(std::size_t min_bytes);
  /// Append the first `n` bytes of the last room() to the stream.
  void commit(std::size_t n) noexcept;
  /// Buffer `bytes` as the next chunk of the stream (room + copy + commit).
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame: `body` views its bytes inside the buffer.
  /// The view stays valid until the next feed, room or poll call.  `ready`
  /// is false when the stream holds no complete frame yet (body untouched).
  /// kCorrupted when a header announces a body larger than kMaxFrameBytes,
  /// before any room is made for it: the stream is unrecoverable and the
  /// connection should be dropped.
  Status poll(std::span<const std::uint8_t>& body, bool& ready);

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const noexcept { return tail_ - head_; }
  /// Bytes the buffer holds allocated.
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

 private:
  std::size_t needed() const noexcept;
  bool shrink(std::size_t want);
  void relocate(std::size_t cap);

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace stash::net
