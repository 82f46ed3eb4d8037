#pragma once
// Canonical little-endian byte encoding shared by every layer that
// serializes state into the snapshot store (stash::store).  One encoding,
// defined once: a snapshot written on any host loads on any other, and —
// because every container is emitted in a canonical order — serializing the
// same logical state always yields the same bytes.  That byte-stability is
// what lets the store layer inherit the simulator's determinism contract
// (threads-8 and threads-1 runs of the same workload snapshot to identical
// files).
//
// ByteWriter appends; ByteReader consumes with bounds checking and reports
// malformed input through util::Status (kCorrupted) rather than exceptions,
// matching the storage-layer error vocabulary.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "stash/util/status.hpp"

namespace stash::util {

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  [[nodiscard]] std::vector<std::uint8_t>& bytes() noexcept {
    return out_ ? *out_ : own_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return out_ ? *out_ : own_;
  }

  void u8(std::uint8_t v) { bytes().push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  /// Floats travel as their IEEE-754 bit patterns: bit-exact round trips,
  /// no locale/formatting ambiguity.
  void f32(float v) { le(std::bit_cast<std::uint32_t>(v)); }

  void raw(std::span<const std::uint8_t> data) {
    append(data.data(), data.size());
  }
  /// Length-prefixed byte string (u64 length).
  void blob(std::span<const std::uint8_t> data) {
    u64(data.size());
    raw(data);
  }
  void str(const std::string& s) {
    blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  template <typename T>
  void le(T v) {
    std::uint8_t buf[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    append(buf, sizeof(T));
  }

  void append(const std::uint8_t* data, std::size_t n) {
    std::vector<std::uint8_t>& out = bytes();
    if (out.capacity() - out.size() < n) grow(out, n);
    out.insert(out.end(), data, data + n);
  }
  /// Reserve room for n more bytes (amortized doubling).  Not inlined on
  /// purpose: with the allocation inlined into a writer, GCC 12 at -O3
  /// reports false -Wstringop-overflow / -Warray-bounds on the copy.
  [[gnu::noinline]] static void grow(std::vector<std::uint8_t>& out,
                                     std::size_t n) {
    out.reserve(std::max(out.size() + n, 2 * out.capacity()));
  }

  std::vector<std::uint8_t>* out_ = nullptr;
  std::vector<std::uint8_t> own_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

  Status u8(std::uint8_t& v) { return le(v); }
  Status u16(std::uint16_t& v) { return le(v); }
  Status u32(std::uint32_t& v) { return le(v); }
  Status u64(std::uint64_t& v) { return le(v); }
  Status f32(float& v) {
    std::uint32_t bits = 0;
    STASH_RETURN_IF_ERROR(le(bits));
    v = std::bit_cast<float>(bits);
    return Status::ok();
  }

  Status raw(std::span<std::uint8_t> out) {
    if (remaining() < out.size()) return truncated();
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return Status::ok();
  }
  Status blob(std::vector<std::uint8_t>& out) {
    std::uint64_t len = 0;
    STASH_RETURN_IF_ERROR(u64(len));
    if (remaining() < len) return truncated();
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return Status::ok();
  }
  Status str(std::string& out) {
    std::uint64_t len = 0;
    STASH_RETURN_IF_ERROR(u64(len));
    if (remaining() < len) return truncated();
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_),
               static_cast<std::size_t>(len));
    pos_ += len;
    return Status::ok();
  }

  /// Strict end-of-record check: trailing bytes are corruption, not slack.
  [[nodiscard]] Status expect_exhausted() const {
    if (!exhausted()) {
      return {ErrorCode::kCorrupted, "trailing bytes after record"};
    }
    return Status::ok();
  }

 private:
  [[nodiscard]] static Status truncated() {
    return {ErrorCode::kCorrupted, "record truncated"};
  }

  template <typename T>
  Status le(T& v) {
    if (remaining() < sizeof(T)) return truncated();
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>(out | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    v = out;
    return Status::ok();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a over a byte span — the state-checksum primitive shared by the
/// perf harness and the snapshot bit-exactness gates.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> data,
    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace stash::util
