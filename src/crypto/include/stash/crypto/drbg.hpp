#pragma once
// Deterministic random bit generator built on SHA-256 in counter mode, plus
// the hiding-key type.  VT-HI never persists the locations of cells storing
// hidden data: the (key, page) pair re-generates the exact same selection
// stream on every boot (paper §5.3, "Hidden cell selection").

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stash/crypto/sha256.hpp"

namespace stash::crypto {

namespace detail {

/// SHA-256 counter blocks per DRBG refill.
inline constexpr std::size_t kDrbgLanes = 16;

/// out[32 l, 32 l + 32) = SHA-256(key || le64(counter + l)) for each lane
/// l < kDrbgLanes (counter + l wraps mod 2^64): the 16 single-block
/// compressions run side by side in one lane-parallel loop
/// (sha256_lanes.cpp), bit-equal to 16 calls of Sha256::hash.
void sha256_counter_blocks(const Digest256& key, std::uint64_t counter,
                           std::uint8_t* out) noexcept;

}  // namespace detail

/// SHA-256 counter-mode DRBG: deterministic byte/integer stream keyed by a
/// 32-byte seed and an arbitrary personalization string (e.g. page address).
/// The stream is SHA-256(key || le64(counter)) for counter = 0, 1, ...,
/// key = SHA-256(seed || personalization).  A refill draws 16 counter
/// blocks (512 bytes) at once through detail::sha256_counter_blocks; the
/// bytes are the same as one block at a time, only cheaper.
class Sha256Drbg {
 public:
  Sha256Drbg(std::span<const std::uint8_t> seed, const std::string& personalization);

  std::uint8_t next_byte() noexcept;
  std::uint64_t next_u64() noexcept;

  /// Unbiased integer in [0, n), n > 0 (rejection sampling).
  std::uint64_t below(std::uint64_t n) noexcept;

  void fill(std::span<std::uint8_t> out) noexcept;

 private:
  void refill() noexcept;

  Digest256 key_{};
  std::uint64_t counter_ = 0;  // next counter block to draw
  std::array<std::uint8_t, 32 * detail::kDrbgLanes> buffer_{};
  std::size_t pos_ = buffer_.size();  // exhausted until first refill
};

/// The hiding user's secret key with domain-separated subkey derivation.
/// A single user-supplied key fans out (via HKDF-SHA256) into independent
/// keys for cell selection, payload encryption, and authentication.
class HidingKey {
 public:
  static constexpr std::size_t kBytes = 32;

  explicit HidingKey(std::array<std::uint8_t, kBytes> key) : key_(key) {}

  /// Derive a key by stretching a passphrase (iterated salted hashing).
  [[nodiscard]] static HidingKey from_passphrase(const std::string& passphrase,
                                                 const std::string& salt,
                                                 int iterations = 10000);

  [[nodiscard]] std::array<std::uint8_t, kBytes> selection_key() const;
  [[nodiscard]] std::array<std::uint8_t, kBytes> cipher_key() const;
  [[nodiscard]] std::array<std::uint8_t, kBytes> mac_key() const;

  [[nodiscard]] const std::array<std::uint8_t, kBytes>& raw() const noexcept {
    return key_;
  }

  bool operator==(const HidingKey&) const = default;

 private:
  [[nodiscard]] std::array<std::uint8_t, kBytes> derive(const char* label) const;

  std::array<std::uint8_t, kBytes> key_;
};

}  // namespace stash::crypto
