#include "stash/crypto/drbg.hpp"

#include <cstring>

namespace stash::crypto {

Sha256Drbg::Sha256Drbg(std::span<const std::uint8_t> seed,
                       const std::string& personalization) {
  Sha256 h;
  h.update(seed);
  h.update(personalization);
  key_ = h.finish();
}

void Sha256Drbg::refill() noexcept {
  detail::sha256_counter_blocks(key_, counter_, buffer_.data());
  counter_ += detail::kDrbgLanes;
  pos_ = 0;
}

std::uint8_t Sha256Drbg::next_byte() noexcept {
  if (pos_ == buffer_.size()) refill();
  return buffer_[pos_++];
}

std::uint64_t Sha256Drbg::next_u64() noexcept {
  std::uint64_t v = 0;
  if (pos_ + 8 <= buffer_.size()) {
    // All 8 bytes are buffered: read them big-endian in one go.
    for (int i = 0; i < 8; ++i) v = (v << 8) | buffer_[pos_ + i];
    pos_ += 8;
    return v;
  }
  for (int i = 0; i < 8; ++i) v = (v << 8) | next_byte();
  return v;
}

std::uint64_t Sha256Drbg::below(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

void Sha256Drbg::fill(std::span<std::uint8_t> out) noexcept {
  for (std::uint8_t& b : out) b = next_byte();
}

HidingKey HidingKey::from_passphrase(const std::string& passphrase,
                                     const std::string& salt, int iterations) {
  Sha256 h;
  h.update(salt);
  h.update(passphrase);
  Digest256 d = h.finish();
  for (int i = 1; i < iterations; ++i) {
    Sha256 round;
    round.update(d);
    round.update(passphrase);
    d = round.finish();
  }
  std::array<std::uint8_t, kBytes> key{};
  std::memcpy(key.data(), d.data(), kBytes);
  return HidingKey(key);
}

std::array<std::uint8_t, HidingKey::kBytes> HidingKey::derive(
    const char* label) const {
  const std::string info = label;
  const auto okm = hkdf_sha256(
      key_, std::span<const std::uint8_t>{},
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(info.data()), info.size()),
      kBytes);
  std::array<std::uint8_t, kBytes> out{};
  std::memcpy(out.data(), okm.data(), kBytes);
  return out;
}

std::array<std::uint8_t, HidingKey::kBytes> HidingKey::selection_key() const {
  return derive("vt-hi cell selection v1");
}

std::array<std::uint8_t, HidingKey::kBytes> HidingKey::cipher_key() const {
  return derive("vt-hi payload cipher v1");
}

std::array<std::uint8_t, HidingKey::kBytes> HidingKey::mac_key() const {
  return derive("vt-hi payload mac v1");
}

}  // namespace stash::crypto
