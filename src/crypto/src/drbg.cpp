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
  std::array<std::uint8_t, 40> input{};
  std::memcpy(input.data(), key_.data(), key_.size());
  for (int i = 0; i < 8; ++i) {
    input[32 + i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  block_ = Sha256::hash(input);
  ++counter_;
  pos_ = 0;
}

std::uint8_t Sha256Drbg::next_byte() noexcept {
  if (pos_ == 32) refill();
  return block_[pos_++];
}

std::uint64_t Sha256Drbg::next_u64() noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | next_byte();
  }
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
