#include "stash/crypto/sha256.hpp"

#include <cstring>

#include "sha256_ops.hpp"

namespace stash::crypto {

void Sha256::reset() noexcept {
  state_ = detail::kInitialState;
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = detail::load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    w[i] = detail::schedule_word(w[i - 16], w[i - 15], w[i - 7], w[i - 2]);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    detail::round_step(a, b, c, d, e, f, g, h,
                       detail::kRoundConstants[i] + w[i]);
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  // An empty span may carry a null data(); memcpy from null is UB even for
  // zero bytes.
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest256 Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(std::span<const std::uint8_t>(&pad_byte, 1));
  const std::uint8_t zero = 0x00;
  while (buffer_len_ != 56) update(std::span<const std::uint8_t>(&zero, 1));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest256 out{};
  for (int i = 0; i < 8; ++i) detail::store_be32(state_[i], out.data() + 4 * i);
  return out;
}

Digest256 Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest256 Sha256::hash(const std::string& s) noexcept {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) noexcept {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest256 kh = Sha256::hash(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Digest256 inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> salt,
                                      std::span<const std::uint8_t> info,
                                      std::size_t length) {
  // Extract.
  std::array<std::uint8_t, 32> zero_salt{};
  const Digest256 prk =
      hmac_sha256(salt.empty() ? std::span<const std::uint8_t>(zero_salt) : salt,
                  ikm);

  // Expand.
  std::vector<std::uint8_t> okm;
  okm.reserve(length);
  std::vector<std::uint8_t> t;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    std::vector<std::uint8_t> input = t;
    input.insert(input.end(), info.begin(), info.end());
    input.push_back(counter++);
    const Digest256 block = hmac_sha256(prk, input);
    t.assign(block.begin(), block.end());
    const std::size_t take = std::min<std::size_t>(32, length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return okm;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace stash::crypto
