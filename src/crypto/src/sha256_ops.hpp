#pragma once
// Private SHA-256 (FIPS 180-4) primitives shared verbatim by the scalar
// compression (Sha256::process_block, sha256.cpp) and the lane-parallel
// counter-block compression behind the DRBG (sha256_lanes.cpp).  One
// definition of the constants, the schedule and the round, two loops over
// it: the lane build is the scalar one run over 16 messages side by side.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace stash::crypto::detail {

inline constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

/// Message schedule word w[i] for i >= 16, from w[i-16], w[i-15], w[i-7]
/// and w[i-2] (σ0 of w[i-15], σ1 of w[i-2]).
[[nodiscard]] constexpr std::uint32_t schedule_word(
    std::uint32_t w16, std::uint32_t w15, std::uint32_t w7,
    std::uint32_t w2) noexcept {
  const std::uint32_t s0 = rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
  const std::uint32_t s1 = rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
  return w16 + s0 + w7 + s1;
}

/// One compression round over the working variables a..h, with
/// `kw` = K[i] + w[i]; the variables shift down one place as in FIPS 180-4.
constexpr void round_step(std::uint32_t& a, std::uint32_t& b,
                          std::uint32_t& c, std::uint32_t& d,
                          std::uint32_t& e, std::uint32_t& f,
                          std::uint32_t& g, std::uint32_t& h,
                          std::uint32_t kw) noexcept {
  const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
  const std::uint32_t ch = (e & f) ^ (~e & g);
  const std::uint32_t temp1 = h + s1 + ch + kw;
  const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
  const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
  h = g;
  g = f;
  f = e;
  e = d + temp1;
  d = c;
  c = b;
  b = a;
  a = temp1 + s0 + maj;
}

/// x with its byte order reversed.
[[nodiscard]] constexpr std::uint32_t byteswap32(std::uint32_t x) noexcept {
  return (x >> 24) | ((x >> 8) & 0xff00u) | ((x << 8) & 0xff0000u) | (x << 24);
}

/// Big-endian word load/store (SHA-256's byte order).  The store is one
/// word-sized memcpy rather than four byte stores: in a vectorized loop the
/// byte stores become per-byte shuffles that cost more than the
/// compression they follow.
[[nodiscard]] constexpr std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint32_t v, std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) v = byteswap32(v);
  std::memcpy(p, &v, sizeof v);
}

}  // namespace stash::crypto::detail
