// The DRBG's refill: 16 SHA-256 counter blocks in one lane-parallel
// compression.  Every message is key || le64(counter), padded to a single
// 64-byte block, so the 16 messages of a refill differ only in schedule
// words 8 and 9.  Each step below is a plain loop over the lanes with
// `#pragma omp simd` around the round and schedule bodies of
// sha256_ops.hpp; SHA-256 is adds, rotates, xors and ands, which the
// compiler maps onto 16-lane vector ops (vprord/vpternlogd on AVX-512).
// Compiled -O3 -fopenmp-simd [-march=native] (see CMakeLists.txt); with
// integer ops only, every lane is bit-equal to Sha256::hash at any width.

#include "stash/crypto/drbg.hpp"

#include "sha256_ops.hpp"

namespace stash::crypto::detail {

void sha256_counter_blocks(const Digest256& key, std::uint64_t counter,
                           std::uint8_t* out) noexcept {
  constexpr std::size_t L = kDrbgLanes;
  // The padded message: key words 0-7, the counter's 8 little-endian bytes
  // as words 8-9, the 0x80 terminator, and the 320-bit length in word 15.
  alignas(64) std::uint32_t w[64][L];
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t fixed = i < 8     ? load_be32(key.data() + 4 * i)
                                : i == 10 ? 0x80000000u
                                : i == 15 ? 8u * (32u + 8u)
                                          : 0u;
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) w[i][l] = fixed;
  }
  // le64(c) read big-endian: the low word byte-swapped, then the high one.
#pragma omp simd
  for (std::size_t l = 0; l < L; ++l) {
    const std::uint64_t c = counter + l;
    w[8][l] = byteswap32(static_cast<std::uint32_t>(c));
    w[9][l] = byteswap32(static_cast<std::uint32_t>(c >> 32));
  }
  for (int i = 16; i < 64; ++i) {
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) {
      w[i][l] =
          schedule_word(w[i - 16][l], w[i - 15][l], w[i - 7][l], w[i - 2][l]);
    }
  }

  alignas(64) std::uint32_t s[8][L];
  for (int j = 0; j < 8; ++j) {
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) s[j][l] = kInitialState[j];
  }
  for (int i = 0; i < 64; ++i) {
#pragma omp simd
    for (std::size_t l = 0; l < L; ++l) {
      round_step(s[0][l], s[1][l], s[2][l], s[3][l], s[4][l], s[5][l],
                 s[6][l], s[7][l], kRoundConstants[i] + w[i][l]);
    }
  }

  for (std::size_t l = 0; l < L; ++l) {
    for (int j = 0; j < 8; ++j) {
      store_be32(s[j][l] + kInitialState[j], out + 32 * l + 4 * j);
    }
  }
}

}  // namespace stash::crypto::detail
