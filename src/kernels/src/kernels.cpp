// Batch voltage-domain kernels: the SIMD build.  This translation unit is
// compiled -O3 -fopenmp-simd -ffp-contract=off (see CMakeLists.txt); every
// loop body is a pure per-cell function from cell_ops.hpp, so forcing SIMD
// cannot change results — only throughput.
//
// The normal-drawing kernels iterate over cell PAIRS (erased_fill) or
// QUADS (normal_row, disturb_row) — one Philox draw per group; see
// cell_ops.hpp.  They draw their words one batch of kBatchGroups groups at
// a time into four uint32 arrays on the stack, then run the group bodies
// over those words.  Under AVX-512F an explicit 16-lane Philox fills the
// batch; elsewhere a draw128 loop does, which GCC auto-vectorizes to the
// same integer math.  A chunk whose boundary splits a group is handled by
// scalar prologue/epilogue cells that recompute the shared draw and keep
// one lane — bit-identical to the grouped path, so the chunk-partition
// contract holds at any split point.

#include "stash/kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "cell_ops.hpp"

namespace stash::kernels {

namespace {

/// Groups per word batch: 4 KiB of words, a multiple of the 16-lane width.
constexpr std::uint32_t kBatchGroups = 256;

/// Lane l of draw128(key, group0 + i, 0) in w<l>[i], for one batch.
struct WordBatch {
  alignas(64) std::uint32_t w0[kBatchGroups];
  alignas(64) std::uint32_t w1[kBatchGroups];
  alignas(64) std::uint32_t w2[kBatchGroups];
  alignas(64) std::uint32_t w3[kBatchGroups];
};

#if defined(__AVX512F__)
// The maskz forms with a full mask are the plain instructions; GCC 12's
// unmasked wrappers pass an uninitialized source operand that trips
// -Wmaybe-uninitialized once inlined.
constexpr __mmask8 kAll64 = 0xFF;

/// Per-lane 32x32->64 product of `a` and the constant in `m`, split into
/// its high and low 32-bit halves.
inline void mulhilo16(__m512i a, __m512i m, __m512i& hi, __m512i& lo) noexcept {
  // vpmuludq multiplies the even 32-bit lanes; shifting each 64-bit lane
  // down by 32 brings the odd lanes into reach.
  const __m512i even = _mm512_maskz_mul_epu32(kAll64, a, m);
  const __m512i odd =
      _mm512_maskz_mul_epu32(kAll64, _mm512_maskz_srli_epi64(kAll64, a, 32), m);
  constexpr __mmask16 kOdd32 = 0xAAAA;
  lo = _mm512_mask_blend_epi32(kOdd32, even,
                               _mm512_maskz_slli_epi64(kAll64, odd, 32));
  hi = _mm512_mask_blend_epi32(
      kOdd32, _mm512_maskz_srli_epi64(kAll64, even, 32), odd);
}

/// draw128 for 16 consecutive counters at once: the same Philox4x32-10
/// integer math as philox.hpp, one group per 32-bit lane.
void fill_words(DrawKey key, std::uint32_t group0, std::uint32_t groups,
                WordBatch& b) noexcept {
  const __m512i m0 = _mm512_set1_epi32(static_cast<int>(detail::kPhiloxM0));
  const __m512i m1 = _mm512_set1_epi32(static_cast<int>(detail::kPhiloxM1));
  const __m512i lanes =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  // Whole vectors only: lanes past `groups` draw counters nobody reads.
  for (std::uint32_t i = 0; i < groups; i += 16) {
    __m512i c0 = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(group0 + i)), lanes);
    __m512i c1 = _mm512_setzero_si512();
    __m512i c2 = _mm512_set1_epi32(0x5741);
    __m512i c3 = _mm512_setzero_si512();
    std::uint32_t k0 = key.k0;
    std::uint32_t k1 = key.k1;
    for (int round = 0; round < 10; ++round) {
      __m512i hi0, lo0, hi1, lo1;
      mulhilo16(c0, m0, hi0, lo0);
      mulhilo16(c2, m1, hi1, lo1);
      c0 = _mm512_xor_si512(_mm512_xor_si512(hi1, c1),
                            _mm512_set1_epi32(static_cast<int>(k0)));
      c1 = lo1;
      c2 = _mm512_xor_si512(_mm512_xor_si512(hi0, c3),
                            _mm512_set1_epi32(static_cast<int>(k1)));
      c3 = lo0;
      k0 += detail::kPhiloxW0;
      k1 += detail::kPhiloxW1;
    }
    _mm512_store_si512(b.w0 + i, c0);
    _mm512_store_si512(b.w1 + i, c1);
    _mm512_store_si512(b.w2 + i, c2);
    _mm512_store_si512(b.w3 + i, c3);
  }
}
#else
void fill_words(DrawKey key, std::uint32_t group0, std::uint32_t groups,
                WordBatch& b) noexcept {
#pragma omp simd
  for (std::uint32_t i = 0; i < groups; ++i) {
    const auto r = draw128(key, group0 + i, 0);
    b.w0[i] = r[0];
    b.w1[i] = r[1];
    b.w2[i] = r[2];
    b.w3[i] = r[3];
  }
}
#endif

/// Calls body(words, i0, m) for each batch of words covering groups
/// [group0, group0 + groups); i0 is the batch's first group index relative
/// to group0 and m its group count.
template <typename Body>
void for_each_batch(DrawKey key, std::uint32_t group0, std::uint32_t groups,
                    Body&& body) noexcept {
  WordBatch words;
  for (std::uint32_t i0 = 0; i0 < groups; i0 += kBatchGroups) {
    const std::uint32_t m = std::min(kBatchGroups, groups - i0);
    fill_words(key, group0 + i0, m, words);
    body(words, i0, m);
  }
}

}  // namespace

void erased_fill(DrawKey key, const ErasedParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept {
  const double inv_tail_prob = 1.0 / p.tail_prob;
  std::uint32_t c = cell0;
  const std::uint32_t end = cell0 + n;
  if (c < end && (c & 1u)) {
    row[0] = detail::erased_cell(key, p, inv_tail_prob, c);
    ++c;
  }
  const std::uint32_t pairs = (end - c) / 2;
  float* out = row + (c - cell0);
  for_each_batch(key, c >> 1, pairs,
                 [&](const WordBatch& b, std::uint32_t i0, std::uint32_t m) {
                   float* o = out + 2 * i0;
#pragma omp simd
                   for (std::uint32_t i = 0; i < m; ++i) {
                     detail::erased_pair(p, inv_tail_prob, b.w0[i], b.w1[i],
                                         b.w2[i], b.w3[i], o[2 * i],
                                         o[2 * i + 1]);
                   }
                 });
  c += pairs * 2;
  if (c < end) {
    row[c - cell0] = detail::erased_cell(key, p, inv_tail_prob, c);
  }
}

void normal_row(DrawKey key, double mu, double sigma, double* out,
                std::uint32_t cell0, std::uint32_t n) noexcept {
  std::uint32_t c = cell0;
  const std::uint32_t end = cell0 + n;
  while (c < end && (c & 3u)) {
    out[c - cell0] = detail::normal_cell(key, mu, sigma, c);
    ++c;
  }
  const std::uint32_t quads = (end - c) / 4;
  double* quad_out = out + (c - cell0);
  for_each_batch(key, c >> 2, quads,
                 [&](const WordBatch& b, std::uint32_t i0, std::uint32_t m) {
                   double* o = quad_out + 4 * i0;
#pragma omp simd
                   for (std::uint32_t i = 0; i < m; ++i) {
                     detail::normal_quad(mu, sigma, b.w0[i], b.w1[i], b.w2[i],
                                         b.w3[i], o[4 * i], o[4 * i + 1],
                                         o[4 * i + 2], o[4 * i + 3]);
                   }
                 });
  c += quads * 4;
  while (c < end) {
    out[c - cell0] = detail::normal_cell(key, mu, sigma, c);
    ++c;
  }
}

void program_apply(float* row, const double* targets,
                   const std::uint8_t* bits, std::uint32_t n, double frac,
                   double vmax) noexcept {
#pragma omp simd
  for (std::uint32_t i = 0; i < n; ++i) {
    row[i] = detail::program_apply_cell(row[i], targets[i], bits[i], frac,
                                        vmax);
  }
}

void disturb_row(DrawKey key, const DisturbParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept {
  std::uint32_t c = cell0;
  const std::uint32_t end = cell0 + n;
  while (c < end && (c & 3u)) {
    row[c - cell0] = detail::disturb_cell(key, p, row[c - cell0], c);
    ++c;
  }
  const std::uint32_t quads = (end - c) / 4;
  float* quad_row = row + (c - cell0);
  for_each_batch(key, c >> 2, quads,
                 [&](const WordBatch& b, std::uint32_t i0, std::uint32_t m) {
                   float* r = quad_row + 4 * i0;
#pragma omp simd
                   for (std::uint32_t i = 0; i < m; ++i) {
                     detail::disturb_quad(p, b.w0[i], b.w1[i], b.w2[i],
                                          b.w3[i], r[4 * i], r[4 * i + 1],
                                          r[4 * i + 2], r[4 * i + 3]);
                   }
                 });
  c += quads * 4;
  while (c < end) {
    row[c - cell0] = detail::disturb_cell(key, p, row[c - cell0], c);
    ++c;
  }
}

void leak_row(std::uint64_t seed, std::uint32_t block, std::uint32_t page,
              double base, double floor_v, double sigma_ln, float* row,
              std::uint32_t cell0, std::uint32_t n) noexcept {
#pragma omp simd
  for (std::uint32_t i = 0; i < n; ++i) {
    row[i] = detail::leak_cell(seed, block, page, base, floor_v, sigma_ln,
                               row[i], cell0 + i);
  }
}

void weak_mask(std::uint64_t seed, std::uint32_t block, std::uint32_t page,
               double prob, std::uint8_t* mask, std::uint32_t cell0,
               std::uint32_t n) noexcept {
#pragma omp simd
  for (std::uint32_t i = 0; i < n; ++i) {
    mask[i] = detail::weak_cell(seed, block, page, prob, cell0 + i);
  }
}

void quantize_row(const float* row, int* out, std::uint32_t n) noexcept {
#pragma omp simd
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = detail::quantize_cell(row[i]);
  }
}

void threshold_row(const float* row, double vref, std::uint8_t* out,
                   std::uint32_t n) noexcept {
  // Exact float-domain rewrite of `(double)row[i] < vref`: floats embed
  // exactly into double, so the comparison is equivalent to `row[i] < t`
  // with t = the smallest float >= vref.  Keeping the loop in one type
  // lets it vectorize as a plain vcmpps + byte select (the mixed
  // float/double compare compiled to scalar code and dominated the whole
  // device read path).  Row values are finite voltages, so the only
  // inputs are ordinary ordered compares.
  float t = static_cast<float>(vref);
  if (static_cast<double>(t) < vref) {
    t = std::nextafterf(t, std::numeric_limits<float>::infinity());
  }
#if defined(__AVX512F__) && defined(__AVX512BW__)
  // A page read is memory-bound: ~4 bytes in + 1 byte out per cell.  The
  // explicit path exists for the stores, not the compare — streaming them
  // (vmovntdq) skips the read-for-ownership of the output buffer, which
  // is pure overhead since the whole destination is overwritten.  Values
  // are bit-identical to the generic loop (_CMP_LT_OQ is `<` on the same
  // floats); only the cache behavior differs.
  const __m512 vt = _mm512_set1_ps(t);
  const __m512i ones = _mm512_set1_epi8(1);
  std::uint32_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(out + i) & 63u) != 0) {
    out[i] = row[i] < t ? std::uint8_t{1} : std::uint8_t{0};
    ++i;
  }
  for (; i + 64 <= n; i += 64) {
    const __mmask64 m0 = _mm512_cmp_ps_mask(_mm512_loadu_ps(row + i), vt,
                                            _CMP_LT_OQ);
    const __mmask64 m1 = _mm512_cmp_ps_mask(_mm512_loadu_ps(row + i + 16), vt,
                                            _CMP_LT_OQ);
    const __mmask64 m2 = _mm512_cmp_ps_mask(_mm512_loadu_ps(row + i + 32), vt,
                                            _CMP_LT_OQ);
    const __mmask64 m3 = _mm512_cmp_ps_mask(_mm512_loadu_ps(row + i + 48), vt,
                                            _CMP_LT_OQ);
    const __mmask64 m = m0 | (m1 << 16) | (m2 << 32) | (m3 << 48);
    _mm512_stream_si512(reinterpret_cast<__m512i*>(out + i),
                        _mm512_maskz_mov_epi8(m, ones));
  }
  for (; i < n; ++i) {
    out[i] = row[i] < t ? std::uint8_t{1} : std::uint8_t{0};
  }
  _mm_sfence();  // streaming stores are weakly ordered; publish them
#else
#pragma omp simd
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = row[i] < t ? std::uint8_t{1} : std::uint8_t{0};
  }
#endif
}

}  // namespace stash::kernels
