#pragma once
// Private per-cell op bodies shared verbatim by the SIMD build (kernels.cpp)
// and the scalar reference build (reference.cpp).  One definition, two
// translation units, both -ffp-contract=off: bit-equal by construction.
//
// The normal-drawing ops batch cells per 128-bit draw: one Box-Muller
// evaluation turns two 32-bit uniform lanes into a cosine-half deviate for
// one cell and a sine-half deviate for the next, both from one shared
// sin/cos reduction (vcossin2pi).  erased_fill needs lanes 2/3 for
// per-cell tail uniforms, so it covers a PAIR of cells per draw;
// normal_row and disturb_row need nothing else, so all four lanes carry
// Box-Muller inputs and one draw covers a QUAD.  That cuts the Philox work
// (the dominant cost of the v1 one-draw-per-cell scheme) by 2-4x while
// cell c's value stays a pure function of (key, c).
//
// The group bodies (erased_pair, normal_quad, disturb_quad) take the
// draw's four words as arguments; the SIMD build feeds them from a batch
// of words drawn ahead (kernels.cpp).  The single-cell forms draw their
// group's words with draw128 and evaluate only their own Box-Muller half,
// through the same zpair_from / erased_from / disturb_from: every
// per-cell formula has one definition, and the scalar reference does no
// work for cells it does not return.

#include <cmath>

#include "stash/kernels/draws.hpp"
#include "stash/kernels/kernels.hpp"

namespace stash::kernels::detail {

/// Two independent standard normals from two 32-bit uniform words: shared
/// radius, cos/sin phases.
struct ZPair {
  double z0, z1;
};

[[nodiscard]] inline ZPair zpair_from(std::uint32_t w0,
                                      std::uint32_t w1) noexcept {
  const double u1 = (static_cast<double>(w0) + 1.0) * 0x1.0p-32;  // (0, 1]
  const double u2 = static_cast<double>(w1) * 0x1.0p-32;          // [0, 1)
  const double m2l = -2.0 * vlog(u1);
  // vlog(1.0) is exactly 0, but guard the sqrt against a last-ulp positive.
  const double rad = std::sqrt(m2l < 0.0 ? 0.0 : m2l);
  const CosSin phase = vcossin2pi(u2);
  return {rad * phase.cos, rad * phase.sin};
}

// ---- Erased-state fill ------------------------------------------------------

/// One cell of erased fill given its deviate and its 32-bit tail word.
/// inv_tail_prob is 1/p.tail_prob, hoisted by the caller.  The tail word
/// doubles as bernoulli and magnitude: conditioned on ut < tail_prob,
/// ut/tail_prob is U(0, 1], so -tail_mean*log(ut/tail_prob) is the
/// exponential tail draw — one 32-bit lane, no second draw.
[[nodiscard]] inline float erased_from(const ErasedParams& p,
                                       double inv_tail_prob, double z,
                                       std::uint32_t tail_word) noexcept {
  double v = p.mu + p.sigma * z;
  const double ut = (static_cast<double>(tail_word) + 1.0) * 0x1.0p-32;
  const double tail = -p.tail_mean * vlog(ut * inv_tail_prob);
  v += (ut < p.tail_prob) ? tail : 0.0;
  return static_cast<float>(vmin(vmax(v, 0.0), p.cap));
}

/// One draw's words -> the even and odd cell of its pair.
inline void erased_pair(const ErasedParams& p, double inv_tail_prob,
                        std::uint32_t w0, std::uint32_t w1, std::uint32_t w2,
                        std::uint32_t w3, float& even, float& odd) noexcept {
  const ZPair z = zpair_from(w0, w1);
  even = erased_from(p, inv_tail_prob, z.z0, w2);
  odd = erased_from(p, inv_tail_prob, z.z1, w3);
}

/// Single-cell form (pair's draw recomputed, one lane kept): the scalar
/// reference and the odd-boundary prologue/epilogue of the SIMD shell.
[[nodiscard]] inline float erased_cell(DrawKey key, const ErasedParams& p,
                                       double inv_tail_prob,
                                       std::uint32_t c) noexcept {
  const auto r = draw128(key, c >> 1, 0);
  const ZPair z = zpair_from(r[0], r[1]);
  return (c & 1u) ? erased_from(p, inv_tail_prob, z.z1, r[3])
                  : erased_from(p, inv_tail_prob, z.z0, r[2]);
}

// ---- Programming-noise targets ----------------------------------------------
// No auxiliary uniforms needed, so all four lanes carry Box-Muller inputs:
// one draw -> two evaluations -> FOUR cells (a "quad"; cell c maps to
// draw128(key, c >> 2, sub), evaluation c & 2, lane c & 1).

inline void normal_quad(double mu, double sigma, std::uint32_t w0,
                        std::uint32_t w1, std::uint32_t w2, std::uint32_t w3,
                        double& c0, double& c1, double& c2,
                        double& c3) noexcept {
  const ZPair a = zpair_from(w0, w1);
  const ZPair b = zpair_from(w2, w3);
  c0 = mu + sigma * a.z0;
  c1 = mu + sigma * a.z1;
  c2 = mu + sigma * b.z0;
  c3 = mu + sigma * b.z1;
}

[[nodiscard]] inline double normal_cell(DrawKey key, double mu, double sigma,
                                        std::uint32_t c) noexcept {
  const auto r = draw128(key, c >> 2, 0);
  const ZPair z =
      (c & 2u) ? zpair_from(r[2], r[3]) : zpair_from(r[0], r[1]);
  return mu + sigma * ((c & 1u) ? z.z1 : z.z0);
}

// ---- ISPP apply -------------------------------------------------------------

[[nodiscard]] inline float program_apply_cell(float v0, double target,
                                              std::uint8_t bit, double frac,
                                              double vmax) noexcept {
  // ISPP never lowers a cell; an interrupted program moves it only `frac`
  // of the way to target.  Data-'1' cells stay erased — expressed as an
  // arithmetic mask (multiply by an exact 0.0/1.0) rather than a select on
  // the loaded byte, which GCC's if-converter rejects and which would
  // de-vectorize the loop.  Exact: keep=1 adds a signless +-0 to v, keep=0
  // multiplies the step by exactly 1.0.
  const double v = static_cast<double>(v0);
  const double full =
      kernels::vmin(kernels::vmax(kernels::vmax(v, target), 0.0), vmax);
  const double keep = static_cast<double>(bit & 1);
  return static_cast<float>(v + (full - v) * frac * (1.0 - keep));
}

// ---- Program disturb --------------------------------------------------------

[[nodiscard]] inline float disturb_from(const DisturbParams& p, float v0,
                                        double z) noexcept {
  const double v = static_cast<double>(v0);
  const double inc = vmax(0.0, p.mu + p.sigma * z);
  const double up = vmin(vmax(v + inc, 0.0), p.vmax);
  // Compare in double so the select's condition and data widths match —
  // equivalent to the float compare (float->double is exact) and keeps the
  // loop if-convertible.
  return static_cast<float>(v < p.guard ? up : v);
}

// Same quad scheme as normal_quad: disturb needs only the deviate.
inline void disturb_quad(const DisturbParams& p, std::uint32_t w0,
                         std::uint32_t w1, std::uint32_t w2, std::uint32_t w3,
                         float& c0, float& c1, float& c2, float& c3) noexcept {
  const ZPair a = zpair_from(w0, w1);
  const ZPair b = zpair_from(w2, w3);
  c0 = disturb_from(p, c0, a.z0);
  c1 = disturb_from(p, c1, a.z1);
  c2 = disturb_from(p, c2, b.z0);
  c3 = disturb_from(p, c3, b.z1);
}

[[nodiscard]] inline float disturb_cell(DrawKey key, const DisturbParams& p,
                                        float v0, std::uint32_t c) noexcept {
  const auto r = draw128(key, c >> 2, 0);
  const ZPair z =
      (c & 2u) ? zpair_from(r[2], r[3]) : zpair_from(r[0], r[1]);
  return disturb_from(p, v0, (c & 1u) ? z.z1 : z.z0);
}

// ---- Retention leak ---------------------------------------------------------

[[nodiscard]] inline float leak_cell(std::uint64_t seed, std::uint32_t block,
                                     std::uint32_t page, double base,
                                     double floor_v, double sigma_ln,
                                     float v0, std::uint32_t c) noexcept {
  const double v = static_cast<double>(v0);
  const double headroom = vmax(0.0, v - floor_v);
  const double factor = vexp(
      sigma_ln *
      hash_normal(util::hash_words(seed, 0x1EA4ULL, block, page, c)));
  const double drop = base * std::sqrt(headroom) * factor;
  return static_cast<float>(vmax(0.0, v - drop));
}

[[nodiscard]] inline std::uint8_t weak_cell(std::uint64_t seed,
                                            std::uint32_t block,
                                            std::uint32_t page, double prob,
                                            std::uint32_t c) noexcept {
  return hash_uniform(util::hash_words(seed, 0x3EAFULL, block, page, c)) < prob
             ? std::uint8_t{1}
             : std::uint8_t{0};
}

[[nodiscard]] inline int quantize_cell(float v) noexcept {
  // Rows are non-negative, so round-half-away equals floor(v + 0.5); the
  // double add is exact for any float input.
  return static_cast<int>(static_cast<double>(v) + 0.5);
}

}  // namespace stash::kernels::detail
