#pragma once
// Vector-friendly deterministic math for the voltage-domain kernels.
//
// libm's log/cos/exp are scalar calls the auto-vectorizer cannot touch (and
// their last-ulp behaviour varies across libm versions, which would make
// golden values machine-dependent).  These replacements are pure IEEE
// arithmetic — add/mul/div/sqrt plus integer bit manipulation — so they
// (a) vectorize, and (b) produce bit-identical results on any conforming
// platform, at any SIMD width, from any thread.  Accuracy is ~1e-10
// absolute or better over the domains the kernels use, far inside the
// noise-model's distributional tolerances (see tests/kernels_test.cpp's
// KS batteries).
//
// Kernel translation units are compiled with -ffp-contract=off so no FMA
// contraction can make the vectorized body differ from the scalar tail or
// the reference build.

#include <bit>
#include <cmath>
#include <cstdint>

namespace stash::kernels {

/// Branchless min/max.  std::fmin/fmax lower to libm calls on x86 (their
/// NaN-propagation rules don't match minsd/maxsd), and a libm call inside a
/// batch loop blocks vectorization outright.  Kernel inputs are NaN-free by
/// construction, so plain compare-select semantics are identical here — and
/// they compile to single min/max instructions in both scalar and vector
/// form.
[[nodiscard]] constexpr double vmin(double a, double b) noexcept {
  return a < b ? a : b;
}
[[nodiscard]] constexpr double vmax(double a, double b) noexcept {
  return a > b ? a : b;
}

/// Natural log for finite x > 0 (normals only; inputs here are >= 2^-53).
/// Decomposes x = m * 2^e with m in [1/sqrt2, sqrt2), then 2*atanh series.
[[nodiscard]] inline double vlog(double x) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  double e =
      static_cast<double>(static_cast<int>((bits >> 52) & 0x7ff) - 1023);
  double m = std::bit_cast<double>(
      (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);  // [1, 2)
  // Fold [sqrt2, 2) down so the series argument stays small.  The compare
  // is written inline at each select (not hoisted into a bool) because a
  // 1-byte condition against 8-byte data defeats GCC's if-conversion.
  m = m > 1.4142135623730951 ? 0.5 * m : m;
  e = m < 1.0 ? e + 1.0 : e;  // folded iff m dropped below 1

  const double t = (m - 1.0) / (m + 1.0);  // |t| <= 0.1716
  const double t2 = t * t;
  // 2*atanh(t) = t*(2 + t2*(2/3 + t2*(2/5 + ...))), truncation < 5e-13.
  double s = 2.0 / 13.0;
  s = s * t2 + 2.0 / 11.0;
  s = s * t2 + 2.0 / 9.0;
  s = s * t2 + 2.0 / 7.0;
  s = s * t2 + 2.0 / 5.0;
  s = s * t2 + 2.0 / 3.0;
  s = s * t2 + 2.0;
  const double log_m = t * s;
  // ln2 split keeps e*ln2 exact to the last bit that matters here.
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  return e * kLn2Hi + (log_m + e * kLn2Lo);
}

struct CosSin {
  double cos;
  double sin;
};

/// cos(2*pi*u) and sin(2*pi*u) from one quadrant reduction: 2*pi*u =
/// k*pi/2 + th, th in [-pi/4, pi/4], with short minimax-grade Taylor
/// polynomials for cos(th) and sin(th).  .cos holds for u in [0, 2).  .sin
/// is cos(2*pi*(u + 3/4)) and holds for u in [0, 1) with at most 51
/// fractional bits (the draws' 32-bit uniforms qualify): for such u the
/// 3/4 shift is exact, so it moves the quadrant index by exactly 3 and
/// leaves th bit-identical — .sin equals vcos2pi(u + 0.75) bit for bit,
/// without a second reduction and pair of polynomials.
[[nodiscard]] inline CosSin vcossin2pi(double u) noexcept {
  const double a = 4.0 * u;                       // [0, 8)
  const int k = static_cast<int>(a + 0.5);        // nearest quadrant, [0, 8]
  const double f = a - static_cast<double>(k);    // [-0.5, 0.5]
  const double th = f * 1.5707963267948966;       // [-pi/4, pi/4]
  const double th2 = th * th;

  double c = 1.0 / 3628800.0;
  c = 1.0 / 40320.0 - c * th2;
  c = 1.0 / 720.0 - c * th2;
  c = 1.0 / 24.0 - c * th2;
  c = 0.5 - c * th2;
  c = 1.0 - c * th2;

  double s = 1.0 / 362880.0;
  s = 1.0 / 5040.0 - s * th2;
  s = 1.0 / 120.0 - s * th2;
  s = 1.0 / 6.0 - s * th2;
  s = 1.0 - s * th2;
  s = s * th;

  // Quadrant select and sign flip in arithmetic form: GCC's if-converter
  // rejects selects whose condition is a narrow integer against double
  // data, which would de-vectorize every caller.  Multiplying by an exact
  // 0.0/1.0 (resp. ±1.0) is bit-identical to the select.
  // (s*odd + c*even is an exact select: one side is multiplied by exactly
  // 1.0, the other collapses to a signless-safe +0.)  Quadrant k + 3 has
  // odd and even swapped and the sign 1 - ((k + 4) & 2) = 1 - (k & 2).
  const double odd = static_cast<double>(k & 1);        // exactly 0 or 1
  const double even = 1.0 - odd;                        // exactly 1 or 0
  const double sgn_cos = 1.0 - static_cast<double>((k + 1) & 2);  // ±1
  const double sgn_sin = 1.0 - static_cast<double>(k & 2);        // ±1
  return {(s * odd + c * even) * sgn_cos, (s * even + c * odd) * sgn_sin};
}

/// cos(2*pi*u) for u in [0, 2).
[[nodiscard]] inline double vcos2pi(double u) noexcept {
  return vcossin2pi(u).cos;
}

/// exp(x) for |x| <= ~700.  Standard 2^k * exp(r) split, degree-10 series.
[[nodiscard]] inline double vexp(double x) noexcept {
  constexpr double kInvLn2 = 1.4426950408889634;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double kd = x * kInvLn2;
  const int k = static_cast<int>(kd >= 0.0 ? kd + 0.5 : kd - 0.5);
  const double kdd = static_cast<double>(k);
  const double r = (x - kdd * kLn2Hi) - kdd * kLn2Lo;  // [-0.347, 0.347]

  double p = 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;

  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

}  // namespace stash::kernels
