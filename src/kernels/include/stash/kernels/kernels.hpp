#pragma once
// stash::kernels — SIMD-friendly batch kernels for the voltage-domain hot
// loops (ISSUE 5 tentpole).
//
// Each kernel operates on a contiguous SoA voltage row (one float per
// cell) and draws its noise from the counter-based per-cell RNG
// (philox.hpp), so results are independent of evaluation order: calling a
// kernel on [0, n) equals calling it on any partition [0, k) + [k, n) with
// cell0 offsets, from any number of threads, at any SIMD width —
// bit-identically.  That contract is what lets stash::par scale intra-page
// on top of the existing per-block sharding, and it is regression-tested
// by tests/kernels_test.cpp (chunked-vs-whole, 1-vs-8-thread, and
// vectorized-vs-scalar-reference batteries).
//
// The implementations live in kernels.cpp, compiled -O3 with forced SIMD;
// reference.cpp compiles the same per-cell functions with vectorization
// disabled.  Both use -ffp-contract=off, so the two builds are bit-equal.

#include <cstdint>

#include "stash/kernels/philox.hpp"

namespace stash::kernels {

// Draw economy: the normal-drawing kernels consume one 128-bit Philox draw
// per GROUP of cells.  A Box-Muller evaluation of two 32-bit uniform lanes
// yields a cosine-half deviate for one cell and a sine-half deviate for the
// next, both from one sin/cos reduction (vcossin2pi); erased_fill keeps
// lanes 2/3 for per-cell tail uniforms (group = a pair of cells), while
// normal_row/disturb_row spend all four lanes on deviates (group = a
// quad).  The SIMD build draws the words for a batch of 256 groups at a
// time into stack arrays — with a 16-lane AVX-512 Philox when the build
// targets AVX-512F, a draw128 loop otherwise — and then runs the group
// bodies over them.  Cell c still gets a pure function of (key, c); chunk
// boundaries that split a group just recompute the shared draw on both
// sides.

/// Erased-state redraw: v = clamp(N(mu, sigma) + Bern(tail_prob)*Exp(tail_mean),
/// 0, cap) per cell.
struct ErasedParams {
  double mu = 0.0;
  double sigma = 1.0;
  double tail_prob = 0.0;
  double tail_mean = 1.0;
  double cap = 80.0;
};
void erased_fill(DrawKey key, const ErasedParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept;

/// Programming-noise targets: out[i] = N(mu, sigma) for cell0 + i.  The
/// caller masks by data bits / weak-cell traits and applies ISPP semantics.
void normal_row(DrawKey key, double mu, double sigma, double* out,
                std::uint32_t cell0, std::uint32_t n) noexcept;

/// ISPP apply: for data-'0' cells, move v toward clamp(max(v, target)) by
/// `frac` (interrupted programs deposit partial charge).  bits==1 cells are
/// left erased.
void program_apply(float* row, const double* targets,
                   const std::uint8_t* bits, std::uint32_t n, double frac,
                   double vmax) noexcept;

/// Program-disturb on a neighbouring wordline: erased-level cells
/// (v < guard) gain max(0, N(mu, sigma)); cells at or above guard are left
/// untouched.  The rare pass-voltage de-trap on programmed cells is not a
/// dense kernel — FlashChip samples it as sparse events (expected-count
/// scheme, like read disturb) on disjoint sub-streams of the same key.
struct DisturbParams {
  double mu = 0.0;
  double sigma = 1.0;
  double guard = 90.0;
  double vmax = 255.0;
};
void disturb_row(DrawKey key, const DisturbParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept;

/// Retention leak: v -= base * sqrt(max(0, v - floor)) * leak_factor(cell),
/// where leak_factor = exp(sigma_ln * hash_normal(seed, block, page, cell))
/// is the permanent per-cell trait (no epoch: retention draws no fresh
/// randomness, matching the v1 model).
void leak_row(std::uint64_t seed, std::uint32_t block, std::uint32_t page,
              double base, double floor_v, double sigma_ln, float* row,
              std::uint32_t cell0, std::uint32_t n) noexcept;

/// Weak-cell trait mask, one detail::weak_cell (cell_ops.hpp) per cell:
/// mask[i] = 1 iff hash_uniform(seed, block, page, cell0+i) < prob.
void weak_mask(std::uint64_t seed, std::uint32_t block, std::uint32_t page,
               double prob, std::uint8_t* mask, std::uint32_t cell0,
               std::uint32_t n) noexcept;

/// Probe quantization: out[i] = lround(row[i]) for the tester's discrete
/// normalized units (rows are non-negative).
void quantize_row(const float* row, int* out, std::uint32_t n) noexcept;

/// Hard-read threshold: out[i] = row[i] < vref ? 1 : 0.
void threshold_row(const float* row, double vref, std::uint8_t* out,
                   std::uint32_t n) noexcept;

}  // namespace stash::kernels

namespace stash::kernels::reference {
// Scalar twins compiled with vectorization disabled (reference.cpp); the
// kernels_test bit-exactness battery compares these against the -O3 SIMD
// build above.
void erased_fill(DrawKey key, const ErasedParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept;
void normal_row(DrawKey key, double mu, double sigma, double* out,
                std::uint32_t cell0, std::uint32_t n) noexcept;
void disturb_row(DrawKey key, const DisturbParams& p, float* row,
                 std::uint32_t cell0, std::uint32_t n) noexcept;
void leak_row(std::uint64_t seed, std::uint32_t block, std::uint32_t page,
              double base, double floor_v, double sigma_ln, float* row,
              std::uint32_t cell0, std::uint32_t n) noexcept;
}  // namespace stash::kernels::reference
