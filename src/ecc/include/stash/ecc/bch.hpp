#pragma once
// Binary BCH code over GF(2^m): systematic encoder and a full
// syndrome / Berlekamp-Massey / Chien-search decoder.  This is the ECC the
// paper applies to the hidden payload (§6.3): at the production config
// (~0.5% BER) about 5% parity suffices; at the enhanced 9x-capacity config
// (~2% BER) about 14% is required.  Codewords may be shortened arbitrarily.
//
// A word past the design distance (a random word, a block that holds no
// hidden frame) almost always yields a full-degree locator that does not
// split over GF(2^m); the decoder rejects it by the split test
// x^(2^m) == x (mod Lambda), about m * t^2 lookups, before the Chien search
// (len * t) would.  The verdict is the Chien search's own, so every decode
// result is unchanged.
//
// The decode hot loops (syndromes, Chien) run through the twin-compiled
// kernels in bch_kernels.hpp; decode_reference() drives the scalar build of
// the same bodies so tests can prove the SIMD build is bit-identical.  The
// generator polynomial and the syndrome tables are fully determined by
// (m, t), so every BchCode of the same parameters shares one const CodeData
// through a process-lifetime registry — constructing the per-chip codecs
// stops redoing the cyclotomic-coset generator product and table builds.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stash/ecc/bch_kernels.hpp"
#include "stash/ecc/gf.hpp"

namespace stash::ecc {

namespace detail {
struct BchKernels;   // SIMD vs reference kernel function set (bch.cpp)
struct BchScratch;   // reusable decode buffers (bch.cpp)

/// The decoder's split test: x^(2^m) == x (mod lambda).  x^(2^m) - x is
/// the product of (x - a) over every a in GF(2^m), so this holds exactly
/// when `lambda` (low-degree-first, nonzero constant term, degree >= 1)
/// has deg(lambda) distinct roots in the field.  Exposed so tests can
/// check it against a brute-force root count.
[[nodiscard]] bool locator_splits(const GaloisField& gf,
                                  std::span<const std::uint32_t> lambda);
}  // namespace detail

class BchCode {
 public:
  /// Everything (m, t) determines, built once per parameter pair and shared:
  /// the generator polynomial and the syndrome kernel tables.
  struct CodeData {
    std::vector<std::uint8_t> generator;  // over GF(2), low-degree-first
    bchk::DecodeTables tables;
    // Owns the field tables `tables` borrows its antilog/log views from.
    std::shared_ptr<const GaloisField::Tables> gf_tables;
  };

  /// BCH over GF(2^m) with design distance 2t+1 (corrects up to t bit errors
  /// per codeword).  Natural length n = 2^m - 1; data capacity k = n - deg(g).
  BchCode(int m, int t);

  [[nodiscard]] int m() const noexcept { return gf_.m(); }
  [[nodiscard]] int t() const noexcept { return t_; }
  [[nodiscard]] std::size_t n() const noexcept { return static_cast<std::size_t>(gf_.n()); }
  [[nodiscard]] std::size_t parity_bits() const noexcept {
    return data_->generator.size() - 1;
  }
  [[nodiscard]] std::size_t k() const noexcept { return n() - parity_bits(); }

  /// Systematic encode of `data_bits` (values 0/1, length <= k()).  Returns
  /// the shortened codeword [data | parity] of data_bits.size() +
  /// parity_bits() bits.
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data_bits) const;

  struct DecodeResult {
    std::vector<std::uint8_t> data_bits;
    int corrected = 0;    // number of bit errors repaired
    bool ok = false;      // false when errors exceeded the t budget
  };

  /// Decode a shortened codeword produced by encode() with
  /// data_len = codeword.size() - parity_bits().
  [[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> codeword_bits) const;

  /// Decode many codewords in one sweep, reusing one scratch set (packed
  /// buffer, syndrome registers, Chien tables) across the whole batch.
  /// Element i of the result decodes codewords[i]; results are identical to
  /// per-codeword decode() at any batch split.
  [[nodiscard]] std::vector<DecodeResult> decode_batch(
      std::span<const std::span<const std::uint8_t>> codewords) const;

  /// Same decodes through the scalar reference build of the kernels
  /// (bch_reference.cpp).  Test observability: ecc_test diffs these against
  /// decode()/decode_batch() bit-for-bit.
  [[nodiscard]] DecodeResult decode_reference(
      std::span<const std::uint8_t> codeword_bits) const;
  [[nodiscard]] std::vector<DecodeResult> decode_batch_reference(
      std::span<const std::span<const std::uint8_t>> codewords) const;

  /// Parity overhead as a fraction of the shortened codeword for a given
  /// data length.
  [[nodiscard]] double overhead(std::size_t data_len) const noexcept {
    return static_cast<double>(parity_bits()) /
           static_cast<double>(data_len + parity_bits());
  }

  /// Choose t for a fixed total (shortened) codeword length: t covers the
  /// expected errors across the whole codeword_bits with margin_sigmas
  /// standard deviations of headroom, and the parity must still leave room
  /// for data.  Suits layouts that fix the channel budget first (VT-HI
  /// fixes hidden bits per block) and carve data capacity out of it.
  /// Returns 0 when infeasible.
  [[nodiscard]] static int pick_t_for_codeword(int m, std::size_t codeword_bits,
                                               double raw_ber,
                                               double margin_sigmas = 3.0);

 private:
  [[nodiscard]] DecodeResult decode_with(
      std::span<const std::uint8_t> codeword_bits, const detail::BchKernels& k,
      detail::BchScratch& scratch) const;

  GaloisField gf_;
  int t_;
  std::shared_ptr<const CodeData> data_;
};

}  // namespace stash::ecc
