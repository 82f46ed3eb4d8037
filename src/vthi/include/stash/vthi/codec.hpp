#pragma once
// VthiCodec: the user-facing VT-HI pipeline from the paper's Figure 4 —
//   payload -> encrypt (ChaCha20) -> authenticate (HMAC) -> ECC (BCH)
//           -> keyed cell selection -> iterative partial programming,
// and the reverse on reveal.  One codec instance manages one flash chip
// with one hiding key; payloads are hidden at block granularity.

#include <cstdint>
#include <span>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/ecc/bch.hpp"
#include "stash/nand/chip.hpp"
#include "stash/util/status.hpp"
#include "stash/vthi/channel.hpp"
#include "stash/vthi/config.hpp"

namespace stash::vthi {

struct HideReport {
  std::uint32_t pages_used = 0;
  std::uint32_t codewords = 0;
  std::size_t payload_bytes = 0;
  std::size_t capacity_bytes = 0;
  int max_pp_steps_taken = 0;
  /// Cells that never reached vth within the step budget (raw errors the
  /// ECC must absorb).
  int unconverged_cells = 0;
};

class VthiCodec {
 public:
  VthiCodec(nand::FlashChip& chip, const crypto::HidingKey& key,
            VthiConfig config = VthiConfig::production());

  [[nodiscard]] const VthiConfig& config() const noexcept { return config_; }
  [[nodiscard]] VthiChannel& channel() noexcept { return channel_; }

  /// Pages of a block that carry hidden data under the configured interval.
  [[nodiscard]] std::vector<std::uint32_t> hidden_pages() const;

  /// Hidden payload capacity of one block, after ECC parity, MAC and
  /// framing overhead.
  [[nodiscard]] std::size_t capacity_bytes() const;

  /// Fraction of hidden bits spent on ECC parity (the §6.3/§8 overhead
  /// figure: ~5% at the production config's BER, ~14% at the enhanced one).
  [[nodiscard]] double ecc_overhead() const;

  /// Embed `payload` into the public data already present in `block`.
  util::Result<HideReport> hide(std::uint32_t block,
                                std::span<const std::uint8_t> payload);

  /// Recover and authenticate the hidden payload of `block`.  When
  /// `corrected_bits` is non-null and the reveal succeeds, it receives the
  /// number of raw channel errors the ECC repaired — the health metric a
  /// refresh policy watches; after a failure its value has no meaning.
  /// On decode failure the hidden reference is shifted and the block
  /// re-read, up to kMaxReadRetries times.  Each attempt decodes the
  /// codeword that holds the frame's length field first and stops with
  /// kAuthFailure when the length is out of bounds, which is how almost
  /// every block without a frame (a wrong key, a non-carrier) fails.
  /// kOutOfBounds, which is not retried, includes a probe the chip did not
  /// serve (FlashChip::probe_voltages came back empty): it says nothing
  /// of whether the block carries a frame.
  util::Result<std::vector<std::uint8_t>> reveal(std::uint32_t block,
                                                 int* corrected_bits = nullptr);

  /// Destroy hidden data instantly by erasing the block (the paper's
  /// "almost instantaneous" panic path; public data dies with it).
  util::Status erase_hidden(std::uint32_t block);

  /// Refresh hidden data in place (§8 "Reliability": "re-writing
  /// (refreshing) hidden data every several months ... can significantly
  /// improve retention").  Reveals the payload (ECC repairs any
  /// retention-leaked bits) and re-runs the embedding, which re-charges
  /// exactly the hidden-'0' cells that slipped below the threshold.
  /// Public data is untouched.
  util::Result<HideReport> refresh(std::uint32_t block);

  /// §6.3's capacity rule: the number of hidden bits per page must stay
  /// below the natural population of eligible cells already above the
  /// threshold ("we verified that the total number of cells in the range
  /// is larger than the total number of hidden bits"), or the voltage
  /// distribution acquires a telltale surplus.  Returns the recommended
  /// per-page budget for this block: safety_factor * the minimum census
  /// across the block's hidden pages (the paper measured >= 700 and chose
  /// 512 as the cap, then 256 conservatively — a factor near 0.5).
  util::Result<std::uint32_t> recommended_bits_per_page(
      std::uint32_t block, double safety_factor = 0.5);

 private:
  struct Layout {
    std::uint32_t pages_used = 0;
    std::size_t total_bits = 0;     // hidden bits across the block
    std::uint32_t codewords = 0;
    std::size_t parity_bits = 0;    // across all codewords
    std::size_t data_bits = 0;      // total_bits - parity_bits
  };
  [[nodiscard]] Layout layout() const;

  [[nodiscard]] std::vector<std::uint8_t> frame_payload(
      std::uint32_t block, std::span<const std::uint8_t> payload,
      std::size_t data_bits) const;

  /// One decode pass at a given hidden read reference: extract every
  /// hidden page, then decode the length field's codeword, check the
  /// length, and decode the rest.
  util::Result<std::vector<std::uint8_t>> reveal_at(std::uint32_t block,
                                                    double vth,
                                                    int* corrected_bits);

  nand::FlashChip* chip_;
  crypto::HidingKey key_;
  VthiConfig config_;
  VthiChannel channel_;
  ecc::BchCode bch_;
};

}  // namespace stash::vthi
