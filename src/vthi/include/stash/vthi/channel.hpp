#pragma once
// The raw VT-HI voltage channel: keyed cell selection plus the Algorithm-1
// embed loop and single-probe extraction.  No cryptography or ECC here —
// that lives in VthiCodec; benches drive this layer directly to measure raw
// channel BER (Figs. 6 and 7).

#include <cstdint>
#include <span>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/nand/chip.hpp"
#include "stash/util/status.hpp"
#include "stash/vthi/config.hpp"

namespace stash::vthi {

using util::Result;
using util::Status;

/// An in-progress per-page embedding: the selected cells and the bits they
/// must carry.  Obtained from VthiChannel::begin(); advance with step().
struct EmbedSession {
  std::uint32_t block = 0;
  std::uint32_t page = 0;
  std::vector<std::uint32_t> cells;   // selected cells, one per hidden bit
  std::vector<std::uint8_t> bits;     // intended hidden bits
  int steps_taken = 0;
  bool converged = false;
};

class VthiChannel {
 public:
  VthiChannel(nand::FlashChip& chip,
              std::array<std::uint8_t, 32> selection_key,
              ChannelConfig config = {});

  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }

  /// Deterministically select `count` eligible cells for (block, page).
  /// Costs one voltage probe.  Fails with kNoSpace if the page lacks
  /// eligible cells.
  Result<std::vector<std::uint32_t>> select_cells(std::uint32_t block,
                                                  std::uint32_t page,
                                                  std::uint32_t count);

  /// Start an embedding session: selects cells for `bits` and performs no
  /// programming yet.
  Result<EmbedSession> begin(std::uint32_t block, std::uint32_t page,
                             std::span<const std::uint8_t> bits);

  /// One Algorithm-1 iteration: probe the page, partially program every
  /// hidden-'0' cell still below vth.  Returns the number of cells still
  /// below vth after the step (0 = converged).  With use_fine_program the
  /// single step uses the precise controller pass instead.
  Result<int> step(EmbedSession& session);

  /// Full Algorithm-1 loop: begin() + up to max_pp_steps step()s.
  Result<EmbedSession> embed(std::uint32_t block, std::uint32_t page,
                             std::span<const std::uint8_t> bits);

  /// Recover `count` hidden bits from a page with a single voltage probe:
  /// the probe yields both the eligible-cell list and, for each selected
  /// cell, the hidden bit (v >= vth -> '0').
  Result<std::vector<std::uint8_t>> extract(std::uint32_t block,
                                            std::uint32_t page,
                                            std::uint32_t count);

  /// extract() with an explicit hidden read reference — the read-retry
  /// path: a shifted vth re-slices the same voltage population exactly the
  /// way a vendor read-reference shift re-slices a real read.
  Result<std::vector<std::uint8_t>> extract_at(std::uint32_t block,
                                               std::uint32_t page,
                                               std::uint32_t count,
                                               double vth);

  /// §6.3 census: number of eligible cells naturally at or above vth (the
  /// paper's "700 cells per page" bound that caps hidden bits per page).
  Result<std::size_t> natural_above_threshold(std::uint32_t block,
                                              std::uint32_t page);

 private:
  /// Shared selection walk over a probed voltage map.
  [[nodiscard]] std::vector<std::uint32_t> select_from_voltages(
      std::uint32_t block, std::uint32_t page, std::uint32_t count,
      const std::vector<int>& volts) const;

  nand::FlashChip* chip_;
  std::array<std::uint8_t, 32> selection_key_;
  ChannelConfig config_;
};

}  // namespace stash::vthi
