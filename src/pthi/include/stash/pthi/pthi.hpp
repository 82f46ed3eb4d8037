#pragma once
// PT-HI: the program-time hiding baseline (Wang et al., IEEE S&P 2013) the
// paper compares against in Table 1 and §8.  Hidden bits are encoded by
// applying hundreds of extra program cycles to half of each keyed cell
// group; the stressed cells become permanently faster to program.  Decoding
// races the group with partial-programming steps and watches which half
// crosses a reference voltage first — a destructive process that wipes any
// public data in the block.

#include <cstdint>
#include <span>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/nand/chip.hpp"
#include "stash/util/status.hpp"

namespace stash::pthi {

using util::Result;
using util::Status;

struct PthiCapacity {
  std::uint32_t pages_used = 0;
  std::uint32_t bits_per_page = 0;
  std::size_t bits_per_block = 0;
};

class PthiCodec {
 public:
  PthiCodec(nand::FlashChip& chip, const crypto::HidingKey& key);

  [[nodiscard]] PthiCapacity capacity() const;
  [[nodiscard]] std::vector<std::uint32_t> hidden_pages() const;

  /// Encode raw hidden bits into one page's cell groups.  The block should
  /// be erased; encoding applies heavy program stress (and the equivalent
  /// wear), after which public data may be written over it.
  Status encode_page(std::uint32_t block, std::uint32_t page,
                     std::span<const std::uint8_t> bits);

  /// Encode bits across all hidden pages of a block (round-robin order),
  /// then account the block-level stress wear.
  Status encode_block(std::uint32_t block,
                      std::span<const std::uint8_t> bits);

  /// DESTRUCTIVE decode of one page: runs the PP race.  The page (and in
  /// practice the whole block) must be erased first; afterwards it contains
  /// garbage.  Returns the recovered bits.
  Result<std::vector<std::uint8_t>> decode_page(std::uint32_t block,
                                                std::uint32_t page,
                                                std::uint32_t count);

  /// DESTRUCTIVE block decode: erases the block (killing public data — the
  /// Table 1 "repeated reads" entry), races every hidden page, and leaves
  /// the block full of partially-programmed garbage.
  Result<std::vector<std::uint8_t>> decode_block(std::uint32_t block,
                                                 std::size_t bit_count);

 private:
  /// Keyed assignment of cell groups for a page: a deterministic
  /// permutation prefix, group i = cells [i*G, (i+1)*G).
  [[nodiscard]] std::vector<std::uint32_t> group_cells_for(
      std::uint32_t block, std::uint32_t page, std::uint32_t groups) const;

  nand::FlashChip* chip_;
  std::array<std::uint8_t, 32> selection_key_;
};

}  // namespace stash::pthi
