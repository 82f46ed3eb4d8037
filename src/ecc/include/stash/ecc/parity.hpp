#pragma once
// XOR parity stripes across equal-length buffers.

#include <cstdint>
#include <span>
#include <vector>

namespace stash::ecc {

/// XOR parity stripe (RAID-4 style) across equal-length buffers — the
/// "RAID-like scheme" the paper suggests for protecting hidden data against
/// block loss (§8 "Reliability").
class ParityStripe {
 public:
  /// Parity buffer = XOR of all data buffers.  All buffers must share a size.
  [[nodiscard]] static std::vector<std::uint8_t> compute(
      std::span<const std::vector<std::uint8_t>> buffers);

  /// Reconstruct the buffer at `missing_index` from the survivors + parity.
  [[nodiscard]] static std::vector<std::uint8_t> reconstruct(
      std::span<const std::vector<std::uint8_t>> buffers,
      std::span<const std::uint8_t> parity, std::size_t missing_index);
};

}  // namespace stash::ecc
