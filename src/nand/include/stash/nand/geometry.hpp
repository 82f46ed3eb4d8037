#pragma once
// Chip geometry descriptions.  The paper's primary test chip (§6.1) is a
// 1x-nm planar MLC package: 8 GB, 2048 blocks, 256 pages/block (128 lower +
// 128 upper), 18048-byte pages, 3000 PEC rated lifetime.  The applicability
// chip (§8) is a 16 GB model from a second vendor with 2096 blocks and
// 18256-byte pages.

#include <cstdint>

namespace stash::nand {

struct Geometry {
  std::uint32_t blocks = 64;
  std::uint32_t pages_per_block = 64;
  /// One public (SLC-style) bit per cell; 18048-byte page = 144384 cells.
  std::uint32_t cells_per_page = 4096;
  /// Rated program/erase cycles before the block is considered worn out.
  std::uint32_t pec_limit = 3000;

  /// The paper's primary chip model, full scale.
  [[nodiscard]] static Geometry vendor_a() noexcept {
    return {.blocks = 2048,
            .pages_per_block = 256,
            .cells_per_page = 144384,
            .pec_limit = 3000};
  }

  /// Second-vendor chip used for the §8 applicability experiment.
  [[nodiscard]] static Geometry vendor_b() noexcept {
    return {.blocks = 2096,
            .pages_per_block = 256,
            .cells_per_page = 146048,  // 18256-byte pages
            .pec_limit = 3000};
  }

  /// Scaled experiment geometry: paper page width divided by `divisor`,
  /// with the 64-pages/block figure the paper itself uses in its §8
  /// throughput arithmetic.  divisor=1 reproduces the full page width.
  [[nodiscard]] static Geometry experiment(std::uint32_t divisor = 4,
                                           std::uint32_t blocks = 64) noexcept {
    return {.blocks = blocks,
            .pages_per_block = 64,
            .cells_per_page = 144384 / (divisor == 0 ? 1 : divisor),
            .pec_limit = 3000};
  }

  /// Tiny geometry for unit tests.
  [[nodiscard]] static Geometry tiny() noexcept {
    return {.blocks = 8,
            .pages_per_block = 8,
            .cells_per_page = 2048,
            .pec_limit = 3000};
  }
};

/// Flat page address within a chip.
struct PageAddr {
  std::uint32_t block = 0;
  std::uint32_t page = 0;

  bool operator==(const PageAddr&) const = default;
  auto operator<=>(const PageAddr&) const = default;
};

}  // namespace stash::nand
