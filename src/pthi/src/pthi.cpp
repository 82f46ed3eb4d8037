#include "stash/pthi/pthi.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace stash::pthi {

using util::ErrorCode;

namespace {

/// Cells per hidden bit; half are stressed, half are the reference.  26
/// cells/bit reproduces the paper's PT-HI capacity figure (72 Kb per 64-page
/// block of 144384-cell pages at a 4-page interval).
constexpr std::uint32_t kGroupCells = 26;
/// Extra program cycles applied to the stressed half (paper §8 uses the
/// optimal 625 from Wang et al.).
constexpr std::uint32_t kStressCycles = 625;
/// Pages skipped between hidden pages (paper §8: 4).
constexpr std::uint32_t kPageInterval = 4;
/// PP+read rounds used by the decode race (paper §8: 30).
constexpr int kDecodePpSteps = 30;
/// Reference voltage the race crosses.
constexpr double kRaceVref = 120.0;

}  // namespace

PthiCodec::PthiCodec(nand::FlashChip& chip, const crypto::HidingKey& key)
    : chip_(&chip), selection_key_(key.selection_key()) {}

std::vector<std::uint32_t> PthiCodec::hidden_pages() const {
  std::vector<std::uint32_t> pages;
  constexpr std::uint32_t stride = kPageInterval + 1;
  for (std::uint32_t p = 0; p < chip_->geometry().pages_per_block; p += stride) {
    pages.push_back(p);
  }
  return pages;
}

PthiCapacity PthiCodec::capacity() const {
  PthiCapacity cap;
  cap.bits_per_page = chip_->geometry().cells_per_page / kGroupCells;
  cap.pages_used = static_cast<std::uint32_t>(hidden_pages().size());
  cap.bits_per_block =
      static_cast<std::size_t>(cap.pages_used) * cap.bits_per_page;
  return cap;
}

std::vector<std::uint32_t> PthiCodec::group_cells_for(
    std::uint32_t block, std::uint32_t page, std::uint32_t groups) const {
  // Deterministic keyed sample of groups*G distinct cells, in draw order.
  const std::uint32_t need = groups * kGroupCells;
  const std::uint32_t cells = chip_->geometry().cells_per_page;
  const std::string personalization =
      "pt-hi/b" + std::to_string(block) + "/p" + std::to_string(page);
  crypto::Sha256Drbg drbg(selection_key_, personalization);
  std::vector<std::uint8_t> seen(cells, 0);
  std::vector<std::uint32_t> chosen;
  chosen.reserve(need);
  while (chosen.size() < need) {
    const auto c = static_cast<std::uint32_t>(drbg.below(cells));
    if (seen[c]) continue;
    seen[c] = 1;
    chosen.push_back(c);
  }
  return chosen;
}

Status PthiCodec::encode_page(std::uint32_t block, std::uint32_t page,
                              std::span<const std::uint8_t> bits) {
  const auto cap = capacity();
  if (bits.size() > cap.bits_per_page) {
    return {ErrorCode::kNoSpace, "too many hidden bits for one page"};
  }
  const auto cells =
      group_cells_for(block, page, static_cast<std::uint32_t>(bits.size()));
  const std::uint32_t g = kGroupCells;
  const std::uint32_t half = g / 2;

  std::vector<std::uint32_t> to_stress;
  to_stress.reserve(bits.size() * half);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // Bit 1: stress the first half of the group; bit 0: the second half.
    const std::uint32_t base = static_cast<std::uint32_t>(i) * g;
    const std::uint32_t offset = (bits[i] & 1) ? 0 : half;
    for (std::uint32_t j = 0; j < half; ++j) {
      to_stress.push_back(cells[base + offset + j]);
    }
  }
  return chip_->stress_cells(block, page, to_stress, kStressCycles);
}

Status PthiCodec::encode_block(std::uint32_t block,
                               std::span<const std::uint8_t> bits) {
  const auto cap = capacity();
  if (bits.size() > cap.bits_per_block) {
    return {ErrorCode::kNoSpace, "too many hidden bits for one block"};
  }
  // The stress encoding physically cycles the whole block stress_cycles
  // times: every page is programmed on every cycle, with the stress pattern
  // on hidden pages and dummy data elsewhere (Wang et al.; the paper's §8
  // arithmetic charges 64 page-programs plus one erase per cycle).
  const auto pages = hidden_pages();
  std::size_t offset = 0;
  std::size_t next_hidden = 0;
  for (std::uint32_t p = 0; p < chip_->geometry().pages_per_block; ++p) {
    const bool hidden = next_hidden < pages.size() && pages[next_hidden] == p;
    if (hidden && offset < bits.size()) {
      const std::size_t take =
          std::min<std::size_t>(cap.bits_per_page, bits.size() - offset);
      STASH_RETURN_IF_ERROR(encode_page(block, p, bits.subspan(offset, take)));
      offset += take;
    } else {
      // Dummy traffic: same program cost, no deliberate stress.
      STASH_RETURN_IF_ERROR(
          chip_->stress_cells(block, p, {}, kStressCycles));
    }
    if (hidden) ++next_hidden;
  }
  return chip_->age_cycles(block, kStressCycles,
                           /*charge_ledger=*/true);
}

Result<std::vector<std::uint8_t>> PthiCodec::decode_page(std::uint32_t block,
                                                         std::uint32_t page,
                                                         std::uint32_t count) {
  if (count == 0) return std::vector<std::uint8_t>{};
  const auto cap = capacity();
  if (count > cap.bits_per_page) {
    return Status{ErrorCode::kInvalidArgument, "count exceeds page capacity"};
  }
  if (chip_->page_state(block, page) != nand::PageState::kErased) {
    return Status{ErrorCode::kInvalidArgument,
                  "PT-HI race decode needs an erased page"};
  }
  const auto cells = group_cells_for(block, page, count);
  const std::uint32_t g = kGroupCells;
  const std::uint32_t half = g / 2;

  // PP race: repeatedly nudge all group cells and record the step at which
  // each crosses the reference voltage.  Stressed (faster) cells cross
  // earlier.
  std::vector<int> crossing(cells.size(), kDecodePpSteps + 1);
  for (int step = 1; step <= kDecodePpSteps; ++step) {
    STASH_RETURN_IF_ERROR(chip_->partial_program(block, page, cells));
    const auto volts = chip_->probe_voltages(block, page);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (crossing[i] > kDecodePpSteps &&
          static_cast<double>(volts[cells[i]]) >= kRaceVref) {
        crossing[i] = step;
      }
    }
  }

  std::vector<std::uint8_t> bits(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    double first = 0.0, second = 0.0;
    for (std::uint32_t j = 0; j < half; ++j) {
      first += crossing[i * g + j];
      second += crossing[i * g + half + j];
    }
    // The stressed half crosses first (lower mean step).
    bits[i] = first < second ? 1 : 0;
  }
  return bits;
}

Result<std::vector<std::uint8_t>> PthiCodec::decode_block(
    std::uint32_t block, std::size_t bit_count) {
  // Destructive: wipe whatever public data is present, then race each page.
  STASH_RETURN_IF_ERROR(chip_->erase_block(block));
  const auto cap = capacity();
  std::vector<std::uint8_t> bits;
  bits.reserve(bit_count);
  for (std::uint32_t p : hidden_pages()) {
    if (bits.size() >= bit_count) break;
    const auto take = static_cast<std::uint32_t>(std::min<std::size_t>(
        cap.bits_per_page, bit_count - bits.size()));
    auto page_bits = decode_page(block, p, take);
    if (!page_bits.is_ok()) return page_bits.status();
    const auto& pb = page_bits.value();
    bits.insert(bits.end(), pb.begin(), pb.end());
  }
  return bits;
}

}  // namespace stash::pthi
