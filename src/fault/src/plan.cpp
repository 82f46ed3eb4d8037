#include "stash/fault/plan.hpp"

#include <algorithm>
#include <cmath>

#include "stash/util/rng.hpp"

namespace stash::fault {
namespace {

using nand::FaultDecision;
using nand::FaultOp;
using util::hash_words;
using util::Xoshiro256;

bool is_program_class(FaultOp op) noexcept {
  return op == FaultOp::kProgram || op == FaultOp::kPartialProgram ||
         op == FaultOp::kFineProgram;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kProgramFail: return "program_fail";
    case FaultKind::kEraseFail: return "erase_fail";
    case FaultKind::kReadFail: return "read_fail";
    case FaultKind::kPowerCut: return "power_cut";
    case FaultKind::kReadGlitch: return "read_glitch";
    case FaultKind::kGrownBadBlock: return "grown_bad_block";
    case FaultKind::kPredicate: return "predicate";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {}

// ---- Schedule builders ------------------------------------------------------

FaultPlan& FaultPlan::fail_program_at(std::uint64_t op_index,
                                      double completed_fraction) {
  scheduled_.push_back(
      {op_index, FaultKind::kProgramFail, completed_fraction});
  return *this;
}

FaultPlan& FaultPlan::fail_erase_at(std::uint64_t op_index) {
  scheduled_.push_back({op_index, FaultKind::kEraseFail, 0.0});
  return *this;
}

FaultPlan& FaultPlan::fail_read_at(std::uint64_t op_index) {
  scheduled_.push_back({op_index, FaultKind::kReadFail, 0.0});
  return *this;
}

FaultPlan& FaultPlan::power_cut_at(std::uint64_t op_index,
                                   double completed_fraction) {
  scheduled_.push_back({op_index, FaultKind::kPowerCut, completed_fraction});
  return *this;
}

FaultPlan& FaultPlan::fail_programs(double rate) {
  program_fail_rate_ = std::clamp(rate, 0.0, 1.0);
  return *this;
}

FaultPlan& FaultPlan::fail_erases(double rate) {
  erase_fail_rate_ = std::clamp(rate, 0.0, 1.0);
  return *this;
}

FaultPlan& FaultPlan::glitch_reads(double rate, double bit_flip_rate) {
  read_glitch_rate_ = std::clamp(rate, 0.0, 1.0);
  glitch_bit_flip_rate_ = std::clamp(bit_flip_rate, 0.0, 1.0);
  return *this;
}

FaultPlan& FaultPlan::grow_bad_block(std::uint32_t block) {
  bad_blocks_.insert(block);
  return *this;
}

FaultPlan& FaultPlan::stick_cell(std::uint32_t block, std::uint32_t page,
                                 std::uint32_t cell, int level) {
  stuck_.push_back({block, page, cell, level});
  return *this;
}

FaultPlan& FaultPlan::fail_when(Predicate predicate) {
  predicates_.push_back(std::move(predicate));
  return *this;
}

// ---- Firing -----------------------------------------------------------------

void FaultPlan::note_fired(std::uint64_t op_index, FaultKind kind, FaultOp op,
                           std::uint32_t block, std::uint32_t page) {
  fired_.push_back({op_index, kind, op, block, page});
  switch (kind) {
    case FaultKind::kProgramFail: ++stats_.program_fails; break;
    case FaultKind::kEraseFail: ++stats_.erase_fails; break;
    case FaultKind::kReadFail: ++stats_.read_fails; break;
    case FaultKind::kPowerCut: ++stats_.power_cuts; break;
    case FaultKind::kReadGlitch: ++stats_.read_glitches; break;
    case FaultKind::kGrownBadBlock: ++stats_.bad_block_rejections; break;
    case FaultKind::kPredicate: ++stats_.predicate_fails; break;
  }
}

double FaultPlan::draw(std::uint64_t salt,
                       std::uint64_t op_index) const noexcept {
  return static_cast<double>(
             util::splitmix64(hash_words(seed_, salt, op_index)) >> 11) *
         0x1.0p-53;
}

FaultDecision FaultPlan::on_operation(FaultOp op, std::uint32_t block,
                                      std::uint32_t page) {
  const std::uint64_t idx = stats_.ops_seen++;
  pending_glitch_.reset();

  if (!powered_) {
    ++stats_.dark_ops;
    return {.fail = false, .power_cut = true, .completed_fraction = 0.0};
  }

  // Point schedule first: an explicit "fail op N" beats every other rule.
  for (auto it = scheduled_.begin(); it != scheduled_.end(); ++it) {
    if (it->op_index != idx) continue;
    const FaultKind kind = it->kind;
    const bool matches =
        kind == FaultKind::kPowerCut ||
        (kind == FaultKind::kProgramFail && is_program_class(op)) ||
        (kind == FaultKind::kEraseFail && op == FaultOp::kErase) ||
        (kind == FaultKind::kReadFail && op == FaultOp::kRead);
    if (!matches) continue;
    const double fraction = it->completed_fraction;
    scheduled_.erase(it);  // one-shot
    note_fired(idx, kind, op, block, page);
    if (kind == FaultKind::kPowerCut) {
      powered_ = false;
      return {.fail = false, .power_cut = true,
              .completed_fraction = fraction};
    }
    return {.fail = true, .power_cut = false, .completed_fraction = fraction};
  }

  // Grown bad blocks reject programs and erases; reads still work (the FTL
  // must be able to drain a block it is retiring).
  if (op != FaultOp::kRead && bad_blocks_.contains(block)) {
    note_fired(idx, FaultKind::kGrownBadBlock, op, block, page);
    return {.fail = true, .power_cut = false, .completed_fraction = 0.0};
  }

  for (const Predicate& p : predicates_) {
    if (p(op, block, page)) {
      note_fired(idx, FaultKind::kPredicate, op, block, page);
      return {.fail = true, .power_cut = false, .completed_fraction = 0.0};
    }
  }

  if (is_program_class(op) && program_fail_rate_ > 0.0 &&
      draw(0xFA17'0001ULL, idx) < program_fail_rate_) {
    note_fired(idx, FaultKind::kProgramFail, op, block, page);
    return {.fail = true, .power_cut = false, .completed_fraction = 0.0};
  }
  if (op == FaultOp::kErase && erase_fail_rate_ > 0.0 &&
      draw(0xFA17'0002ULL, idx) < erase_fail_rate_) {
    note_fired(idx, FaultKind::kEraseFail, op, block, page);
    return {.fail = true, .power_cut = false, .completed_fraction = 0.0};
  }
  if (op == FaultOp::kRead && read_glitch_rate_ > 0.0 &&
      draw(0xFA17'0003ULL, idx) < read_glitch_rate_) {
    // The read completes; its result gets corrupted in corrupt_read /
    // corrupt_probe, keyed by this op index so the damage is reproducible.
    pending_glitch_ = idx;
    note_fired(idx, FaultKind::kReadGlitch, op, block, page);
  }

  return {};
}

void FaultPlan::corrupt_read(std::uint32_t block, std::uint32_t page,
                             std::span<std::uint8_t> bits, double vref) {
  for (const StuckCell& s : stuck_) {
    if (s.block == block && s.page == page && s.cell < bits.size()) {
      bits[s.cell] = static_cast<double>(s.level) < vref ? 1 : 0;
    }
  }
  if (!pending_glitch_) return;
  const std::uint64_t idx = *pending_glitch_;
  pending_glitch_.reset();
  Xoshiro256 rng(hash_words(seed_, 0x617C4ULL, idx));
  const double expected =
      glitch_bit_flip_rate_ * static_cast<double>(bits.size());
  auto flips = static_cast<std::size_t>(expected);
  if (rng.uniform() < expected - std::floor(expected)) ++flips;
  flips = std::max<std::size_t>(flips, 1);
  for (std::size_t i = 0; i < flips; ++i) {
    bits[rng.below(bits.size())] ^= 1u;
  }
}

void FaultPlan::corrupt_probe(std::uint32_t block, std::uint32_t page,
                              std::span<int> volts) {
  for (const StuckCell& s : stuck_) {
    if (s.block == block && s.page == page && s.cell < volts.size()) {
      volts[s.cell] = s.level;
    }
  }
  if (!pending_glitch_) return;
  const std::uint64_t idx = *pending_glitch_;
  pending_glitch_.reset();
  Xoshiro256 rng(hash_words(seed_, 0x617C4ULL, idx));
  const double expected =
      glitch_bit_flip_rate_ * static_cast<double>(volts.size());
  auto jogs = static_cast<std::size_t>(expected);
  if (rng.uniform() < expected - std::floor(expected)) ++jogs;
  jogs = std::max<std::size_t>(jogs, 1);
  for (std::size_t i = 0; i < jogs; ++i) {
    const std::size_t c = rng.below(volts.size());
    // Sense-amp noise spike: enough to cross a nearby reference.
    const int jolt = 4 + static_cast<int>(rng.below(12));
    volts[c] = std::clamp(volts[c] + (rng() & 1 ? jolt : -jolt), 0, 255);
  }
}

}  // namespace stash::fault
