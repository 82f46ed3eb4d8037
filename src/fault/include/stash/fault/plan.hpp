#pragma once
// stash::fault — deterministic, seedable fault injection for the NAND stack.
//
// A FaultPlan is the concrete nand::FaultInjector the tests and benches
// attach to a FlashChip.  It schedules faults two ways:
//
//   * by operation index — "the 137th chip operation fails" / "power is cut
//     during the 52nd operation".  Operation indices are global across all
//     op classes, in issue order, so a schedule replays exactly against the
//     same workload;
//   * by address predicate or rate — "every program on block 9 fails"
//     (grown bad block), "1% of programs fail", "0.5% of reads glitch".
//
// Every random draw is a pure function of (seed, op index), never of wall
// clock or call-site state, so two plans with the same seed attached to the
// same workload fire the identical fault schedule — the property
// tests/fault_test.cpp locks down.  fired() returns the audit log of what
// actually fired.
//
// Power-cut model: when a power-cut point fires, the in-flight operation is
// truncated at its scheduled completed_fraction and the device goes dark —
// every subsequent operation reports kPowerLoss (programs/erases) or
// returns nothing (reads) until restore_power() simulates reboot.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "stash/nand/fault_injector.hpp"

namespace stash::fault {

enum class FaultKind : std::uint8_t {
  kProgramFail,
  kEraseFail,
  kPowerCut,
  kReadGlitch,
  kGrownBadBlock,
  kPredicate,
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// One fault that actually fired, in firing order.
struct FiredFault {
  std::uint64_t op_index = 0;
  FaultKind kind = FaultKind::kProgramFail;
  nand::FaultOp op = nand::FaultOp::kProgram;
  std::uint32_t block = 0;
  std::uint32_t page = 0;

  bool operator==(const FiredFault&) const = default;
};

struct FaultStats {
  std::uint64_t ops_seen = 0;
  std::uint64_t program_fails = 0;
  std::uint64_t erase_fails = 0;
  std::uint64_t power_cuts = 0;
  std::uint64_t read_glitches = 0;
  std::uint64_t bad_block_rejections = 0;
  std::uint64_t predicate_fails = 0;
  /// Operations rejected because the device was dark (post power cut).
  std::uint64_t dark_ops = 0;
};

class FaultPlan final : public nand::FaultInjector {
 public:
  /// Returns true when the operation should fail.
  using Predicate = std::function<bool(
      nand::FaultOp op, std::uint32_t block, std::uint32_t page)>;

  explicit FaultPlan(std::uint64_t seed);

  // ---- Schedule: by operation index --------------------------------------
  FaultPlan& fail_program_at(std::uint64_t op_index,
                             double completed_fraction = 0.5);
  FaultPlan& fail_erase_at(std::uint64_t op_index);
  /// Cut power during operation `op_index`: the op applies only
  /// `completed_fraction` of its physical effect and the device goes dark.
  FaultPlan& power_cut_at(std::uint64_t op_index,
                          double completed_fraction = 0.0);

  // ---- Schedule: by rate / address ---------------------------------------
  /// Each program-class op fails with probability `rate` (deterministic in
  /// the op index).
  FaultPlan& fail_programs(double rate);
  FaultPlan& fail_erases(double rate);
  /// Each read returns with `bit_flip_rate` of its bits flipped (probe
  /// voltages get jogged), with probability `rate`.  Transient: the next
  /// read of the same page is clean.
  FaultPlan& glitch_reads(double rate, double bit_flip_rate = 2e-3);
  /// Mark a block grown-bad: every program/erase on it fails, persistently.
  FaultPlan& grow_bad_block(std::uint32_t block);
  /// Pin one cell's observed voltage to `level` (stuck-at defect): probes
  /// report `level`, reads report the corresponding bit.
  FaultPlan& stick_cell(std::uint32_t block, std::uint32_t page,
                        std::uint32_t cell, int level);
  /// Fail any operation the predicate matches (reported as kProgramFail /
  /// kEraseFail / empty read by class).
  FaultPlan& fail_when(Predicate predicate);

  // ---- Power state --------------------------------------------------------
  [[nodiscard]] bool powered() const noexcept { return powered_; }
  /// Go dark immediately (as if a scheduled cut fired between operations).
  void cut_power() noexcept { powered_ = false; }
  /// Reboot: subsequent operations execute normally again.
  void restore_power() noexcept { powered_ = true; }

  // ---- Introspection -------------------------------------------------------
  [[nodiscard]] std::uint64_t ops_seen() const noexcept {
    return stats_.ops_seen;
  }
  [[nodiscard]] const std::vector<FiredFault>& fired() const noexcept {
    return fired_;
  }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool is_grown_bad(std::uint32_t block) const {
    return bad_blocks_.contains(block);
  }

  // ---- nand::FaultInjector -------------------------------------------------
  nand::FaultDecision on_operation(nand::FaultOp op, std::uint32_t block,
                                   std::uint32_t page) override;
  void corrupt_read(std::uint32_t block, std::uint32_t page,
                    std::span<std::uint8_t> bits, double vref) override;
  void corrupt_probe(std::uint32_t block, std::uint32_t page,
                     std::span<int> volts) override;

 private:
  struct Scheduled {
    std::uint64_t op_index = 0;
    FaultKind kind = FaultKind::kProgramFail;
    double completed_fraction = 0.0;
  };
  struct StuckCell {
    std::uint32_t block = 0;
    std::uint32_t page = 0;
    std::uint32_t cell = 0;
    int level = 0;
  };

  void note_fired(std::uint64_t op_index, FaultKind kind, nand::FaultOp op,
                  std::uint32_t block, std::uint32_t page);
  [[nodiscard]] double draw(std::uint64_t salt,
                            std::uint64_t op_index) const noexcept;

  std::uint64_t seed_;
  bool powered_ = true;
  std::vector<Scheduled> scheduled_;
  double program_fail_rate_ = 0.0;
  double erase_fail_rate_ = 0.0;
  double read_glitch_rate_ = 0.0;
  double glitch_bit_flip_rate_ = 2e-3;
  std::unordered_set<std::uint32_t> bad_blocks_;
  std::vector<StuckCell> stuck_;
  std::vector<Predicate> predicates_;
  /// Op index of a glitch armed by on_operation, consumed by corrupt_*.
  std::optional<std::uint64_t> pending_glitch_;
  std::vector<FiredFault> fired_;
  FaultStats stats_;
};

}  // namespace stash::fault
