#pragma once
// Fault-injection hook points for the NAND simulator.
//
// Real NAND fails in ways the noise model alone cannot express: PROGRAM and
// ERASE report status failures, blocks grow bad in the field, cells get
// stuck, reads glitch transiently, and power can disappear in the middle of
// any multi-step sequence (Cai et al.; Copycat — see PAPERS.md).  FlashChip
// consults an attached FaultInjector once per operation and lets it decide
// whether the operation fails, is truncated by a power cut, or proceeds; a
// second pair of hooks lets the injector corrupt read/probe results after
// the fact (stuck cells, transient glitches).
//
// The interface lives in stash::nand so the chip has no dependency on any
// concrete fault model; stash::fault::FaultPlan is the deterministic,
// seedable implementation the tests and benches use.

#include <cstdint>
#include <span>

namespace stash::nand {

/// The operation classes an injector can veto.
enum class FaultOp : std::uint8_t {
  kProgram,
  kErase,
  kRead,            // read_page / read_page_into / probe_voltages
  kPartialProgram,  // the PROGRAM->RESET step
  kFineProgram,
};

/// What the injector decided for one operation.
struct FaultDecision {
  /// Operation reports a status failure (kProgramFail / kEraseFail).
  bool fail = false;
  /// Power was lost during the operation: the op is truncated and the
  /// device stays dark (every later op fails) until power returns.
  bool power_cut = false;
  /// Fraction of the interrupted operation's physical effect that was
  /// applied before it stopped (partial charge on a program, partially
  /// erased pages on an erase).  Only meaningful when fail or power_cut.
  double completed_fraction = 0.0;

  [[nodiscard]] bool interrupts() const noexcept { return fail || power_cut; }
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Consulted once per chip operation, before it executes.
  virtual FaultDecision on_operation(FaultOp op, std::uint32_t block,
                                     std::uint32_t page) = 0;

  /// Corrupt the logical bits of a completed read (stuck cells, glitches).
  /// `vref` is the reference voltage the read used.
  virtual void corrupt_read(std::uint32_t block, std::uint32_t page,
                            std::span<std::uint8_t> bits, double vref) {
    (void)block;
    (void)page;
    (void)bits;
    (void)vref;
  }

  /// Corrupt the voltages of a completed probe.
  virtual void corrupt_probe(std::uint32_t block, std::uint32_t page,
                             std::span<int> volts) {
    (void)block;
    (void)page;
    (void)volts;
  }
};

}  // namespace stash::nand
