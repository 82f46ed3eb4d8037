#pragma once
// FlashChip: a cell-accurate, voltage-level NAND flash simulator.
//
// This is the substitute for the paper's real 1x-nm MLC packages + SigNAS-II
// tester (DESIGN.md §1).  Every cell carries a continuous threshold voltage
// on the tester's normalized 0-255 scale; operations reproduce the §4 noise
// phenomenology: programming noise, manufacturing variation at chip / block
// / page / cell granularity, program disturb, wear-induced right shift, and
// retention charge leakage.
//
// Standard (ONFI-available) operations: erase_block, program_page,
// read_page.  Vendor operations the paper obtained under NDA:
// read_page_at (shifted reference read), probe_voltages (per-cell voltage
// measurement), partial_program (PROGRAM aborted midway), and fine_program
// (the controller-internal precise pass §6.2 argues vendors could expose).
//
// Blocks are lazily allocated: a full-geometry "8 GB" chip only pays for
// blocks that are touched.
//
// Concurrency contract (stash::par builds on this):
//   * Noise draws are counter-based (stash::kernels Philox): every draw is
//     a pure function of (serial seed, op kind, block, page, per-block op
//     epoch, cell index).  Every mutating operation touches only the
//     addressed block, so operations on DISTINCT blocks may run
//     concurrently from any threads and still produce byte-identical
//     per-block voltages — regardless of how the operations interleave
//     across blocks, of thread count, and of SIMD lane width.
//   * Operations on the SAME block are serialized by an internal striped
//     lock (no data races), but their relative order determines the
//     block's epoch sequence: callers that need reproducibility must
//     submit same-block operations in a deterministic order (stash::par's
//     shard queues do exactly this).  Within one operation, per-cell draws
//     are order-independent by construction.
//   * The cost ledger accumulates in fixed-point atomics, so totals are
//     exact and thread-count independent.
//   * Whole-chip sweeps (bake(), voltage_histogram(), program_block_random)
//     and accessors returning raw state assume no concurrent mutation of
//     the blocks they visit.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "stash/nand/fault_injector.hpp"
#include "stash/nand/geometry.hpp"
#include "stash/nand/noise.hpp"
#include "stash/util/histogram.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/status.hpp"

namespace stash::nand {

using util::Status;

enum class PageState : std::uint8_t { kErased, kProgrammed };

class FlashChip {
 public:
  /// Throws std::invalid_argument if noise.validate() is non-OK (uniform
  /// config contract).
  FlashChip(const Geometry& geometry, const NoiseModel& noise,
            std::uint64_t serial_seed, OpCosts costs = OpCosts{});

  FlashChip(const FlashChip&) = delete;
  FlashChip& operator=(const FlashChip&) = delete;
  FlashChip(FlashChip&&) = default;
  FlashChip& operator=(FlashChip&&) = default;

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const NoiseModel& noise() const noexcept { return noise_; }
  [[nodiscard]] std::uint64_t serial() const noexcept { return seed_; }

  /// Attach (or detach, with nullptr) a fault injector.  Not owned; must
  /// outlive the chip or be detached first.  Every subsequent operation
  /// consults it before executing.
  void set_fault_injector(FaultInjector* injector) noexcept { fault_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept { return fault_; }

  // ---- Standard flash operations ----------------------------------------

  /// Erase a block: every page returns to the erased state, PEC increments.
  Status erase_block(std::uint32_t block);

  /// Program public data into an erased page.  `bits` holds one value per
  /// cell: 1 = leave erased (logical '1'), 0 = charge (logical '0').
  /// Rejects reprogramming (no in-place updates) and, when the geometry
  /// demands it, out-of-order programming within the block.
  Status program_page(std::uint32_t block, std::uint32_t page,
                      std::span<const std::uint8_t> bits);

  /// Read a page at the standard public reference voltage: 1 below, 0 above.
  [[nodiscard]] std::vector<std::uint8_t> read_page(std::uint32_t block,
                                                    std::uint32_t page);

  /// Allocation-free variant: threshold the page straight into a caller
  /// buffer of at least cells_per_page bytes (the zero-copy read path
  /// writes into an arena slab here).  Returns the cells written — 0 on a
  /// bad address or an interrupting injected fault, reproducing
  /// read_page's empty-vector observable.  Same noise, ledger costs, and
  /// trace span as read_page.
  std::size_t read_page_into(std::uint32_t block, std::uint32_t page,
                             std::span<std::uint8_t> out);

  // ---- Vendor operations (NDA commands on real hardware) -----------------

  /// Read with a shifted reference voltage — the command VT-HI's decoder
  /// uses.  Returns 1 for v < vref, 0 for v >= vref, per cell.
  [[nodiscard]] std::vector<std::uint8_t> read_page_at(std::uint32_t block,
                                                       std::uint32_t page,
                                                       double vref);

  /// Allocation-free shifted read (see read_page_into).
  std::size_t read_page_at_into(std::uint32_t block, std::uint32_t page,
                                double vref, std::span<std::uint8_t> out);

  /// Per-cell voltage measurement in the tester's discrete normalized units.
  /// Costs one read operation.
  [[nodiscard]] std::vector<int> probe_voltages(std::uint32_t block,
                                                std::uint32_t page);

  /// Allocation-free variant: quantize the page's voltages into a caller
  /// buffer of exactly cells_per_page entries.  Same semantics and ledger
  /// costs as probe_voltages; hot callers (the VT-HI step loop) reuse one
  /// buffer across probes.
  Status probe_voltages_into(std::uint32_t block, std::uint32_t page,
                             std::span<int> out);

  /// Partial program: a PROGRAM aborted midway (§6.2).  Applies one coarse,
  /// noisy voltage increment to the listed cells and program-disturb to
  /// adjacent wordlines.  Voltage can only increase.  `step_scale`
  /// modulates the increment for earlier/later aborts (1.0 = the nominal
  /// midway abort).
  Status partial_program(std::uint32_t block, std::uint32_t page,
                         std::span<const std::uint32_t> cells,
                         double step_scale = 1.0);

  /// Controller-internal precise programming pass (requires firmware
  /// support; used by the paper's "enhanced capacity" configuration §8).
  /// Each listed cell is charged toward N(target_mu, target_sigma) plus an
  /// optional exponential spread of mean target_tail (lets the hiding
  /// firmware shape the hidden population like the natural voltage tail),
  /// never downward.  Costs one partial-program operation.
  Status fine_program(std::uint32_t block, std::uint32_t page,
                      std::span<const std::uint32_t> cells, double target_mu,
                      double target_sigma, double target_tail = 0.0);

  /// Apply `cycles` of extra program stress to the listed cells (the
  /// physical channel PT-HI encodes in: heavy repeated programming
  /// permanently changes a cell's programming speed).  Charges the ledger
  /// for the equivalent program/erase traffic and wears the block.
  Status stress_cells(std::uint32_t block, std::uint32_t page,
                      std::span<const std::uint32_t> cells,
                      std::uint32_t cycles);

  /// Effective program speed of one cell (manufacturing trait + accumulated
  /// stress).  This is what a PP-race decoder indirectly observes.
  [[nodiscard]] double effective_speed(std::uint32_t block, std::uint32_t page,
                                       std::uint32_t cell) const;

  // ---- Wear and retention -------------------------------------------------

  /// Fast-forward n program/erase cycles on a block (equivalent to cycling
  /// it with random data, without paying the per-cycle simulation cost).
  /// Leaves the block erased.  Pass charge_ledger=true when the cycles are
  /// part of a measured workload (PT-HI's stress encoding) rather than
  /// experiment setup.
  Status age_cycles(std::uint32_t block, std::uint32_t n,
                    bool charge_ledger = false);

  /// Let `hours` of retention time pass for one block or the whole chip.
  /// Charge leaks toward the erased level; leakage accelerates with wear.
  void bake_block(std::uint32_t block, double hours);
  void bake(double hours);

  [[nodiscard]] std::uint32_t pec(std::uint32_t block) const;
  [[nodiscard]] PageState page_state(std::uint32_t block,
                                     std::uint32_t page) const;

  // ---- Introspection -------------------------------------------------------

  /// Voltage histogram of one block or one page over [0, 255] with the given
  /// number of bins; counts every cell.  Does not charge ledger costs (it is
  /// the analysis-side view an attacker or calibration script assembles from
  /// probes).
  [[nodiscard]] util::Histogram voltage_histogram(std::uint32_t block,
                                                  std::size_t bins = 256) const;
  [[nodiscard]] util::Histogram page_voltage_histogram(
      std::uint32_t block, std::uint32_t page, std::size_t bins = 256) const;

  /// Materialized snapshot of the fixed-point atomic ledger.  Safe to call
  /// while operations run on other threads; totals are exact (integer
  /// nanosecond/nanojoule accumulation) and independent of thread count.
  [[nodiscard]] CostLedger ledger() const noexcept;
  void reset_ledger() noexcept;
  /// Raw fixed-point simulated-time total (integer nanoseconds).  Exact,
  /// monotone, and thread-count independent — StashDevice sums these
  /// across chips as its virtual clock for deterministic tracing.
  [[nodiscard]] std::uint64_t time_ns() const noexcept;
  [[nodiscard]] const OpCosts& costs() const noexcept { return costs_; }

  /// Convenience: program every page of a block with pseudorandom data
  /// (what encrypted public data looks like, §4).  Returns the data written.
  std::vector<std::vector<std::uint8_t>> program_block_random(
      std::uint32_t block, std::uint64_t data_seed);

  /// Release the cell arrays of a block (it reads as uninitialized
  /// afterwards).  Lets experiments stream over many blocks without
  /// holding them all in memory.
  void drop_block(std::uint32_t block);
  /// Release every allocated block (snapshot restore starts from a clean
  /// slate before deserializing the saved blocks).
  void drop_all_blocks();

  // ---- Persistence (stash::store) ----------------------------------------
  //
  // Full-state round trip: serialize_meta + serialize_block over every
  // allocated block captures everything a restore needs to reproduce the
  // chip bit-exactly — per-cell voltages, page states, age, sparse stress,
  // per-block RNG epochs, PEC, program cursor, and the cost ledger.  The
  // encoding is canonical (util::wire little-endian; the sparse stress map
  // emitted in key order), so identical logical state always serializes to
  // identical bytes and state_digest() is a meaningful equality gate.

  /// True when `block` has been lazily materialized (has state to save).
  [[nodiscard]] bool block_allocated(std::uint32_t block) const;
  /// Append the canonical serialization of one allocated block.
  /// kOutOfBounds for a bad address, kNotFound for an unallocated block.
  Status serialize_block(std::uint32_t block,
                         std::vector<std::uint8_t>& out) const;
  /// Replace `block`'s state from a serialize_block record (allocating it
  /// if needed).  kCorrupted on any malformed or geometry-mismatched input;
  /// the block is untouched on failure.
  Status deserialize_block(std::uint32_t block,
                           std::span<const std::uint8_t> bytes);
  /// Chip state outside the blocks: the fixed-point cost ledger.
  void serialize_meta(std::vector<std::uint8_t>& out) const;
  Status deserialize_meta(std::span<const std::uint8_t> bytes);
  /// FNV-1a digest over the canonical serialization of the meta record and
  /// every allocated block (in block order).  Bit-exact restore <=> equal
  /// digests; the snapshot tests and the soak harness gate on this.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct Block {
    std::vector<float> v;               // cells_per_page * pages_per_block
    std::vector<PageState> state;       // per page
    std::vector<float> age_hours;       // per page, since last program/erase
    /// Sparse per-cell stress (extra program cycles), keyed by
    /// page * cells_per_page + cell.  Survives erase: it is permanent
    /// physical wear, which is exactly why PT-HI can use it.
    std::unordered_map<std::uint64_t, float> stress;
    /// Per-block operation epoch: incremented once by every noise-drawing
    /// operation and folded into the draw keys, so repeating an op on the
    /// same page yields fresh noise while the draws inside one op stay a
    /// pure function of (seed, op, block, page, epoch, cell) — the
    /// counter-based scheme the concurrency contract in the file header
    /// relies on.
    std::uint64_t epoch = 0;
    std::uint32_t pec = 0;
    std::uint32_t next_program_page = 0;
  };

  /// Fixed-point ledger accumulator: integer adds commute, so the totals a
  /// multi-threaded run reports are bit-identical to a serial run's.
  struct AtomicLedger {
    std::atomic<std::uint64_t> time_ns{0};
    std::atomic<std::uint64_t> energy_nj{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> programs{0};
    std::atomic<std::uint64_t> erases{0};
    std::atomic<std::uint64_t> partial_programs{0};
  };

  static constexpr std::size_t kLockStripes = 64;
  [[nodiscard]] std::mutex& block_lock(std::uint32_t block) const noexcept {
    return locks_[block % kLockStripes];
  }
  void charge(double us, double uj) noexcept;
  /// Fault injectors carry chip-wide mutable state (operation counters,
  /// schedules), so every consultation is serialized on a dedicated lock
  /// (the stripe array's extra slot).  Note that fault *decisions* keyed on
  /// global op indices are only reproducible under a deterministic
  /// chip-wide op order — drive fault-injected chips from one shard.
  FaultDecision consult_fault(FaultOp op, std::uint32_t block,
                              std::uint32_t page);

  [[nodiscard]] Status check_addr(std::uint32_t block, std::uint32_t page) const;
  Block& touch(std::uint32_t block);
  [[nodiscard]] const Block* peek(std::uint32_t block) const;

  // Deterministic per-entity manufacturing traits (never stored).
  [[nodiscard]] double chip_mu_offset() const noexcept;
  [[nodiscard]] double block_mu_offset(std::uint32_t block) const noexcept;
  [[nodiscard]] double page_mu_offset(std::uint32_t block,
                                      std::uint32_t page) const noexcept;
  [[nodiscard]] double cell_speed(std::uint32_t block, std::uint32_t page,
                                  std::uint32_t cell) const noexcept;
  [[nodiscard]] bool cell_is_weak(std::uint32_t block, std::uint32_t page,
                                  std::uint32_t cell) const noexcept;
  // (The per-cell leak factor lives in kernels::leak_row now — retention is
  // a stateless trait, computed where it is applied.)

  /// Redraw every cell of a page from the erased-state distribution (used
  /// by block construction, erase, and fast-forward aging).
  void redraw_page_erased(Block& blk, std::uint32_t block,
                          std::uint32_t page) noexcept;
  void disturb_neighbors(Block& blk, std::uint32_t block, std::uint32_t page,
                         double scale) noexcept;
  void leak_page(Block& blk, std::uint32_t block, std::uint32_t page,
                 double hours) noexcept;

  Geometry geom_;
  NoiseModel noise_;
  OpCosts costs_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Block>> blocks_;
  // Heap-held so the defaulted moves stay valid (mutexes and atomics are
  // not movable).  Moving a chip while operations are in flight is UB.
  std::unique_ptr<std::mutex[]> locks_;
  std::unique_ptr<AtomicLedger> ledger_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace stash::nand
