#include "stash/nand/chip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stash/kernels/draws.hpp"
#include "stash/kernels/kernels.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/wire.hpp"

namespace stash::nand {
namespace {

/// Trace span address for a page-level op: (block << 32) | page.
constexpr std::uint64_t span_key(std::uint32_t block,
                                 std::uint32_t page) noexcept {
  return (static_cast<std::uint64_t>(block) << 32) | page;
}

using util::ErrorCode;
using util::hash_words;
using util::Xoshiro256;

// Stateless trait hashes live in stash::kernels now so the batch kernels
// and FlashChip's sparse paths share one (bit-compatible) definition.
using kernels::hash_normal;
using kernels::hash_uniform;

constexpr double kVmax = 255.0;

/// Thread-local batch scratch: program_page draws a full page of targets
/// and a weak-cell mask per call; reusing the buffers keeps the hot path
/// allocation-free after the first page on each thread.
struct Scratch {
  std::vector<double> targets;
  std::vector<std::uint8_t> weak;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

FlashChip::FlashChip(const Geometry& geometry, const NoiseModel& noise,
                     std::uint64_t serial_seed, OpCosts costs)
    : geom_(geometry),
      noise_(noise),
      costs_(costs),
      seed_(serial_seed),
      blocks_(geometry.blocks),
      locks_(std::make_unique<std::mutex[]>(kLockStripes + 1)),
      ledger_(std::make_unique<AtomicLedger>()) {
  if (util::Status valid = noise.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
}

void FlashChip::charge(double us, double uj) noexcept {
  // Fixed-point (nano-unit) accumulation: integer adds are exact and
  // commutative, so ledger totals are independent of thread interleaving.
  ledger_->time_ns.fetch_add(static_cast<std::uint64_t>(std::llround(us * 1e3)),
                             std::memory_order_relaxed);
  ledger_->energy_nj.fetch_add(
      static_cast<std::uint64_t>(std::llround(uj * 1e3)),
      std::memory_order_relaxed);
}

std::uint64_t FlashChip::time_ns() const noexcept {
  return ledger_->time_ns.load(std::memory_order_relaxed);
}

CostLedger FlashChip::ledger() const noexcept {
  CostLedger l;
  l.time_us =
      static_cast<double>(ledger_->time_ns.load(std::memory_order_relaxed)) /
      1e3;
  l.energy_uj =
      static_cast<double>(ledger_->energy_nj.load(std::memory_order_relaxed)) /
      1e3;
  l.reads = ledger_->reads.load(std::memory_order_relaxed);
  l.programs = ledger_->programs.load(std::memory_order_relaxed);
  l.erases = ledger_->erases.load(std::memory_order_relaxed);
  l.partial_programs =
      ledger_->partial_programs.load(std::memory_order_relaxed);
  return l;
}

FaultDecision FlashChip::consult_fault(FaultOp op, std::uint32_t block,
                                       std::uint32_t page) {
  const std::lock_guard<std::mutex> lock(locks_[kLockStripes]);
  return fault_->on_operation(op, block, page);
}

void FlashChip::reset_ledger() noexcept {
  ledger_->time_ns.store(0, std::memory_order_relaxed);
  ledger_->energy_nj.store(0, std::memory_order_relaxed);
  ledger_->reads.store(0, std::memory_order_relaxed);
  ledger_->programs.store(0, std::memory_order_relaxed);
  ledger_->erases.store(0, std::memory_order_relaxed);
  ledger_->partial_programs.store(0, std::memory_order_relaxed);
}

Status FlashChip::check_addr(std::uint32_t block, std::uint32_t page) const {
  if (block >= geom_.blocks || page >= geom_.pages_per_block) {
    return {ErrorCode::kOutOfBounds, "address outside chip geometry"};
  }
  return Status::ok();
}

FlashChip::Block& FlashChip::touch(std::uint32_t block) {
  auto& slot = blocks_[block];
  if (!slot) {
    slot = std::make_unique<Block>();
    slot->state.assign(geom_.pages_per_block, PageState::kErased);
    slot->age_hours.assign(geom_.pages_per_block, 0.0f);
    slot->v.resize(static_cast<std::size_t>(geom_.pages_per_block) *
                   geom_.cells_per_page);
    // A fresh (never-cycled) block sits in the erased state.
    for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
      redraw_page_erased(*slot, block, p);
    }
  }
  return *slot;
}

const FlashChip::Block* FlashChip::peek(std::uint32_t block) const {
  return block < blocks_.size() ? blocks_[block].get() : nullptr;
}

// ---- Deterministic manufacturing traits ------------------------------------

double FlashChip::chip_mu_offset() const noexcept {
  return noise_.chip_mu_sigma * hash_normal(hash_words(seed_, 0xC41FULL));
}

double FlashChip::block_mu_offset(std::uint32_t block) const noexcept {
  return noise_.block_mu_sigma *
         hash_normal(hash_words(seed_, 0xB10CULL, block));
}

double FlashChip::page_mu_offset(std::uint32_t block,
                                 std::uint32_t page) const noexcept {
  return noise_.page_mu_sigma *
         hash_normal(hash_words(seed_, 0x9A6EULL, block, page));
}

double FlashChip::cell_speed(std::uint32_t block, std::uint32_t page,
                             std::uint32_t cell) const noexcept {
  return 1.0 + noise_.cell_speed_sigma *
                   hash_normal(hash_words(seed_, 0x59EEDULL, block, page, cell));
}

bool FlashChip::cell_is_weak(std::uint32_t block, std::uint32_t page,
                             std::uint32_t cell) const noexcept {
  return hash_uniform(hash_words(seed_, 0x3EAFULL, block, page, cell)) <
         noise_.weak_cell_prob;
}

double FlashChip::effective_speed(std::uint32_t block, std::uint32_t page,
                                  std::uint32_t cell) const {
  double speed = cell_speed(block, page, cell);
  if (const Block* blk = peek(block)) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(page) * geom_.cells_per_page + cell;
    if (auto it = blk->stress.find(key); it != blk->stress.end()) {
      speed += noise_.stress_speed_shift_per_kcycle *
               static_cast<double>(it->second) / 1000.0;
    }
    // Wear-induced random speed drift: grows with PEC and decorrelates over
    // time (bucketized), gradually burying any deliberate stress signal.
    if (blk->pec > 0) {
      const std::uint64_t bucket = blk->pec / 100;
      speed += noise_.speed_wear_sigma *
               (static_cast<double>(blk->pec) / 1000.0) *
               hash_normal(hash_words(seed_, 0x77EA4ULL, block, page, cell,
                                      bucket));
    }
  }
  return speed;
}

// ---- Voltage drawing --------------------------------------------------------

void FlashChip::redraw_page_erased(Block& blk, std::uint32_t block,
                                   std::uint32_t page) noexcept {
  const double mu = noise_.erased_mu + chip_mu_offset() +
                    block_mu_offset(block) + page_mu_offset(block, page) +
                    noise_.erased_wear_shift_per_kpec *
                        static_cast<double>(blk.pec) / 1000.0;
  // Unit-dependent tail mass: each block/page carries its own lognormal
  // multiplier on the tail probability (§4 unit-to-unit variation).
  const double tail_scale =
      std::exp(noise_.tail_block_sigma *
                   hash_normal(hash_words(seed_, 0x7A11ULL, block)) +
               noise_.tail_page_sigma *
                   hash_normal(hash_words(seed_, 0x7A12ULL, block, page)));
  const double tail_prob = std::min(0.2, noise_.erased_tail_prob * tail_scale);
  const double tail_mean =
      noise_.erased_tail_mean *
      std::exp(noise_.tail_mean_block_sigma *
               hash_normal(hash_words(seed_, 0x7A13ULL, block)));

  float* row =
      blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  const kernels::DrawKey key = kernels::derive_key(
      seed_, kernels::Op::kErasedFill, block, page, blk.epoch);
  // Cap at 80: the erased state physically cannot hold half-programmed
  // charge — the tail stays well below any read reference (Fig. 2a's
  // ~70-level reach).
  const kernels::ErasedParams params{mu, noise_.erased_cell_sigma, tail_prob,
                                     tail_mean, 80.0};
  kernels::erased_fill(key, params, row, 0, geom_.cells_per_page);
}

// ---- Standard operations ------------------------------------------------------

Status FlashChip::erase_block(std::uint32_t block) {
  STASH_RETURN_IF_ERROR(check_addr(block, 0));
  trace::ScopedSpan span(trace::Stage::kNandErase, trace::Op::kErase,
                         span_key(block, 0));
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  if (blk.pec >= geom_.pec_limit * 2) {
    return {ErrorCode::kWornOut, "block exceeded twice its rated lifetime"};
  }
  FaultDecision fd;
  if (fault_) fd = consult_fault(FaultOp::kErase, block, 0);
  // Even an interrupted erase pulse wears the block.
  ++blk.pec;
  ++blk.epoch;  // one epoch per erase; pages share it (keys include page)
  blk.next_program_page = 0;
  // An interrupted erase leaves a prefix of wordlines cleanly erased and the
  // rest untouched (still reading as programmed) — the block is unusable
  // until a successful erase.
  const double frac = fd.interrupts() ? std::clamp(fd.completed_fraction, 0.0, 1.0) : 1.0;
  const auto erased_pages = static_cast<std::uint32_t>(
      frac * static_cast<double>(geom_.pages_per_block));
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    if (fd.interrupts() && p >= erased_pages) continue;
    blk.state[p] = PageState::kErased;
    blk.age_hours[p] = 0.0f;
    redraw_page_erased(blk, block, p);
  }
  charge(costs_.erase_us, costs_.erase_uj);
  span.set_cost_us(costs_.erase_us);
  span.set_status(static_cast<std::uint8_t>(
      fd.power_cut ? ErrorCode::kPowerLoss
      : fd.fail    ? ErrorCode::kEraseFail
                   : ErrorCode::kOk));
  ledger_->erases.fetch_add(1, std::memory_order_relaxed);
  if (fd.power_cut) return {ErrorCode::kPowerLoss, "power lost during erase"};
  if (fd.fail) return {ErrorCode::kEraseFail, "erase reported status failure"};
  return Status::ok();
}

Status FlashChip::program_page(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint8_t> bits) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  if (bits.size() != geom_.cells_per_page) {
    return {ErrorCode::kInvalidArgument, "bit buffer != cells per page"};
  }
  trace::ScopedSpan span(trace::Stage::kNandProgram, trace::Op::kWrite,
                         span_key(block, page), bits.size() / 8);
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  if (blk.state[page] != PageState::kErased) {
    return {ErrorCode::kProgramFail, "page already programmed (no in-place update)"};
  }
  if (geom_.enforce_sequential_program && page != blk.next_program_page) {
    return {ErrorCode::kProgramFail, "pages must be programmed in order"};
  }
  FaultDecision fd;
  if (fault_) fd = consult_fault(FaultOp::kProgram, block, page);
  // A failed program typically aborts mid-ISPP, leaving cells part-way to
  // target; a power cut applies exactly the scheduled fraction (0 = the
  // pulse never started).
  const double frac =
      !fd.interrupts() ? 1.0
      : fd.power_cut   ? std::clamp(fd.completed_fraction, 0.0, 1.0)
      : fd.completed_fraction > 0.0
          ? std::clamp(fd.completed_fraction, 0.0, 1.0)
          : 0.5;

  const double wear_k = static_cast<double>(blk.pec) / 1000.0;
  const double mu = noise_.prog_mu + chip_mu_offset() + block_mu_offset(block) +
                    page_mu_offset(block, page) +
                    noise_.prog_wear_shift_per_kpec * wear_k;
  const double sigma =
      noise_.prog_cell_sigma + noise_.wear_sigma_per_kpec * wear_k;

  const std::uint32_t cells = geom_.cells_per_page;
  float* row = blk.v.data() + static_cast<std::size_t>(page) * cells;
  ++blk.epoch;
  const kernels::DrawKey tkey = kernels::derive_key(
      seed_, kernels::Op::kProgramTarget, block, page, blk.epoch);
  Scratch& s = scratch();
  s.targets.resize(cells);
  s.weak.resize(cells);
  // Batch-draw nominal targets for every cell (sub-stream 0), then
  // overwrite the rare weak cells from sub-stream 1: weak cells program
  // low, and wear makes them weaker still — the public-data BER growth of
  // §8.  Drawing all cells and masking afterwards keeps the loop dense;
  // counter-based draws make the unused targets free of side effects.
  kernels::normal_row(tkey, mu, sigma, s.targets.data(), 0, cells);
  kernels::weak_mask(seed_, block, page, noise_.weak_cell_prob, s.weak.data(),
                     0, cells);
  for (std::uint32_t c = 0; c < cells; ++c) {
    if (s.weak[c]) {
      s.targets[c] = kernels::normal_at(tkey, c, 1,
                                        noise_.weak_cell_mu - 2.0 * wear_k,
                                        noise_.weak_cell_sigma);
    }
  }
  // ISPP apply: never lowers a cell's voltage; an interrupted program only
  // moves each cell `frac` of the way toward its target.  Data-'1' cells
  // stay erased.
  kernels::program_apply(row, s.targets.data(), bits.data(), cells, frac,
                         kVmax);
  // The page is consumed even when the program was interrupted: the device
  // cannot tell how much charge landed, so it may not be reprogrammed
  // without an erase.
  blk.state[page] = PageState::kProgrammed;
  blk.age_hours[page] = 0.0f;
  blk.next_program_page = std::max(blk.next_program_page, page + 1);

  disturb_neighbors(blk, block, page, frac);

  charge(costs_.program_us, costs_.program_uj);
  span.set_cost_us(costs_.program_us);
  span.set_status(static_cast<std::uint8_t>(
      fd.power_cut ? ErrorCode::kPowerLoss
      : fd.fail    ? ErrorCode::kProgramFail
                   : ErrorCode::kOk));
  ledger_->programs.fetch_add(1, std::memory_order_relaxed);
  if (fd.power_cut) return {ErrorCode::kPowerLoss, "power lost during program"};
  if (fd.fail) return {ErrorCode::kProgramFail, "program reported status failure"};
  return Status::ok();
}

std::vector<std::uint8_t> FlashChip::read_page(std::uint32_t block,
                                               std::uint32_t page) {
  return read_page_at(block, page, noise_.public_read_vref);
}

std::size_t FlashChip::read_page_into(std::uint32_t block, std::uint32_t page,
                                      std::span<std::uint8_t> out) {
  return read_page_at_into(block, page, noise_.public_read_vref, out);
}

std::vector<std::uint8_t> FlashChip::read_page_at(std::uint32_t block,
                                                  std::uint32_t page,
                                                  double vref) {
  std::vector<std::uint8_t> out(geom_.cells_per_page);
  const std::size_t cells = read_page_at_into(block, page, vref, out);
  if (cells == 0) return {};
  return out;
}

std::size_t FlashChip::read_page_at_into(std::uint32_t block,
                                         std::uint32_t page, double vref,
                                         std::span<std::uint8_t> out) {
  if (!check_addr(block, page).is_ok()) return 0;
  if (out.size() < geom_.cells_per_page) return 0;
  if (fault_ && consult_fault(FaultOp::kRead, block, page).interrupts()) {
    return 0;
  }
  trace::ScopedSpan span(trace::Stage::kNandRead, trace::Op::kRead,
                         span_key(block, page), geom_.cells_per_page / 8);
  span.set_cost_us(costs_.read_us);
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  const std::uint32_t cells = geom_.cells_per_page;
  const float* row = blk.v.data() + static_cast<std::size_t>(page) * cells;
  kernels::threshold_row(row, vref, out.data(), cells);

  // Read disturb: a handful of erased-level cells gain a whisker of charge.
  // Event count, victim cells, and magnitudes are all counter-based draws
  // (cell index = event index), so reads stay deterministic under the same
  // contract as every other op.
  ++blk.epoch;
  const kernels::DrawKey rkey = kernels::derive_key(
      seed_, kernels::Op::kReadDisturb, block, page, blk.epoch);
  const double expected =
      noise_.read_disturb_prob * static_cast<double>(cells);
  auto events = static_cast<std::uint32_t>(expected);
  if (kernels::uniform_at(rkey, 0, 2) < expected - std::floor(expected)) {
    ++events;
  }
  float* mrow = blk.v.data() + static_cast<std::size_t>(page) * cells;
  for (std::uint32_t i = 0; i < events; ++i) {
    const auto c = static_cast<std::uint32_t>(
        kernels::bounded(kernels::u64_at(rkey, i, 0), cells));
    if (mrow[c] < 90.0f) {
      mrow[c] = static_cast<float>(std::clamp(
          mrow[c] + std::max(0.0, kernels::normal_at(
                                      rkey, i, 1, noise_.read_disturb_mu,
                                      noise_.read_disturb_sigma)),
          0.0, kVmax));
    }
  }

  charge(costs_.read_us, costs_.read_uj);
  ledger_->reads.fetch_add(1, std::memory_order_relaxed);
  if (fault_) {
    const std::lock_guard<std::mutex> fault_guard(locks_[kLockStripes]);
    fault_->corrupt_read(block, page, {out.data(), cells}, vref);
  }
  return cells;
}

std::vector<int> FlashChip::probe_voltages(std::uint32_t block,
                                           std::uint32_t page) {
  if (!check_addr(block, page).is_ok()) return {};
  std::vector<int> out(geom_.cells_per_page);
  if (!probe_voltages_into(block, page, out).is_ok()) return {};
  return out;
}

Status FlashChip::probe_voltages_into(std::uint32_t block, std::uint32_t page,
                                      std::span<int> out) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  if (out.size() != geom_.cells_per_page) {
    return {ErrorCode::kInvalidArgument, "probe buffer != cells per page"};
  }
  if (fault_ && consult_fault(FaultOp::kRead, block, page).interrupts()) {
    return {ErrorCode::kCorrupted, "probe dropped by fault injection"};
  }
  trace::ScopedSpan span(trace::Stage::kNandProbe, trace::Op::kProbe,
                         span_key(block, page));
  span.set_cost_us(costs_.read_us);
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  const float* row =
      blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  kernels::quantize_row(row, out.data(), geom_.cells_per_page);
  charge(costs_.read_us, costs_.read_uj);
  ledger_->reads.fetch_add(1, std::memory_order_relaxed);
  if (fault_) {
    const std::lock_guard<std::mutex> fault_guard(locks_[kLockStripes]);
    fault_->corrupt_probe(block, page, {out.data(), out.size()});
  }
  return Status::ok();
}

// ---- Vendor programming ---------------------------------------------------

Status FlashChip::partial_program(std::uint32_t block, std::uint32_t page,
                                  std::span<const std::uint32_t> cells,
                                  double step_scale) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  if (step_scale <= 0.0) {
    return {ErrorCode::kInvalidArgument, "step_scale must be positive"};
  }
  trace::ScopedSpan span(trace::Stage::kNandPartialProgram, trace::Op::kWrite,
                         span_key(block, page));
  FaultDecision fd;
  if (fault_) fd = consult_fault(FaultOp::kPartialProgram, block, page);
  const double frac =
      fd.interrupts() ? std::clamp(fd.completed_fraction, 0.0, 1.0) : 1.0;
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  ++blk.epoch;
  const kernels::DrawKey key = kernels::derive_key(
      seed_, kernels::Op::kPartialStep, block, page, blk.epoch);
  float* row =
      blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  for (std::uint32_t c : cells) {
    if (c >= geom_.cells_per_page) {
      return {ErrorCode::kOutOfBounds, "cell index outside page"};
    }
    const double speed = effective_speed(block, page, c);
    // A truncated step deposits only `frac` of its charge.  The increment
    // is keyed on the cell index, so the cell list's order (or chunking
    // across threads) cannot change any cell's draw.
    const double inc =
        frac * std::max(0.0, kernels::normal_at(
                                 key, c, 0,
                                 noise_.pp_step_mu * speed * step_scale,
                                 noise_.pp_step_sigma * step_scale));
    row[c] = static_cast<float>(std::clamp(row[c] + inc, 0.0, kVmax));
  }
  // An aborted program still stresses neighbouring wordlines, just far
  // less than a full program pass (the charge pump aborts early).
  disturb_neighbors(blk, block, page, 0.02 * frac);

  charge(costs_.partial_program_us, costs_.partial_program_uj);
  span.set_cost_us(costs_.partial_program_us);
  span.set_status(static_cast<std::uint8_t>(
      fd.power_cut ? ErrorCode::kPowerLoss
      : fd.fail    ? ErrorCode::kProgramFail
                   : ErrorCode::kOk));
  ledger_->partial_programs.fetch_add(1, std::memory_order_relaxed);
  if (fd.power_cut) {
    return {ErrorCode::kPowerLoss, "power lost during partial program"};
  }
  if (fd.fail) {
    return {ErrorCode::kProgramFail, "partial program reported status failure"};
  }
  return Status::ok();
}

Status FlashChip::fine_program(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint32_t> cells,
                               double target_mu, double target_sigma,
                               double target_tail) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  trace::ScopedSpan span(trace::Stage::kNandFineProgram, trace::Op::kWrite,
                         span_key(block, page));
  FaultDecision fd;
  if (fault_) fd = consult_fault(FaultOp::kFineProgram, block, page);
  const double frac =
      fd.interrupts() ? std::clamp(fd.completed_fraction, 0.0, 1.0) : 1.0;
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  ++blk.epoch;
  const kernels::DrawKey key = kernels::derive_key(
      seed_, kernels::Op::kFineTarget, block, page, blk.epoch);
  float* row =
      blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  for (std::uint32_t c : cells) {
    if (c >= geom_.cells_per_page) {
      return {ErrorCode::kOutOfBounds, "cell index outside page"};
    }
    double target = kernels::normal_at(key, c, 0, target_mu, target_sigma);
    if (target_tail > 0.0) {
      target += kernels::exponential_at(key, c, 1, target_tail);
    }
    // The precise pass never drives an erased-level cell anywhere near the
    // read window — cap at the erased-state ceiling (cf. redraw_page_erased)
    // so hidden cells remain cleanly inside the non-programmed band.
    target = std::min(target, 80.0);
    const double full =
        std::clamp(std::max(static_cast<double>(row[c]), target), 0.0, kVmax);
    row[c] = static_cast<float>(row[c] + (full - row[c]) * frac);
  }
  disturb_neighbors(blk, block, page, 0.01 * frac);

  charge(costs_.partial_program_us, costs_.partial_program_uj);
  span.set_cost_us(costs_.partial_program_us);
  span.set_status(static_cast<std::uint8_t>(
      fd.power_cut ? ErrorCode::kPowerLoss
      : fd.fail    ? ErrorCode::kProgramFail
                   : ErrorCode::kOk));
  ledger_->partial_programs.fetch_add(1, std::memory_order_relaxed);
  if (fd.power_cut) {
    return {ErrorCode::kPowerLoss, "power lost during fine program"};
  }
  if (fd.fail) {
    return {ErrorCode::kProgramFail, "fine program reported status failure"};
  }
  return Status::ok();
}

Status FlashChip::stress_cells(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint32_t> cells,
                               std::uint32_t cycles) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  for (std::uint32_t c : cells) {
    if (c >= geom_.cells_per_page) {
      return {ErrorCode::kOutOfBounds, "cell index outside page"};
    }
    const std::uint64_t key =
        static_cast<std::uint64_t>(page) * geom_.cells_per_page + c;
    blk.stress[key] += static_cast<float>(cycles);
  }
  // Ledger: PT-HI pays one program per stress cycle on this page.
  charge(costs_.program_us * cycles, costs_.program_uj * cycles);
  ledger_->programs.fetch_add(cycles, std::memory_order_relaxed);
  return Status::ok();
}

// ---- Disturb ---------------------------------------------------------------

void FlashChip::disturb_neighbors(Block& blk, std::uint32_t block,
                                  std::uint32_t page, double scale) noexcept {
  // Erased-level cells accumulate positive disturb charge (Fig. 2a's
  // partially-charged non-programmed cells); programmed cells suffer rare
  // pass-voltage-assisted charge de-trapping — the mechanism behind the
  // public-BER inflation VT-HI's page interval controls (§6.3; calibrated
  // so interval-0 hiding inflates public BER by roughly the paper's 20%).
  // Draws share the calling operation's epoch; the key's page coordinate is
  // the *disturbed* wordline, so the two neighbours get distinct streams.
  const kernels::DisturbParams params{noise_.disturb_mu * scale,
                                      noise_.disturb_sigma * scale, 90.0,
                                      kVmax};
  const std::uint32_t cells = geom_.cells_per_page;
  for (int d = -1; d <= 1; d += 2) {
    const long npl = static_cast<long>(page) + d;
    if (npl < 0 || npl >= static_cast<long>(geom_.pages_per_block)) continue;
    const auto np = static_cast<std::uint32_t>(npl);
    float* row = blk.v.data() + static_cast<std::size_t>(np) * cells;
    const kernels::DrawKey key = kernels::derive_key(
        seed_, kernels::Op::kDisturb, block, np, blk.epoch);
    kernels::disturb_row(key, params, row, 0, cells);
    // Pass-voltage de-trap: at ~1e-6 per cell it is cheaper to sample the
    // events than to screen every cell, so this uses the read-disturb
    // expected-count scheme.  A victim drawn uniformly but applied only to
    // programmed cells keeps the per-programmed-cell probability at
    // detrap_prob.  NOT scaled by the disturb intensity: de-trapping is
    // triggered by the pass voltage, which every program-class op applies
    // in full.  Sub-streams 2/3/4 are disjoint from the row kernel's pair
    // draws on sub-stream 0.
    const double expected = noise_.detrap_prob * static_cast<double>(cells);
    auto events = static_cast<std::uint32_t>(expected);
    if (kernels::uniform_at(key, 0, 2) < expected - std::floor(expected)) {
      ++events;
    }
    for (std::uint32_t i = 0; i < events; ++i) {
      const auto c = static_cast<std::uint32_t>(
          kernels::bounded(kernels::u64_at(key, i, 3), cells));
      if (row[c] >= 90.0f) {
        const double drop =
            kernels::exponential_at(key, i, 4, noise_.detrap_mean);
        row[c] = static_cast<float>(
            std::max(0.0, static_cast<double>(row[c]) - drop));
      }
    }
  }
}

// ---- Wear and retention -----------------------------------------------------

Status FlashChip::age_cycles(std::uint32_t block, std::uint32_t n,
                             bool charge_ledger) {
  STASH_RETURN_IF_ERROR(check_addr(block, 0));
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  blk.pec += n;
  ++blk.epoch;  // one epoch for the whole fast-forward redraw
  if (charge_ledger) {
    charge(costs_.erase_us * n, costs_.erase_uj * n);
    ledger_->erases.fetch_add(n, std::memory_order_relaxed);
  }
  // Equivalent end state of n random-data cycles: block left erased.
  blk.next_program_page = 0;
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    blk.state[p] = PageState::kErased;
    blk.age_hours[p] = 0.0f;
    redraw_page_erased(blk, block, p);
  }
  return Status::ok();
}

void FlashChip::leak_page(Block& blk, std::uint32_t block, std::uint32_t page,
                          double hours) noexcept {
  const double t0 = blk.age_hours[page];
  const double t1 = t0 + hours;
  const double df = std::log1p(t1 / noise_.leak_tau_hours) -
                    std::log1p(t0 / noise_.leak_tau_hours);
  const double kpec = static_cast<double>(blk.pec) / 1000.0;
  const double wear_accel = noise_.leak_wear_base + kpec * kpec;
  const double base = noise_.leak_rate * df * wear_accel;
  blk.age_hours[page] = static_cast<float>(t1);
  if (base <= 0.0) return;

  // Stateless per-cell leak factors (manufacturing traits) — retention
  // draws no fresh randomness, so there is no epoch here.
  float* row =
      blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  kernels::leak_row(seed_, block, page, base, noise_.leak_floor,
                    noise_.leak_cell_sigma, row, 0, geom_.cells_per_page);
}

void FlashChip::bake_block(std::uint32_t block, double hours) {
  if (!check_addr(block, 0).is_ok() || hours <= 0.0) return;
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    leak_page(blk, block, p, hours);
  }
}

void FlashChip::bake(double hours) {
  for (std::uint32_t b = 0; b < geom_.blocks; ++b) {
    if (blocks_[b]) bake_block(b, hours);
  }
}

std::uint32_t FlashChip::pec(std::uint32_t block) const {
  const Block* blk = peek(block);
  return blk ? blk->pec : 0;
}

PageState FlashChip::page_state(std::uint32_t block, std::uint32_t page) const {
  const Block* blk = peek(block);
  if (!blk || page >= geom_.pages_per_block) return PageState::kErased;
  return blk->state[page];
}

// ---- Introspection -----------------------------------------------------------

util::Histogram FlashChip::voltage_histogram(std::uint32_t block,
                                             std::size_t bins) const {
  util::Histogram h(0.0, 256.0, bins);
  const Block* blk = peek(block);
  if (!blk) return h;
  for (float v : blk->v) h.add(static_cast<double>(v));
  return h;
}

util::Histogram FlashChip::page_voltage_histogram(std::uint32_t block,
                                                  std::uint32_t page,
                                                  std::size_t bins) const {
  util::Histogram h(0.0, 256.0, bins);
  const Block* blk = peek(block);
  if (!blk || page >= geom_.pages_per_block) return h;
  const float* row =
      blk->v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
  for (std::uint32_t c = 0; c < geom_.cells_per_page; ++c) {
    h.add(static_cast<double>(row[c]));
  }
  return h;
}

std::vector<std::vector<std::uint8_t>> FlashChip::program_block_random(
    std::uint32_t block, std::uint64_t data_seed) {
  std::vector<std::vector<std::uint8_t>> written;
  written.reserve(geom_.pages_per_block);
  Xoshiro256 data_rng(hash_words(data_seed, block));
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    std::vector<std::uint8_t> bits(geom_.cells_per_page);
    for (auto& b : bits) b = static_cast<std::uint8_t>(data_rng() & 1);
    if (Status s = program_page(block, p, bits); !s.is_ok()) {
      written.clear();
      return written;
    }
    written.push_back(std::move(bits));
  }
  return written;
}

void FlashChip::drop_block(std::uint32_t block) {
  if (block < blocks_.size()) {
    const std::lock_guard<std::mutex> lock(block_lock(block));
    blocks_[block].reset();
  }
}

void FlashChip::drop_all_blocks() {
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) drop_block(b);
}

// ---- Persistence -----------------------------------------------------------

bool FlashChip::block_allocated(std::uint32_t block) const {
  return peek(block) != nullptr;
}

Status FlashChip::serialize_block(std::uint32_t block,
                                  std::vector<std::uint8_t>& out) const {
  STASH_RETURN_IF_ERROR(check_addr(block, 0));
  const std::lock_guard<std::mutex> lock(block_lock(block));
  const Block* blk = peek(block);
  if (!blk) return {ErrorCode::kNotFound, "block not allocated"};

  util::ByteWriter w(out);
  w.u32(blk->pec);
  w.u32(blk->next_program_page);
  w.u64(blk->epoch);
  for (const PageState s : blk->state) w.u8(static_cast<std::uint8_t>(s));
  for (const float a : blk->age_hours) w.f32(a);
  for (const float v : blk->v) w.f32(v);
  // The stress map is unordered in memory; emit it sorted by cell key so
  // the byte image is canonical (the threads-8 == threads-1 snapshot gate
  // depends on this).
  std::vector<std::pair<std::uint64_t, float>> stress(blk->stress.begin(),
                                                      blk->stress.end());
  std::sort(stress.begin(), stress.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(stress.size());
  for (const auto& [key, value] : stress) {
    w.u64(key);
    w.f32(value);
  }
  return Status::ok();
}

Status FlashChip::deserialize_block(std::uint32_t block,
                                    std::span<const std::uint8_t> bytes) {
  STASH_RETURN_IF_ERROR(check_addr(block, 0));
  const std::size_t pages = geom_.pages_per_block;
  const std::size_t cells =
      static_cast<std::size_t>(pages) * geom_.cells_per_page;

  util::ByteReader r(bytes);
  auto fresh = std::make_unique<Block>();
  STASH_RETURN_IF_ERROR(r.u32(fresh->pec));
  STASH_RETURN_IF_ERROR(r.u32(fresh->next_program_page));
  STASH_RETURN_IF_ERROR(r.u64(fresh->epoch));
  if (fresh->next_program_page > pages) {
    return {ErrorCode::kCorrupted, "program cursor beyond block"};
  }
  fresh->state.resize(pages);
  for (std::size_t p = 0; p < pages; ++p) {
    std::uint8_t s = 0;
    STASH_RETURN_IF_ERROR(r.u8(s));
    if (s > static_cast<std::uint8_t>(PageState::kProgrammed)) {
      return {ErrorCode::kCorrupted, "invalid page state"};
    }
    fresh->state[p] = static_cast<PageState>(s);
  }
  fresh->age_hours.resize(pages);
  for (std::size_t p = 0; p < pages; ++p) {
    STASH_RETURN_IF_ERROR(r.f32(fresh->age_hours[p]));
  }
  fresh->v.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    STASH_RETURN_IF_ERROR(r.f32(fresh->v[c]));
  }
  std::uint64_t stress_count = 0;
  STASH_RETURN_IF_ERROR(r.u64(stress_count));
  if (stress_count > cells) {
    return {ErrorCode::kCorrupted, "stress entries exceed cell count"};
  }
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < stress_count; ++i) {
    std::uint64_t key = 0;
    float value = 0.0f;
    STASH_RETURN_IF_ERROR(r.u64(key));
    STASH_RETURN_IF_ERROR(r.f32(value));
    if (key >= cells || (i > 0 && key <= prev_key)) {
      return {ErrorCode::kCorrupted, "stress keys out of order or range"};
    }
    prev_key = key;
    fresh->stress.emplace(key, value);
  }
  STASH_RETURN_IF_ERROR(r.expect_exhausted());

  const std::lock_guard<std::mutex> lock(block_lock(block));
  blocks_[block] = std::move(fresh);
  return Status::ok();
}

void FlashChip::serialize_meta(std::vector<std::uint8_t>& out) const {
  util::ByteWriter w(out);
  w.u64(ledger_->time_ns.load(std::memory_order_relaxed));
  w.u64(ledger_->energy_nj.load(std::memory_order_relaxed));
  w.u64(ledger_->reads.load(std::memory_order_relaxed));
  w.u64(ledger_->programs.load(std::memory_order_relaxed));
  w.u64(ledger_->erases.load(std::memory_order_relaxed));
  w.u64(ledger_->partial_programs.load(std::memory_order_relaxed));
}

Status FlashChip::deserialize_meta(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  std::uint64_t v[6] = {};
  for (auto& field : v) STASH_RETURN_IF_ERROR(r.u64(field));
  STASH_RETURN_IF_ERROR(r.expect_exhausted());
  ledger_->time_ns.store(v[0], std::memory_order_relaxed);
  ledger_->energy_nj.store(v[1], std::memory_order_relaxed);
  ledger_->reads.store(v[2], std::memory_order_relaxed);
  ledger_->programs.store(v[3], std::memory_order_relaxed);
  ledger_->erases.store(v[4], std::memory_order_relaxed);
  ledger_->partial_programs.store(v[5], std::memory_order_relaxed);
  return Status::ok();
}

std::uint64_t FlashChip::state_digest() const {
  std::vector<std::uint8_t> scratch;
  serialize_meta(scratch);
  std::uint64_t h = util::fnv1a(scratch);
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (!block_allocated(b)) continue;
    scratch.clear();
    util::ByteWriter(scratch).u32(b);
    (void)serialize_block(b, scratch);
    h = util::fnv1a(scratch, h);
  }
  return h;
}

}  // namespace stash::nand
