#include "stash/nand/chip.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "stash/kernels/draws.hpp"
#include "stash/kernels/kernels.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/wire.hpp"

namespace stash::nand {
namespace {

using util::ErrorCode;
using util::hash_words;
using util::Xoshiro256;

// Stateless trait hashes live in stash::kernels now so the batch kernels
// and FlashChip's sparse paths share one (bit-compatible) definition.
using kernels::hash_normal;

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

using Field = CostLedger::Field;

}  // namespace

/// What tells one NAND command apart inside run().
struct FlashChip::Command {
  FaultOp fault;
  trace::Stage stage;
  trace::Op op;
  double OpCosts::*us;
  double OpCosts::*uj;
  Field count;
  ErrorCode fail;              // an injected failure other than power loss
  const char* noun;            // names the command in fault messages
  bool page_bytes = false;     // the span carries one page of data bytes
  bool aborts = false;         // read class: a fault aborts it (see run())
  bool erases = false;         // redraws erased_pages(frac) itself
  double fail_fraction = 0.0;  // applied when a failure reports none done
};

FlashChip::FlashChip(const Geometry& geometry, const NoiseModel& noise,
                     std::uint64_t serial_seed, OpCosts costs)
    : geom_(geometry),
      noise_(noise),
      costs_(costs),
      seed_(serial_seed),
      blocks_(geometry.blocks),
      locks_(std::make_unique<std::mutex[]>(kLockStripes + 1)),
      ledger_(std::make_unique<telemetry::CounterTable<CostLedger>>()) {
  if (util::Status valid = noise.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
}

void FlashChip::charge(double us, double uj) noexcept {
  // Fixed-point (nano-unit) accumulation: integer adds are exact and
  // commutative, so ledger totals are independent of thread interleaving.
  ledger_->add(Field::time_ns,
               static_cast<std::uint64_t>(std::llround(us * 1e3)));
  ledger_->add(Field::energy_nj,
               static_cast<std::uint64_t>(std::llround(uj * 1e3)));
}

FaultDecision FlashChip::consult_fault(FaultOp op, std::uint32_t block,
                                       std::uint32_t page) {
  const std::lock_guard<std::mutex> lock(locks_[kLockStripes]);
  return fault_->on_operation(op, block, page);
}

Status FlashChip::check_addr(std::uint32_t block, std::uint32_t page) const {
  if (block >= geom_.blocks || page >= geom_.pages_per_block) {
    return {ErrorCode::kOutOfBounds, "address outside chip geometry"};
  }
  return Status::ok();
}

Status FlashChip::check_cells(std::span<const std::uint32_t> cells) const {
  if (cells.empty() || std::ranges::max(cells) < geom_.cells_per_page) {
    return Status::ok();
  }
  return {ErrorCode::kOutOfBounds, "cell index outside page"};
}

FlashChip::Block& FlashChip::touch(std::uint32_t block,
                                   std::uint32_t redrawn) {
  auto& slot = blocks_[block];
  if (!slot) {
    slot = std::make_unique<Block>();
    slot->state.assign(geom_.pages_per_block, PageState::kErased);
    slot->age_hours.assign(geom_.pages_per_block, 0.0f);
    slot->v.resize(static_cast<std::size_t>(geom_.pages_per_block) *
                   geom_.cells_per_page);
    // A fresh (never-cycled) block sits in the erased state.
    for (std::uint32_t p = redrawn; p < geom_.pages_per_block; ++p) {
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

// ---- The command path -------------------------------------------------------

template <typename Pre, typename Body>
Status FlashChip::run(const Command& cmd, std::uint32_t block,
                      std::uint32_t page, Pre&& pre, Body&& body) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  // Span address (block << 32) | page; read-class spans open only once the
  // command will return data.
  const std::uint64_t key = (static_cast<std::uint64_t>(block) << 32) | page;
  const std::uint64_t bytes = cmd.page_bytes ? geom_.cells_per_page / 8 : 0;
  std::optional<trace::ScopedSpan> span;
  if (!cmd.aborts) span.emplace(cmd.stage, cmd.op, key, bytes);
  const std::lock_guard<std::mutex> lock(block_lock(block));
  // Preconditions see the block as it stands and reject before the command
  // consumes a fault op index or allocates anything.
  if (Status rejected = pre(peek(block)); !rejected.is_ok()) {
    if (span) span->set_status(static_cast<std::uint8_t>(rejected.code()));
    return rejected;
  }
  FaultDecision fd;
  if (fault_) fd = consult_fault(cmd.fault, block, page);
  Status status = Status::ok();
  if (fd.power_cut) {
    status = {ErrorCode::kPowerLoss,
              std::string("power lost during ") + cmd.noun};
  } else if (fd.fail) {
    status = {cmd.fail, std::string(cmd.noun) + " reported status failure"};
  }
  if (cmd.aborts) {
    if (!status.is_ok()) return status;
    span.emplace(cmd.stage, cmd.op, key, bytes);
  }
  // An interrupted command applies only the completed fraction of its
  // physical effect (a power cut exactly the scheduled one; 0 = the pulse
  // never started).
  const double frac =
      !fd.interrupts() ? 1.0
      : fd.power_cut || fd.completed_fraction > 0.0
          ? std::clamp(fd.completed_fraction, 0.0, 1.0)
          : cmd.fail_fraction;
  body(touch(block, cmd.erases ? erased_pages(frac) : 0), frac);
  const double us = costs_.*cmd.us;
  charge(us, costs_.*cmd.uj);
  ledger_->add(cmd.count);
  span->set_cost_us(us);
  span->set_status(static_cast<std::uint8_t>(status.code()));
  return status;
}

void FlashChip::erase_pages(Block& blk, std::uint32_t block,
                            std::uint32_t cycles,
                            std::uint32_t pages) noexcept {
  blk.pec += cycles;
  ++blk.epoch;  // one epoch per pass; pages share it (keys include page)
  blk.next_program_page = 0;
  for (std::uint32_t p = 0; p < pages; ++p) {
    blk.state[p] = PageState::kErased;
    blk.age_hours[p] = 0.0f;
    redraw_page_erased(blk, block, p);
  }
}

// ---- Standard operations ----------------------------------------------------

Status FlashChip::erase_block(std::uint32_t block) {
  static constexpr Command kErase{
      .fault = FaultOp::kErase, .stage = trace::Stage::kNandErase,
      .op = trace::Op::kErase, .us = &OpCosts::erase_us,
      .uj = &OpCosts::erase_uj, .count = Field::erases,
      .fail = ErrorCode::kEraseFail, .noun = "erase", .erases = true};
  const auto not_worn_out = [&](const Block* blk) -> Status {
    if (blk && blk->pec >= geom_.pec_limit * 2) {
      return {ErrorCode::kWornOut, "block exceeded twice its rated lifetime"};
    }
    return Status::ok();
  };
  return run(kErase, block, 0, not_worn_out, [&](Block& blk, double frac) {
    // Even an interrupted erase pulse wears the block.  It leaves a prefix
    // of wordlines cleanly erased and the rest untouched (still reading as
    // programmed) — the block is unusable until a successful erase.
    erase_pages(blk, block, 1, erased_pages(frac));
  });
}

Status FlashChip::program_page(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint8_t> bits) {
  // A failed program typically aborts mid-ISPP, leaving cells part-way to
  // target: a failure that reports no completed fraction programs halfway.
  static constexpr Command kProgram{
      .fault = FaultOp::kProgram, .stage = trace::Stage::kNandProgram,
      .op = trace::Op::kWrite, .us = &OpCosts::program_us,
      .uj = &OpCosts::program_uj, .count = Field::programs,
      .fail = ErrorCode::kProgramFail, .noun = "program",
      .page_bytes = true, .fail_fraction = 0.5};
  const auto programmable = [&](const Block* blk) -> Status {
    if (bits.size() != geom_.cells_per_page) {
      return {ErrorCode::kInvalidArgument, "bit buffer != cells per page"};
    }
    if (blk && blk->state[page] != PageState::kErased) {
      return {ErrorCode::kProgramFail,
              "page already programmed (no in-place update)"};
    }
    if (page != (blk ? blk->next_program_page : 0)) {
      return {ErrorCode::kProgramFail, "pages must be programmed in order"};
    }
    return Status::ok();
  };
  return run(kProgram, block, page, programmable, [&](Block& blk, double frac) {
    const double wear_k = static_cast<double>(blk.pec) / 1000.0;
    const double mu = noise_.prog_mu + chip_mu_offset() +
                      block_mu_offset(block) + page_mu_offset(block, page) +
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
    kernels::weak_mask(seed_, block, page, noise_.weak_cell_prob,
                       s.weak.data(), 0, cells);
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
    // The page is consumed even when the program was interrupted: the
    // device cannot tell how much charge landed, so it may not be
    // reprogrammed without an erase.
    blk.state[page] = PageState::kProgrammed;
    blk.age_hours[page] = 0.0f;
    blk.next_program_page = page + 1;

    disturb_neighbors(blk, block, page, frac);
  });
}

std::vector<std::uint8_t> FlashChip::read_page(std::uint32_t block,
                                               std::uint32_t page,
                                               std::optional<double> vref) {
  std::vector<std::uint8_t> out(geom_.cells_per_page);
  if (read_page_into(block, page, out, vref) == 0) return {};
  return out;
}

std::size_t FlashChip::read_page_into(std::uint32_t block, std::uint32_t page,
                                      std::span<std::uint8_t> out,
                                      std::optional<double> vref_opt) {
  static constexpr Command kRead{
      .fault = FaultOp::kRead, .stage = trace::Stage::kNandRead,
      .op = trace::Op::kRead, .us = &OpCosts::read_us,
      .uj = &OpCosts::read_uj, .count = Field::reads,
      .fail = ErrorCode::kUncorrectable, .noun = "read",
      .page_bytes = true, .aborts = true};
  const std::uint32_t cells = geom_.cells_per_page;
  const double vref = vref_opt.value_or(noise_.public_read_vref);
  const auto fits = [&](const Block*) -> Status {
    if (out.size() < cells) {
      return {ErrorCode::kInvalidArgument, "read buffer smaller than a page"};
    }
    return Status::ok();
  };
  const Status status = run(kRead, block, page, fits, [&](Block& blk, double) {
    float* row = blk.v.data() + static_cast<std::size_t>(page) * cells;
    kernels::threshold_row(row, vref, out.data(), cells);

    // Read disturb: a handful of erased-level cells gain a whisker of
    // charge.  Event count, victim cells, and magnitudes are all
    // counter-based draws (cell index = event index), so reads stay
    // deterministic under the same contract as every other op.
    ++blk.epoch;
    const kernels::DrawKey rkey = kernels::derive_key(
        seed_, kernels::Op::kReadDisturb, block, page, blk.epoch);
    const double expected =
        noise_.read_disturb_prob * static_cast<double>(cells);
    auto events = static_cast<std::uint32_t>(expected);
    if (kernels::uniform_at(rkey, 0, 2) < expected - std::floor(expected)) {
      ++events;
    }
    for (std::uint32_t i = 0; i < events; ++i) {
      const auto c = static_cast<std::uint32_t>(
          kernels::bounded(kernels::u64_at(rkey, i, 0), cells));
      if (row[c] < 90.0f) {
        row[c] = static_cast<float>(std::clamp(
            row[c] + std::max(0.0, kernels::normal_at(
                                       rkey, i, 1, noise_.read_disturb_mu,
                                       noise_.read_disturb_sigma)),
            0.0, kVmax));
      }
    }
    if (fault_) {
      const std::lock_guard<std::mutex> fault_guard(locks_[kLockStripes]);
      fault_->corrupt_read(block, page, {out.data(), cells}, vref);
    }
  });
  return status.is_ok() ? cells : 0;
}

std::vector<int> FlashChip::probe_voltages(std::uint32_t block,
                                           std::uint32_t page) {
  static constexpr Command kProbe{
      .fault = FaultOp::kRead, .stage = trace::Stage::kNandProbe,
      .op = trace::Op::kProbe, .us = &OpCosts::read_us,
      .uj = &OpCosts::read_uj, .count = Field::reads,
      .fail = ErrorCode::kUncorrectable, .noun = "probe", .aborts = true};
  std::vector<int> out;
  const auto probe = [&](Block& blk, double) {
    out.resize(geom_.cells_per_page);
    kernels::quantize_row(
        blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page,
        out.data(), geom_.cells_per_page);
    if (fault_) {
      const std::lock_guard<std::mutex> fault_guard(locks_[kLockStripes]);
      fault_->corrupt_probe(block, page, {out.data(), out.size()});
    }
  };
  const auto no_precondition = [](const Block*) { return Status::ok(); };
  if (!run(kProbe, block, page, no_precondition, probe).is_ok()) return {};
  return out;
}

// ---- Vendor programming ---------------------------------------------------

Status FlashChip::partial_program(std::uint32_t block, std::uint32_t page,
                                  std::span<const std::uint32_t> cells,
                                  double step_scale) {
  static constexpr Command kPartialProgram{
      .fault = FaultOp::kPartialProgram,
      .stage = trace::Stage::kNandPartialProgram, .op = trace::Op::kWrite,
      .us = &OpCosts::partial_program_us, .uj = &OpCosts::partial_program_uj,
      .count = Field::partial_programs, .fail = ErrorCode::kProgramFail,
      .noun = "partial program"};
  const auto valid = [&](const Block*) -> Status {
    if (step_scale <= 0.0) {
      return {ErrorCode::kInvalidArgument, "step_scale must be positive"};
    }
    return check_cells(cells);
  };
  return run(kPartialProgram, block, page, valid, [&](Block& blk, double frac) {
    ++blk.epoch;
    const kernels::DrawKey key = kernels::derive_key(
        seed_, kernels::Op::kPartialStep, block, page, blk.epoch);
    float* row =
        blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
    for (std::uint32_t c : cells) {
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
  });
}

Status FlashChip::fine_program(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint32_t> cells,
                               double target_mu, double target_sigma,
                               double target_tail) {
  static constexpr Command kFineProgram{
      .fault = FaultOp::kFineProgram, .stage = trace::Stage::kNandFineProgram,
      .op = trace::Op::kWrite, .us = &OpCosts::partial_program_us,
      .uj = &OpCosts::partial_program_uj, .count = Field::partial_programs,
      .fail = ErrorCode::kProgramFail, .noun = "fine program"};
  const auto valid = [&](const Block*) { return check_cells(cells); };
  return run(kFineProgram, block, page, valid, [&](Block& blk, double frac) {
    ++blk.epoch;
    const kernels::DrawKey key = kernels::derive_key(
        seed_, kernels::Op::kFineTarget, block, page, blk.epoch);
    float* row =
        blk.v.data() + static_cast<std::size_t>(page) * geom_.cells_per_page;
    for (std::uint32_t c : cells) {
      double target = kernels::normal_at(key, c, 0, target_mu, target_sigma);
      if (target_tail > 0.0) {
        target += kernels::exponential_at(key, c, 1, target_tail);
      }
      // The precise pass never drives an erased-level cell anywhere near
      // the read window — cap at the erased-state ceiling (cf.
      // redraw_page_erased) so hidden cells remain cleanly inside the
      // non-programmed band.
      target = std::min(target, 80.0);
      const double full = std::clamp(
          std::max(static_cast<double>(row[c]), target), 0.0, kVmax);
      row[c] = static_cast<float>(row[c] + (full - row[c]) * frac);
    }
    disturb_neighbors(blk, block, page, 0.01 * frac);
  });
}

Status FlashChip::stress_cells(std::uint32_t block, std::uint32_t page,
                               std::span<const std::uint32_t> cells,
                               std::uint32_t cycles) {
  STASH_RETURN_IF_ERROR(check_addr(block, page));
  STASH_RETURN_IF_ERROR(check_cells(cells));
  const std::lock_guard<std::mutex> lock(block_lock(block));
  Block& blk = touch(block);
  for (std::uint32_t c : cells) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(page) * geom_.cells_per_page + c;
    blk.stress[key] += static_cast<float>(cycles);
  }
  // Ledger: PT-HI pays one program per stress cycle on this page.
  charge(costs_.program_us * cycles, costs_.program_uj * cycles);
  ledger_->add(Field::programs, cycles);
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
  // Equivalent end state of n random-data cycles: block left erased.
  erase_pages(touch(block, geom_.pages_per_block), block, n,
              geom_.pages_per_block);
  if (charge_ledger) {
    charge(costs_.erase_us * n, costs_.erase_uj * n);
    ledger_->add(Field::erases, n);
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
  const CostLedger ledger = ledger_->snapshot();
  CostLedger::for_each(ledger,
                       [&](std::string_view, std::uint64_t v) { w.u64(v); });
}

Status FlashChip::deserialize_meta(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  CostLedger ledger;
  Status status = Status::ok();
  CostLedger::for_each(ledger, [&](std::string_view, std::uint64_t& v) {
    if (status.is_ok()) status = r.u64(v);
  });
  STASH_RETURN_IF_ERROR(status);
  STASH_RETURN_IF_ERROR(r.expect_exhausted());
  ledger_->store(ledger);
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
