#pragma once
#include <cstdint>
// Noise-model parameters for the voltage-level NAND simulator.  Every
// constant models a phenomenon the paper's §4 characterization identifies;
// DESIGN.md §4 records how the defaults were calibrated against the paper's
// figures.  Voltages are in the tester's normalized units [0, 255].

#include "stash/telemetry/counter_table.hpp"
#include "stash/util/status.hpp"

namespace stash::nand {

struct NoiseModel {
  /// Noise-model version.  Golden values and figure benches are keyed on
  /// this: bump it whenever a change alters the drawn voltages.
  ///   v1 — sequential per-block xoshiro noise stream.
  ///   v2 — counter-based per-cell draws (stash::kernels Philox): every
  ///        draw is a pure function of (seed, op, block, page, epoch, cell),
  ///        so results are identical for any thread count and SIMD width.
  static constexpr int kVersion = 2;

  // ---- Erased ('1') state ------------------------------------------------
  /// Chip-family mean of the erased-state measured voltage.  Together with
  /// ~+1.2 of accumulated program disturb this puts the bulk of
  /// "non-programmed" cells around level 21 in a written block, leaving
  /// ~0.5% of them naturally above the level-34 hiding threshold — the
  /// §6.3 census ("a minimum of 700 cells" per 144384-cell page).
  double erased_mu = 20.0;
  /// Per-cell programming/readout noise around the page mean.
  double erased_cell_sigma = 3.2;
  /// Occasional heavy right tail (gives Fig. 2a its 40-70 reach and the
  /// natural population of erased cells above the hiding threshold).
  double erased_tail_prob = 0.025;
  double erased_tail_mean = 7.5;
  /// Lognormal spread of the tail mass across blocks/pages (§4: error and
  /// distribution characteristics vary noticeably between hardware units).
  /// This unit-to-unit variance is what gives the hidden-cell population
  /// its cover: the mass VT-HI adds above the threshold stays within the
  /// natural block-to-block spread of that same tail.
  double tail_block_sigma = 1.00;
  double tail_page_sigma = 0.35;
  /// Per-block lognormal spread of the tail decay length (units vary in
  /// shape, not just mass).
  double tail_mean_block_sigma = 0.20;
  /// Wear-induced right shift of the erased state, units per 1000 PEC.
  double erased_wear_shift_per_kpec = 0.5;

  // ---- Programmed ('0') state ---------------------------------------------
  double prog_mu = 163.0;
  double prog_cell_sigma = 7.5;
  /// Wear-induced right shift of the programmed state (Fig. 3b).
  double prog_wear_shift_per_kpec = 2.2;
  /// Wear-induced distribution widening, sigma units per 1000 PEC.
  double wear_sigma_per_kpec = 1.0;
  /// Rare weak cells that program low (dominate fresh-chip public BER).
  double weak_cell_prob = 1e-4;
  double weak_cell_mu = 136.0;
  double weak_cell_sigma = 6.0;

  // ---- Manufacturing variation (§4: chip/block/page-level differences) ----
  double chip_mu_sigma = 1.2;
  double block_mu_sigma = 1.0;
  double page_mu_sigma = 1.2;
  /// Per-cell program-speed spread (multiplier sigma around 1.0); the trait
  /// PT-HI's covert channel is built on.
  double cell_speed_sigma = 0.06;
  /// How much extra program stress shifts a cell's speed (PT-HI encoding).
  double stress_speed_shift_per_kcycle = 0.45;
  /// Random program-speed drift accumulated with wear (sigma per 1000 PEC,
  /// linear in PEC).  This is what makes PT-HI's covert channel decay after
  /// a few hundred public P/E cycles (§2, §8).
  double speed_wear_sigma = 0.15;

  // ---- Partial programming (§6.2: coarse, imprecise) ----------------------
  double pp_step_mu = 5.5;
  double pp_step_sigma = 3.0;
  /// Program-disturb applied to erased cells on adjacent wordlines per PP
  /// or program operation on a page.
  double disturb_mu = 0.6;
  double disturb_sigma = 0.5;
  /// Zero-mean jitter disturb on programmed neighbours.
  double disturb_prog_sigma = 0.5;

  /// Pass-voltage-assisted charge de-trapping on programmed neighbours: the
  /// rare per-cell probability and the exponential mean of the voltage drop
  /// (the mechanism behind the public-BER inflation VT-HI's page interval
  /// controls, §6.3).  Unlike the erased-cell disturb above these are NOT
  /// scaled by the per-op disturb intensity — de-trapping is triggered by
  /// the pass voltage, which every program-class operation applies in full.
  double detrap_prob = 1.2e-6;
  double detrap_mean = 15.0;

  // ---- Read disturb --------------------------------------------------------
  double read_disturb_prob = 2e-5;   // per erased cell per read
  double read_disturb_mu = 0.30;
  /// Spread of the per-event disturb charge around read_disturb_mu.
  double read_disturb_sigma = 0.2;

  // ---- Retention (charge leakage; calibrated against Fig. 11) -------------
  /// v -= leak_rate * sqrt(v - leak_floor) * dlog1p(t/tau) * wear_accel(pec)
  double leak_rate = 0.0052;
  double leak_floor = 12.0;
  double leak_tau_hours = 24.0;
  /// wear_accel = leak_wear_base + (pec/1000)^2 — fresh cells barely leak,
  /// worn cells leak fast (trapped-charge assisted leakage, §8).
  double leak_wear_base = 0.05;
  /// Per-cell leak-factor spread (lognormal sigma).
  double leak_cell_sigma = 0.30;

  // ---- Read reference thresholds -------------------------------------------
  /// SLC public read reference (between erased and programmed states).
  double public_read_vref = 127.0;

  /// Uniform config contract (see FtlConfig::validate): checked by the
  /// FlashChip construction entry point, which throws std::invalid_argument
  /// on a non-OK status.
  [[nodiscard]] util::Status validate() const {
    using util::ErrorCode;
    using util::Status;
    const auto bad = [](const char* msg) {
      return Status{ErrorCode::kInvalidArgument, msg};
    };
    // Level means and the read reference must sit on the tester's scale.
    const struct { double v; const char* name; } levels[] = {
        {erased_mu, "NoiseModel: erased_mu must be in [0, 255]"},
        {prog_mu, "NoiseModel: prog_mu must be in [0, 255]"},
        {weak_cell_mu, "NoiseModel: weak_cell_mu must be in [0, 255]"},
    };
    for (const auto& l : levels) {
      if (!(l.v >= 0.0) || l.v > 255.0) return bad(l.name);
    }
    if (!(public_read_vref > 0.0) || public_read_vref >= 255.0) {
      return bad("NoiseModel: public_read_vref must be in (0, 255)");
    }
    // Spreads must be non-negative (zero = phenomenon disabled).
    const struct { double v; const char* name; } sigmas[] = {
        {erased_cell_sigma, "NoiseModel: erased_cell_sigma must be >= 0"},
        {tail_block_sigma, "NoiseModel: tail_block_sigma must be >= 0"},
        {tail_page_sigma, "NoiseModel: tail_page_sigma must be >= 0"},
        {tail_mean_block_sigma,
         "NoiseModel: tail_mean_block_sigma must be >= 0"},
        {prog_cell_sigma, "NoiseModel: prog_cell_sigma must be >= 0"},
        {wear_sigma_per_kpec, "NoiseModel: wear_sigma_per_kpec must be >= 0"},
        {weak_cell_sigma, "NoiseModel: weak_cell_sigma must be >= 0"},
        {chip_mu_sigma, "NoiseModel: chip_mu_sigma must be >= 0"},
        {block_mu_sigma, "NoiseModel: block_mu_sigma must be >= 0"},
        {page_mu_sigma, "NoiseModel: page_mu_sigma must be >= 0"},
        {cell_speed_sigma, "NoiseModel: cell_speed_sigma must be >= 0"},
        {speed_wear_sigma, "NoiseModel: speed_wear_sigma must be >= 0"},
        {pp_step_sigma, "NoiseModel: pp_step_sigma must be >= 0"},
        {disturb_sigma, "NoiseModel: disturb_sigma must be >= 0"},
        {disturb_prog_sigma, "NoiseModel: disturb_prog_sigma must be >= 0"},
        {read_disturb_sigma, "NoiseModel: read_disturb_sigma must be >= 0"},
        {leak_cell_sigma, "NoiseModel: leak_cell_sigma must be >= 0"},
    };
    for (const auto& s : sigmas) {
      if (!(s.v >= 0.0)) return bad(s.name);
    }
    // Probabilities.
    const struct { double v; const char* name; } probs[] = {
        {erased_tail_prob, "NoiseModel: erased_tail_prob must be in [0, 1]"},
        {weak_cell_prob, "NoiseModel: weak_cell_prob must be in [0, 1]"},
        {detrap_prob, "NoiseModel: detrap_prob must be in [0, 1]"},
        {read_disturb_prob,
         "NoiseModel: read_disturb_prob must be in [0, 1]"},
    };
    for (const auto& p : probs) {
      if (!(p.v >= 0.0) || p.v > 1.0) return bad(p.name);
    }
    // Non-negative magnitudes and rates.
    const struct { double v; const char* name; } mags[] = {
        {erased_tail_mean, "NoiseModel: erased_tail_mean must be >= 0"},
        {detrap_mean, "NoiseModel: detrap_mean must be >= 0"},
        {read_disturb_mu, "NoiseModel: read_disturb_mu must be >= 0"},
        {leak_rate, "NoiseModel: leak_rate must be >= 0"},
        {leak_floor, "NoiseModel: leak_floor must be >= 0"},
        {leak_wear_base, "NoiseModel: leak_wear_base must be >= 0"},
    };
    for (const auto& m : mags) {
      if (!(m.v >= 0.0)) return bad(m.name);
    }
    if (!(leak_tau_hours > 0.0)) {
      return bad("NoiseModel: leak_tau_hours must be > 0");
    }
    return Status::ok();
  }

  /// Defaults above model the paper's primary ("vendor A") chip family.
  [[nodiscard]] static NoiseModel vendor_a() noexcept { return {}; }

  /// Second-vendor chip: same physics, different constants (§8
  /// applicability).  Slightly hotter programming, wider pages, weaker
  /// disturb isolation.
  [[nodiscard]] static NoiseModel vendor_b() noexcept {
    NoiseModel m;
    m.erased_mu = 21.5;
    m.erased_cell_sigma = 3.6;
    m.erased_tail_prob = 0.03;
    m.erased_tail_mean = 6.0;
    m.prog_mu = 168.0;
    m.prog_cell_sigma = 8.5;
    m.page_mu_sigma = 1.8;
    m.pp_step_mu = 6.0;
    m.pp_step_sigma = 2.8;
    m.disturb_mu = 1.2;
    m.leak_rate = 0.0060;
    return m;
  }
};

/// Per-operation latency (µs) and energy (µJ), from the paper §6.1/§8.
struct OpCosts {
  double read_us = 90.0;
  double program_us = 1200.0;
  double erase_us = 5000.0;
  double partial_program_us = 600.0;  // PROGRAM aborted midway (§8 arithmetic)

  double read_uj = 50.0;
  double program_uj = 68.0;
  double erase_uj = 190.0;
  double partial_program_uj = 34.0;  // half an aborted program
};

/// The cost ledger, named once: simulated time and energy in integer
/// nano-units (exact in any charge order) and the per-command counts.  The
/// list order is FlashChip::serialize_meta's byte order.
#define STASH_NAND_LEDGER(X) \
  X(time_ns) X(energy_nj) X(reads) X(programs) X(erases) X(partial_programs)

/// Accumulated cost of the operations issued against a chip.
struct CostLedger {
  STASH_COUNTER_FIELDS("nand", STASH_NAND_LEDGER)

  [[nodiscard]] double time_us() const noexcept { return time_ns / 1e3; }
  [[nodiscard]] double energy_uj() const noexcept { return energy_nj / 1e3; }
};

}  // namespace stash::nand
