// Figure 12 (paper §8 "Improved Capacity"): SVM detectability of the
// enhanced configuration — ~10x more hidden bits per page, a single precise
// (controller-internal) programming step, and a lowered hidden threshold.
//
// Expected shape: still low accuracy (50-60%) at matched wear — slightly
// above the production config because the single coarse pass leaves a bit
// more structure — and steep growth with wear mismatch.  Also reports the
// enhanced config's hidden BER (~2%) and capacity multiple.

#include "common.hpp"

using namespace stash;
using namespace stash::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("Figure 12: SVM detectability of the enhanced 9x config",
               "m=1 precise step, 2560 bits/page (density-scaled), lowered "
               "threshold; same SVM pipeline as Fig. 10.");
  print_geometry(opt);

  SvmExperimentConfig config;
  config.vthi = vthi::VthiConfig::enhanced();
  config.vthi.hidden_bits_per_page = opt.density_scaled(2560);
  if (opt.quick) {
    config.normal_pecs = {0, 1000, 2000, 3000};
  }
  std::printf("hidden bits per page: %u (paper: 2560 of 144384 cells)\n",
              config.vthi.hidden_bits_per_page);

  // Report the enhanced config's raw BER and capacity versus production.
  {
    nand::FlashChip chip(opt.geometry(2), nand::NoiseModel::vendor_a(),
                         opt.seed + 12);
    (void)chip.program_block_random(0, opt.seed);
    vthi::VthiChannel channel(chip, bench_key().selection_key(),
                              config.vthi.channel);
    const auto sample =
        measure_raw_ber(chip, channel, 0, config.vthi.hidden_bits_per_page,
                        vthi::kPageInterval, opt.seed);
    std::printf("enhanced raw hidden BER: %.4f (paper: ~0.02)\n", sample.ber());

    vthi::VthiConfig production_config = vthi::VthiConfig::production();
    production_config.hidden_bits_per_page = opt.density_scaled(256);
    vthi::VthiCodec production(chip, bench_key(), production_config);
    vthi::VthiCodec enhanced(chip, bench_key(), config.vthi);
    // Compare usable data bits before the fixed framing overhead (which
    // distorts ratios at scaled-down geometries).
    const double prod_data =
        32.0 * production_config.hidden_bits_per_page *
        (1.0 - production.ecc_overhead());
    const double enh_data = 32.0 * config.vthi.hidden_bits_per_page *
                            (1.0 - enhanced.ecc_overhead());
    std::printf("usable hidden data bits/block: production %.0f, enhanced "
                "%.0f (%.1fx; paper: 9x)\n",
                prod_data, enh_data, enh_data / prod_data);
    std::printf("enhanced ECC overhead: %.1f%% of hidden bits (paper quotes "
                "the 14%% Shannon estimate; a binary BCH pays ~m*p, see "
                "EXPERIMENTS.md)\n\n",
                enhanced.ecc_overhead() * 100.0);
  }

  const auto cells = run_svm_detectability(opt, config);
  print_svm_cells(cells);

  for (const auto& cell : cells) {
    if (cell.hidden_pec == cell.normal_pec) {
      std::printf("\nmatched wear, PEC %u: %.1f%%", cell.hidden_pec,
                  cell.accuracy * 100.0);
    }
  }
  std::printf("\nExpected (paper Fig. 12): 50-60%% at matched wear — "
              "somewhat above the production config, the cost of 10x "
              "density — and high accuracy at large wear gaps.  Our "
              "reproduction runs a further notch higher (see "
              "EXPERIMENTS.md): concentrating 10x more cells above the "
              "threshold is partially separable from natural tail "
              "variation in this simulator.\n");
  return 0;
}
