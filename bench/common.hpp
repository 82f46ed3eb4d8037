#pragma once
// Shared infrastructure for the per-figure/per-table benchmark harnesses.
//
// Every harness accepts:
//   --full         paper-scale page width (144384 cells; slow)
//   --divisor N    scale the page width by 1/N (default 8 -> 18048 cells)
//   --quick        divisor 16 and fewer sample blocks
//   --seed S       chip serial seed base
//   --threads N    worker threads for parallel harnesses (default 1; the
//                  result tables and JSON lines are byte-identical for any
//                  N — see stash::par)
//
// Hidden-bit counts that represent a *density* (detectability experiments)
// are scaled with the page so the hidden fraction matches the paper;
// channel-BER experiments keep the paper's absolute counts (the per-cell
// physics, not the density, drives those results).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/nand/chip.hpp"
#include "stash/par/pool.hpp"
#include "stash/svm/features.hpp"
#include "stash/svm/svm.hpp"
#include "stash/util/stats.hpp"
#include "stash/vthi/codec.hpp"

namespace stash::bench {

struct Options {
  std::uint32_t divisor = 8;
  std::uint32_t sample_blocks = 5;   // blocks averaged per data point
  std::uint32_t svm_blocks = 31;     // blocks per class per chip (paper: 31)
  std::uint64_t seed = 0x57a5f1a5ULL;
  std::uint32_t threads = 1;
  bool quick = false;

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--full")) {
        opt.divisor = 1;
      } else if (!std::strcmp(argv[i], "--quick")) {
        opt.quick = true;
        opt.divisor = 16;
        opt.sample_blocks = 3;
        opt.svm_blocks = 12;
      } else if (!std::strcmp(argv[i], "--divisor") && i + 1 < argc) {
        opt.divisor = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        if (opt.divisor == 0) opt.divisor = 1;
      } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
        opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        opt.threads = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        if (opt.threads == 0) opt.threads = par::ThreadPool::hardware_threads();
      } else if (!std::strcmp(argv[i], "--help")) {
        std::printf(
            "options: --full | --quick | --divisor N | --seed S | "
            "--threads N\n");
        std::exit(0);
      }
    }
    return opt;
  }

  [[nodiscard]] nand::Geometry geometry(std::uint32_t blocks = 64) const {
    return nand::Geometry::experiment(divisor, blocks);
  }

  /// Scale a paper hidden-bit count to this geometry's page width,
  /// preserving the hidden-cell density.
  [[nodiscard]] std::uint32_t density_scaled(std::uint32_t paper_bits) const {
    const auto cells = geometry().cells_per_page;
    const std::uint64_t scaled =
        (static_cast<std::uint64_t>(paper_bits) * cells + 144384 / 2) / 144384;
    return static_cast<std::uint32_t>(scaled < 4 ? 4 : scaled);
  }
};

inline crypto::HidingKey bench_key() {
  return crypto::HidingKey::from_passphrase("stash-in-a-flash", "bench", 500);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("================================================================\n");
  std::printf("%s\n%s\n", figure, description);
  std::printf("================================================================\n");
}

inline void print_geometry(const Options& opt) {
  const auto geom = opt.geometry();
  std::printf("geometry: %u cells/page (paper 144384, divisor %u), "
              "%u pages/block\n\n",
              geom.cells_per_page, opt.divisor, geom.pages_per_block);
}

/// Print a voltage histogram as "level  %of-cells" rows over [lo, hi) with
/// the given level step — the format of the paper's distribution figures.
inline void print_histogram_band(const util::Histogram& hist,
                                 const std::string& label, double lo,
                                 double hi, double step) {
  const auto norm = hist.normalized();
  const double bin_width = hist.bin_width();
  for (double level = lo; level < hi; level += step) {
    double mass = 0.0;
    for (std::size_t bin = 0; bin < hist.bins(); ++bin) {
      const double center = hist.bin_center(bin);
      if (center >= level && center < level + step) mass += norm[bin];
    }
    std::printf("%-18s %6.0f %9.4f%%\n", label.c_str(), level, mass * 100.0);
  }
  (void)bin_width;
}

/// Measure raw hidden-channel BER on one block: embed random bits on every
/// hidden page, extract, compare.  Returns {errors, bits}.
struct RawBerSample {
  std::size_t errors = 0;
  std::size_t bits = 0;

  [[nodiscard]] double ber() const {
    return bits ? static_cast<double>(errors) / static_cast<double>(bits) : 0.0;
  }
};

inline RawBerSample measure_raw_ber(nand::FlashChip& chip,
                                    vthi::VthiChannel& channel,
                                    std::uint32_t block,
                                    std::uint32_t bits_per_page,
                                    std::uint32_t page_interval,
                                    std::uint64_t seed) {
  RawBerSample sample;
  util::Xoshiro256 rng(seed);
  const std::uint32_t stride = page_interval + 1;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; p += stride) {
    std::vector<std::uint8_t> bits(bits_per_page);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
    auto session = channel.embed(block, p, bits);
    if (!session.is_ok()) continue;
    auto readback = channel.extract(block, p, bits_per_page);
    if (!readback.is_ok()) continue;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      sample.errors += (bits[i] ^ readback.value()[i]) & 1;
    }
    sample.bits += bits.size();
  }
  return sample;
}

/// Measure public-data BER across a block given the data originally written.
inline double measure_public_ber(
    nand::FlashChip& chip, std::uint32_t block,
    const std::vector<std::vector<std::uint8_t>>& written) {
  std::size_t errors = 0;
  std::size_t total = 0;
  for (std::uint32_t p = 0;
       p < chip.geometry().pages_per_block && p < written.size(); ++p) {
    const auto readback = chip.read_page(block, p);
    for (std::size_t c = 0; c < readback.size(); ++c) {
      errors += (readback[c] ^ written[p][c]) & 1;
      ++total;
    }
  }
  return total ? static_cast<double>(errors) / static_cast<double>(total) : 0.0;
}

// ---------------------------------------------------------------------------
// Shared SVM detectability harness (Figs. 10 and 12): three chips; train on
// two, test on the third; block-level voltage-histogram features; grid
// search with 3-fold cross-validation (paper §7 methodology).
// ---------------------------------------------------------------------------

struct SvmExperimentConfig {
  vthi::VthiConfig vthi;
  std::vector<std::uint32_t> hidden_pecs = {0, 1000, 2000};
  std::vector<std::uint32_t> normal_pecs = {0, 500, 1000, 1500,
                                            2000, 2500, 3000};
  std::size_t feature_bins = 64;
};

struct SvmCell {
  std::uint32_t hidden_pec = 0;
  std::uint32_t normal_pec = 0;
  double accuracy = 0.0;
};

/// Build per-(chip, pec) feature sets once, then evaluate every
/// (hidden_pec, normal_pec) pair.
inline std::vector<SvmCell> run_svm_detectability(
    const Options& opt, const SvmExperimentConfig& config) {
  using FeatureSet = std::vector<std::vector<double>>;
  const int kChips = 3;
  const auto key = bench_key();

  // features[chip][pec] -> per-block histograms, per class.
  struct PerChip {
    std::vector<FeatureSet> normal;  // indexed like normal_pecs
    std::vector<FeatureSet> hidden;  // indexed like hidden_pecs
  };
  std::vector<PerChip> chips(kChips);

  const std::uint32_t blocks_needed = opt.svm_blocks;
  for (int chip_idx = 0; chip_idx < kChips; ++chip_idx) {
    // Two FlashChip instances with the same serial seed = the same physical
    // chip (identical manufacturing traits); one is swept through the
    // normal-PEC levels, the other through the hidden-PEC levels, each in
    // ascending wear order.
    nand::FlashChip normal_chip(opt.geometry(blocks_needed),
                                nand::NoiseModel::vendor_a(),
                                opt.seed + static_cast<std::uint64_t>(chip_idx));
    nand::FlashChip hidden_chip(opt.geometry(blocks_needed),
                                nand::NoiseModel::vendor_a(),
                                opt.seed + static_cast<std::uint64_t>(chip_idx));
    auto& per_chip = chips[chip_idx];

    auto collect = [&](nand::FlashChip& chip, std::uint32_t pec, bool hide) {
      FeatureSet features;
      vthi::VthiCodec codec(chip, key, config.vthi);
      util::Xoshiro256 payload_rng(opt.seed + pec + (hide ? 7 : 0));
      for (std::uint32_t b = 0; b < blocks_needed; ++b) {
        if (chip.pec(b) < pec) {
          (void)chip.age_cycles(b, pec - chip.pec(b));
        }
        (void)chip.program_block_random(
            b, opt.seed * 31 + pec * 7 + b + (hide ? 1000000 : 0));
        if (hide) {
          std::vector<std::uint8_t> payload(codec.capacity_bytes());
          for (auto& byte : payload) {
            byte = static_cast<std::uint8_t>(payload_rng());
          }
          const auto hidden = codec.hide(b, payload);
          if (!hidden.is_ok()) {
            std::fprintf(stderr, "hide failed on block %u: %s\n", b,
                         hidden.status().to_string().c_str());
          }
        }
        features.push_back(
            svm::block_histogram_features(chip, b, config.feature_bins));
        (void)chip.erase_block(b);  // recycle for the next pec level
      }
      return features;
    };

    for (std::uint32_t pec : config.normal_pecs) {
      per_chip.normal.push_back(collect(normal_chip, pec, false));
    }
    for (std::uint32_t pec : config.hidden_pecs) {
      per_chip.hidden.push_back(collect(hidden_chip, pec, true));
    }
  }

  std::vector<SvmCell> cells;
  for (std::size_t hi = 0; hi < config.hidden_pecs.size(); ++hi) {
    for (std::size_t ni = 0; ni < config.normal_pecs.size(); ++ni) {
      // Train on chips 0 and 1, test on chip 2 (paper §7).
      svm::Dataset train, test;
      for (int chip_idx = 0; chip_idx < kChips; ++chip_idx) {
        svm::Dataset& target = chip_idx == 2 ? test : train;
        for (const auto& f : chips[chip_idx].hidden[hi]) target.add(f, +1);
        for (const auto& f : chips[chip_idx].normal[ni]) target.add(f, -1);
      }
      svm::StandardScaler scaler;
      scaler.fit(train.x);
      scaler.transform_in_place(train.x);
      scaler.transform_in_place(test.x);

      const auto search = svm::grid_search(train, svm::KernelType::kRbf, 3);
      const auto model = svm::SvmModel::train(train, search.best);
      cells.push_back({config.hidden_pecs[hi], config.normal_pecs[ni],
                       model.accuracy(test)});
    }
  }
  return cells;
}

inline void print_svm_cells(const std::vector<SvmCell>& cells) {
  std::printf("%-12s %-12s %s\n", "hidden_PEC", "normal_PEC",
              "classification_accuracy_%");
  for (const auto& cell : cells) {
    std::printf("%-12u %-12u %.1f\n", cell.hidden_pec, cell.normal_pec,
                cell.accuracy * 100.0);
  }
}

}  // namespace stash::bench
