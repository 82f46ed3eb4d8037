// Figure 6 (paper §6.3): hidden-data BER for the first fifteen partial
// programming steps, over combinations of page interval {0,1,2,4} and
// hidden bits per page {32,128,512}.  Five blocks averaged per combination.
//
// Expected shape: BER starts high (one PP step cannot lift every hidden '0'
// above Vth) and converges below ~1% by roughly ten steps, for every
// combination.
//
// Parallelism: every (interval, bits, block) trial owns its chip and its
// seeds, so trials run as an indexed fan-out on a stash::par pool and are
// reduced in combo order afterwards — the printed table is byte-identical
// for any --threads value.

#include <array>

#include "common.hpp"

using namespace stash;
using namespace stash::bench;

namespace {

constexpr int kSteps = 15;

struct Trial {
  std::uint32_t interval = 0;
  std::uint32_t bits_per_page = 0;
  std::uint32_t block_index = 0;
};

struct TrialResult {
  std::array<std::size_t, kSteps> errors{};
  std::size_t total = 0;
};

TrialResult run_trial(const Options& opt, const crypto::HidingKey& key,
                      const Trial& trial) {
  TrialResult result;
  const std::uint32_t interval = trial.interval;
  const std::uint32_t bits_per_page = trial.bits_per_page;
  const std::uint32_t b = trial.block_index;

  nand::FlashChip chip(opt.geometry(2), nand::NoiseModel::vendor_a(),
                       opt.seed + interval * 100 + bits_per_page + b);
  (void)chip.program_block_random(0, opt.seed + b);
  vthi::ChannelConfig channel_config;  // production defaults
  vthi::VthiChannel channel(chip, key.selection_key(), channel_config);

  // Open one embedding session per hidden page, advance all sessions one
  // step at a time, and measure BER after each global step.
  std::vector<vthi::EmbedSession> sessions;
  std::vector<std::vector<std::uint8_t>> intents;
  util::Xoshiro256 rng(opt.seed + b * 17 + bits_per_page);
  const std::uint32_t stride = interval + 1;
  for (std::uint32_t p = 0; p < chip.geometry().pages_per_block; p += stride) {
    std::vector<std::uint8_t> bits(bits_per_page);
    for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng() & 1);
    auto session = channel.begin(0, p, bits);
    if (!session.is_ok()) continue;
    sessions.push_back(std::move(session).take());
    intents.push_back(std::move(bits));
  }

  for (int step = 0; step < kSteps; ++step) {
    for (auto& session : sessions) {
      (void)channel.step(session);
    }
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      auto readback = channel.extract(0, sessions[s].page, bits_per_page);
      if (!readback.is_ok()) continue;
      for (std::size_t i = 0; i < intents[s].size(); ++i) {
        result.errors[static_cast<std::size_t>(step)] +=
            (intents[s][i] ^ readback.value()[i]) & 1;
      }
    }
  }
  for (const auto& intent : intents) result.total += intent.size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("Figure 6: hidden BER vs partial-programming steps",
               "Combos: page interval {0,1,2,4} x hidden bits {32,128,512}; "
               "BER measured after each of 15 PP steps.");
  print_geometry(opt);

  const std::uint32_t intervals[] = {0, 1, 2, 4};
  const std::uint32_t bit_counts[] = {32, 128, 512};
  const auto key = bench_key();

  // Flatten the trial grid in print order; result i lands in slot i.
  std::vector<Trial> trials;
  for (std::uint32_t interval : intervals) {
    for (std::uint32_t bits_per_page : bit_counts) {
      for (std::uint32_t b = 0; b < opt.sample_blocks; ++b) {
        trials.push_back({interval, bits_per_page, b});
      }
    }
  }

  par::ThreadPool pool(opt.threads);
  const std::vector<TrialResult> results = pool.map<TrialResult>(
      trials.size(),
      [&](std::size_t i) { return run_trial(opt, key, trials[i]); });

  std::printf("%-10s %-12s %-6s %s\n", "interval", "hidden_bits", "step",
              "BER");
  std::size_t slot = 0;
  for (std::uint32_t interval : intervals) {
    for (std::uint32_t bits_per_page : bit_counts) {
      std::vector<std::size_t> errors(kSteps, 0);
      std::size_t total = 0;
      for (std::uint32_t b = 0; b < opt.sample_blocks; ++b, ++slot) {
        for (int step = 0; step < kSteps; ++step) {
          errors[static_cast<std::size_t>(step)] +=
              results[slot].errors[static_cast<std::size_t>(step)];
        }
        total += results[slot].total;
      }
      for (int step = 0; step < kSteps; ++step) {
        const double ber =
            total ? static_cast<double>(errors[static_cast<std::size_t>(step)]) /
                        static_cast<double>(total)
                  : 0.0;
        std::printf("%-10u %-12u %-6d %.4f\n", interval, bits_per_page,
                    step + 1, ber);
      }
    }
  }

  std::printf("\nExpected shape (paper Fig. 6): every curve decays from "
              ">10%% at one step to <1%% by ~10 steps, largely independent "
              "of interval and bit count.\n");

  // End-to-end coda: one full VT-HI hide/reveal through the production
  // codec (framing, interleaving, BCH decode), so every run also checks the
  // complete stack rather than only the raw channel the sweep above
  // exercises.
  {
    nand::FlashChip chip(opt.geometry(2), nand::NoiseModel::vendor_a(),
                         opt.seed + 9001);
    (void)chip.program_block_random(0, opt.seed + 9001);
    vthi::VthiCodec codec(chip, key, vthi::VthiConfig::production());
    std::vector<std::uint8_t> payload(codec.capacity_bytes());
    util::Xoshiro256 rng(opt.seed + 42);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    const auto hidden = codec.hide(0, payload);
    if (hidden.is_ok()) {
      int corrected = 0;
      const auto revealed = codec.reveal(0, &corrected);
      if (revealed.is_ok()) {
        std::printf("\nend-to-end coda: hide ok, reveal ok, %d bits corrected\n",
                    corrected);
      } else {
        std::printf("\nend-to-end coda: hide ok, reveal FAILED (%s)\n",
                    revealed.status().to_string().c_str());
      }
    } else {
      std::printf("\nend-to-end coda: hide FAILED (%s)\n",
                  hidden.status().to_string().c_str());
    }
  }
  return 0;
}
