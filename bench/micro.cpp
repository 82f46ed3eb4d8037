// Microbenchmarks (google-benchmark): substrate operation costs — NAND
// simulator ops, SHA-256 / ChaCha20, BCH encode/decode, SVM training, and
// the end-to-end VT-HI hide/reveal path.  These are ablation aids for the
// design choices DESIGN.md §6 lists, not paper figures.

#include <benchmark/benchmark.h>

#include "stash/crypto/chacha20.hpp"
#include "stash/crypto/sha256.hpp"
#include "stash/ecc/bch.hpp"
#include "stash/nand/chip.hpp"
#include "stash/svm/svm.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/util/rng.hpp"
#include "stash/vthi/codec.hpp"

namespace {

using namespace stash;

nand::Geometry micro_geometry() {
  nand::Geometry geom;
  geom.blocks = 8;
  geom.pages_per_block = 16;
  geom.cells_per_page = 18048;
  return geom;
}

crypto::HidingKey micro_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x5a);
  return crypto::HidingKey(raw);
}

void BM_NandProgramPage(benchmark::State& state) {
  nand::FlashChip chip(micro_geometry(), nand::NoiseModel::vendor_a(), 1);
  util::Xoshiro256 rng(1);
  std::vector<std::uint8_t> bits(chip.geometry().cells_per_page);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  std::uint32_t page = 0;
  for (auto _ : state) {
    if (page == chip.geometry().pages_per_block) {
      state.PauseTiming();
      (void)chip.erase_block(0);
      page = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(chip.program_page(0, page++, bits));
  }
  state.SetItemsProcessed(state.iterations() *
                          chip.geometry().cells_per_page);
}
BENCHMARK(BM_NandProgramPage);

void BM_NandProbePage(benchmark::State& state) {
  nand::FlashChip chip(micro_geometry(), nand::NoiseModel::vendor_a(), 2);
  (void)chip.program_block_random(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.probe_voltages(0, 0));
  }
  state.SetItemsProcessed(state.iterations() *
                          chip.geometry().cells_per_page);
}
BENCHMARK(BM_NandProbePage);

void BM_NandEraseBlock(benchmark::State& state) {
  nand::FlashChip chip(micro_geometry(), nand::NoiseModel::vendor_a(), 3);
  (void)chip.probe_voltages(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.erase_block(0));
  }
}
BENCHMARK(BM_NandEraseBlock);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256 rng(4);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_ChaCha20(benchmark::State& state) {
  const std::vector<std::uint8_t> key(32, 0x11);
  const std::vector<std::uint8_t> nonce(12, 0x22);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::ChaCha20 cipher(key, nonce);
    cipher.apply(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(65536);

void BM_BchEncode(benchmark::State& state) {
  const ecc::BchCode code(13, static_cast<int>(state.range(0)));
  util::Xoshiro256 rng(5);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(data));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(data.size()));
}
BENCHMARK(BM_BchEncode)->Arg(8)->Arg(32)->Arg(64);

void BM_BchDecodeWithErrors(benchmark::State& state) {
  const ecc::BchCode code(13, 32);
  util::Xoshiro256 rng(6);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
  auto codeword = code.encode(data);
  for (long e = 0; e < state.range(0); ++e) {
    codeword[rng.below(codeword.size())] ^= 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(codeword));
  }
}
BENCHMARK(BM_BchDecodeWithErrors)->Arg(0)->Arg(8)->Arg(30);

void BM_SvmTrain(benchmark::State& state) {
  svm::Dataset data;
  util::Xoshiro256 rng(7);
  for (long i = 0; i < state.range(0); ++i) {
    std::vector<double> x(64);
    const double shift = (i % 2) ? 0.5 : -0.5;
    for (auto& f : x) f = rng.normal(shift, 1.0);
    data.add(std::move(x), (i % 2) ? +1 : -1);
  }
  svm::SvmConfig config;
  config.kernel = {svm::KernelType::kRbf, 1.0 / 64.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm::SvmModel::train(data, config));
  }
}
BENCHMARK(BM_SvmTrain)->Arg(62)->Arg(124);

void BM_VthiHide(benchmark::State& state) {
  nand::FlashChip chip(micro_geometry(), nand::NoiseModel::vendor_a(), 8);
  vthi::VthiConfig config = vthi::VthiConfig::production();
  config.hidden_bits_per_page = 64;  // enough for framing at 16-page blocks
  vthi::VthiCodec codec(chip, micro_key(), config);
  if (codec.capacity_bytes() == 0) {
    state.SkipWithError("zero capacity");
    return;
  }
  std::vector<std::uint8_t> payload(codec.capacity_bytes(), 0x42);
  for (auto _ : state) {
    state.PauseTiming();
    (void)chip.erase_block(0);
    (void)chip.program_block_random(0, 9);
    state.ResumeTiming();
    benchmark::DoNotOptimize(codec.hide(0, payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(payload.size()));
}
BENCHMARK(BM_VthiHide);

void BM_VthiReveal(benchmark::State& state) {
  nand::FlashChip chip(micro_geometry(), nand::NoiseModel::vendor_a(), 10);
  (void)chip.program_block_random(0, 11);
  vthi::VthiConfig config = vthi::VthiConfig::production();
  config.hidden_bits_per_page = 64;
  vthi::VthiCodec codec(chip, micro_key(), config);
  std::vector<std::uint8_t> payload(codec.capacity_bytes(), 0x42);
  if (payload.empty() || !codec.hide(0, payload).is_ok()) {
    state.SkipWithError("hide failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.reveal(0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(payload.size()));
}
BENCHMARK(BM_VthiReveal);

// ---- Telemetry overhead ----------------------------------------------------
// The instrumentation budget (<2% on a fig06 run) hangs on these two
// numbers: a counter increment and a histogram record are the only
// operations on any hot path.  Compare BM_TelemetryCounterInc (~1 ns)
// against BM_NandProbePage (~10 us): one increment per probe is ~0.01%.

void BM_TelemetryCounterInc(benchmark::State& state) {
  auto& counter =
      telemetry::MetricsRegistry::global().counter("bench.micro.counter");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  auto& hist =
      telemetry::MetricsRegistry::global().histogram("bench.micro.hist");
  std::uint64_t sample = 1;
  for (auto _ : state) {
    hist.record(sample++);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetryRegistryLookup(benchmark::State& state) {
  // Setup-path cost: what cached-reference call sites avoid paying per hit.
  auto& reg = telemetry::MetricsRegistry::global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&reg.counter("bench.micro.lookup"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRegistryLookup);

}  // namespace

BENCHMARK_MAIN();
