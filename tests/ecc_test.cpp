// ECC substrate tests: GF(2^m) field axioms (parameterized over m), BCH
// encode/decode round trips with random error injection up to and beyond t,
// and parity-stripe reconstruction.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "stash/ecc/bch.hpp"
#include "stash/ecc/gf.hpp"
#include "stash/ecc/parity.hpp"
#include "stash/util/rng.hpp"

namespace stash::ecc {
namespace {

using stash::util::Xoshiro256;

// ---------------- Galois field ----------------

class GaloisFieldTest : public ::testing::TestWithParam<int> {};

TEST_P(GaloisFieldTest, AlphaGeneratesWholeField) {
  GaloisField gf(GetParam());
  std::vector<bool> seen(static_cast<std::size_t>(gf.n()) + 1, false);
  for (int i = 0; i < gf.n(); ++i) {
    const auto e = gf.alpha_pow(i);
    ASSERT_GT(e, 0u);
    ASSERT_LE(e, static_cast<std::uint32_t>(gf.n()));
    ASSERT_FALSE(seen[e]) << "alpha^" << i << " repeats";
    seen[e] = true;
  }
}

TEST_P(GaloisFieldTest, MultiplicationAgreesWithLogs) {
  GaloisField gf(GetParam());
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint32_t>(1 + rng.below(gf.n()));
    const auto b = static_cast<std::uint32_t>(1 + rng.below(gf.n()));
    const auto prod = gf.mul(a, b);
    EXPECT_EQ(gf.log(prod), (gf.log(a) + gf.log(b)) % gf.n());
  }
}

TEST_P(GaloisFieldTest, InverseAndDivision) {
  GaloisField gf(GetParam());
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint32_t>(1 + rng.below(gf.n()));
    EXPECT_EQ(gf.mul(a, gf.inv(a)), 1u);
    const auto b = static_cast<std::uint32_t>(1 + rng.below(gf.n()));
    EXPECT_EQ(gf.mul(gf.div(a, b), b), a);
  }
}

TEST_P(GaloisFieldTest, DistributiveLaw) {
  GaloisField gf(GetParam());
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng.below(gf.n() + 1));
    const auto b = static_cast<std::uint32_t>(rng.below(gf.n() + 1));
    const auto c = static_cast<std::uint32_t>(rng.below(gf.n() + 1));
    EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
  }
}

TEST_P(GaloisFieldTest, PowMatchesRepeatedMul) {
  GaloisField gf(GetParam());
  const std::uint32_t a = gf.alpha_pow(1);
  std::uint32_t acc = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(gf.pow(a, e), acc);
    acc = gf.mul(acc, a);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, GaloisFieldTest,
                         ::testing::Values(3, 4, 5, 8, 10, 13));

TEST(GaloisField, RejectsBadM) {
  EXPECT_THROW(GaloisField(1), std::invalid_argument);
  EXPECT_THROW(GaloisField(17), std::invalid_argument);
}

TEST(GaloisField, EvalPolyHorner) {
  GaloisField gf(4);
  // p(x) = 1 + x: p(alpha) = 1 ^ alpha.
  const std::vector<std::uint32_t> p = {1, 1};
  EXPECT_EQ(gf.eval_poly(p, gf.alpha_pow(1)), 1u ^ gf.alpha_pow(1));
  EXPECT_EQ(gf.eval_poly(p, 1), 0u);  // 1 + 1 = 0 in GF(2^m)
}

// ---------------- BCH ----------------

struct BchCase {
  int m;
  int t;
  std::size_t data_len;
};

class BchRoundTrip : public ::testing::TestWithParam<BchCase> {};

TEST_P(BchRoundTrip, CorrectsUpToTErrors) {
  const auto [m, t, data_len] = GetParam();
  BchCode code(m, t);
  ASSERT_LE(data_len, code.k());
  Xoshiro256 rng(100 + static_cast<std::uint64_t>(m * 100 + t));

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> data(data_len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto codeword = code.encode(data);
    ASSERT_EQ(codeword.size(), data_len + code.parity_bits());

    // Inject exactly `errors` distinct bit flips.
    const int errors = trial % (t + 1);
    std::vector<std::size_t> positions;
    while (static_cast<int>(positions.size()) < errors) {
      const auto p = static_cast<std::size_t>(rng.below(codeword.size()));
      if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
        positions.push_back(p);
        codeword[p] ^= 1;
      }
    }

    const auto decoded = code.decode(codeword);
    ASSERT_TRUE(decoded.ok) << "m=" << m << " t=" << t << " errors=" << errors;
    EXPECT_EQ(decoded.corrected, errors);
    EXPECT_EQ(decoded.data_bits, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BchRoundTrip,
    ::testing::Values(BchCase{5, 1, 20}, BchCase{6, 2, 40}, BchCase{8, 3, 100},
                      BchCase{8, 8, 150}, BchCase{10, 5, 500},
                      BchCase{10, 20, 700}, BchCase{13, 10, 4000},
                      BchCase{13, 60, 7000}));

TEST(Bch, ZeroErrorsFastPath) {
  BchCode code(8, 4);
  std::vector<std::uint8_t> data(100, 0);
  data[3] = 1;
  data[77] = 1;
  const auto cw = code.encode(data);
  const auto decoded = code.decode(cw);
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.corrected, 0);
  EXPECT_EQ(decoded.data_bits, data);
}

TEST(Bch, DetectsBeyondTMostOfTheTime) {
  // Past the design distance, decoding must either report failure or,
  // rarely, miscorrect — it must never crash or loop.
  BchCode code(8, 2);
  Xoshiro256 rng(321);
  int failures_reported = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::uint8_t> data(100);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    // 6 errors >> t=2.
    for (int e = 0; e < 6; ++e) {
      cw[rng.below(cw.size())] ^= 1;
    }
    const auto decoded = code.decode(cw);
    if (!decoded.ok || decoded.data_bits != data) ++failures_reported;
  }
  // Should virtually always fail to silently "repair" to the original.
  EXPECT_GT(failures_reported, trials - 3);
}

TEST(Bch, ShorteningPreservesCorrection) {
  BchCode code(10, 4);
  // Same code, several shortened lengths.
  for (std::size_t len : {32u, 100u, 500u, 900u}) {
    Xoshiro256 rng(len);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    cw[0] ^= 1;
    cw[cw.size() - 1] ^= 1;
    const auto decoded = code.decode(cw);
    ASSERT_TRUE(decoded.ok) << "len=" << len;
    EXPECT_EQ(decoded.data_bits, data);
  }
}

TEST(Bch, ParityBitsAtMostMTimesT) {
  for (int t : {1, 3, 8}) {
    BchCode code(10, t);
    EXPECT_LE(code.parity_bits(), static_cast<std::size_t>(10 * t));
    EXPECT_GE(code.parity_bits(), static_cast<std::size_t>(t));
  }
}

TEST(Bch, PickTForCodewordCoversExpectedErrors) {
  // Fixed-codeword sizing (the VT-HI layout path): t must exceed the mean
  // error count with margin and leave room for data.
  const std::size_t cw = 5120;
  const double p = 0.02;
  const int t = BchCode::pick_t_for_codeword(13, cw, p);
  ASSERT_GT(t, 0);
  EXPECT_GT(t, static_cast<int>(cw * p));                   // > mean
  EXPECT_LT(static_cast<std::size_t>(13 * t), cw);          // data remains
  // Higher margin, higher t.
  EXPECT_GT(BchCode::pick_t_for_codeword(13, cw, p, 5.0), t);
}

TEST(Bch, PickTForCodewordRejectsInfeasible) {
  // Codeword longer than the field allows.
  EXPECT_EQ(BchCode::pick_t_for_codeword(8, 300, 0.02), 0);
  // Error rate so high that parity would consume the codeword.
  EXPECT_EQ(BchCode::pick_t_for_codeword(13, 4000, 0.10), 0);
  // Empty codeword.
  EXPECT_EQ(BchCode::pick_t_for_codeword(10, 0, 0.01), 0);
}

TEST(Bch, PickTForCodewordSurvivesChannelSimulation) {
  // End-to-end: size t for a 2% channel, push 30 random codewords through
  // it, expect at most one decode failure (3-sigma design point).
  const std::size_t cw_bits = 2000;
  const double p = 0.02;
  const int t = BchCode::pick_t_for_codeword(11, cw_bits, p);
  ASSERT_GT(t, 0);
  BchCode code(11, t);
  const std::size_t data_len = cw_bits - code.parity_bits();
  Xoshiro256 rng(2024);
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> data(data_len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    for (auto& bit : cw) {
      if (rng.uniform() < p) bit ^= 1;
    }
    const auto decoded = code.decode(cw);
    failures += !(decoded.ok && decoded.data_bits == data);
  }
  EXPECT_LE(failures, 1);
}

TEST(Bch, RejectsOversizedData) {
  BchCode code(5, 1);
  std::vector<std::uint8_t> too_big(code.k() + 1, 0);
  EXPECT_THROW((void)code.encode(too_big), std::invalid_argument);
}

TEST(Bch, RandomBerSurvivalSweep) {
  // Statistical property: at raw BER p and t picked by
  // pick_t_for_codeword, nearly all codewords decode.  Mirrors the codec's
  // operating point.
  const double p = 0.008;
  const std::size_t cw_bits = 2400;
  const int t = BchCode::pick_t_for_codeword(13, cw_bits, p);
  ASSERT_GT(t, 0);
  BchCode code(13, t);
  const std::size_t data_len = cw_bits - code.parity_bits();
  Xoshiro256 rng(777);
  int ok = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::uint8_t> data(data_len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    for (auto& bit : cw) {
      if (rng.uniform() < p) bit ^= 1;
    }
    const auto decoded = code.decode(cw);
    ok += decoded.ok && decoded.data_bits == data;
  }
  EXPECT_GE(ok, trials - 1);
}

// ---------------- SIMD vs scalar-reference decode ----------------
//
// The decoder's hot loops exist twice: the forced-SIMD build
// (bch_kernels.cpp) behind decode()/decode_batch(), and the
// vectorization-disabled scalar build (bch_reference.cpp) behind
// decode_reference()/decode_batch_reference().  The kernels are pure
// integer table arithmetic, so the two builds must agree bit-for-bit —
// these batteries diff full decodes (data bits, corrected count, ok flag)
// across them.

void expect_same_result(const BchCode::DecodeResult& simd,
                        const BchCode::DecodeResult& ref,
                        const std::string& what) {
  EXPECT_EQ(simd.ok, ref.ok) << what;
  EXPECT_EQ(simd.corrected, ref.corrected) << what;
  EXPECT_EQ(simd.data_bits, ref.data_bits) << what;
}

TEST(BchSimdVsReference, EveryErrorWeightZeroToT) {
  // Both the mid-size and the device-size field; every weight w in 0..t,
  // several random placements each.
  for (const BchCase& c : {BchCase{8, 4, 120}, BchCase{13, 8, 2000}}) {
    BchCode code(c.m, c.t);
    Xoshiro256 rng(0x5eedULL + static_cast<std::uint64_t>(c.m));
    for (int w = 0; w <= c.t; ++w) {
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::uint8_t> data(c.data_len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
        auto cw = code.encode(data);
        std::vector<std::size_t> hit;
        while (static_cast<int>(hit.size()) < w) {
          const auto p = static_cast<std::size_t>(rng.below(cw.size()));
          if (std::find(hit.begin(), hit.end(), p) == hit.end()) {
            hit.push_back(p);
            cw[p] ^= 1;
          }
        }
        const auto simd = code.decode(cw);
        const auto ref = code.decode_reference(cw);
        expect_same_result(simd, ref,
                           "m=" + std::to_string(c.m) +
                               " weight=" + std::to_string(w));
        EXPECT_TRUE(simd.ok);
        EXPECT_EQ(simd.corrected, w);
        EXPECT_EQ(simd.data_bits, data);
      }
    }
  }
}

TEST(BchSimdVsReference, EverySingleBitFlipPosition) {
  // Exhaustive over the codeword: each position exercises a different
  // Chien-search root, so this sweeps the whole locator path.
  BchCode code(8, 4);  // m=8 keeps the exhaustive sweep fast
  Xoshiro256 rng(42);
  std::vector<std::uint8_t> data(120);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
  const auto clean = code.encode(data);
  for (std::size_t p = 0; p < clean.size(); ++p) {
    auto cw = clean;
    cw[p] ^= 1;
    const auto simd = code.decode(cw);
    const auto ref = code.decode_reference(cw);
    expect_same_result(simd, ref, "flip@" + std::to_string(p));
    ASSERT_TRUE(simd.ok) << "flip@" << p;
    EXPECT_EQ(simd.corrected, 1);
    EXPECT_EQ(simd.data_bits, data);
  }
}

TEST(BchSimdVsReference, RandomWeightTPatterns) {
  // Full correction budget: t errors is where the Berlekamp-Massey and
  // Chien paths do the most work.
  BchCode code(13, 8);
  Xoshiro256 rng(0xfeedULL);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::uint8_t> data(3000);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    std::vector<std::size_t> hit;
    while (static_cast<int>(hit.size()) < code.t()) {
      const auto p = static_cast<std::size_t>(rng.below(cw.size()));
      if (std::find(hit.begin(), hit.end(), p) == hit.end()) {
        hit.push_back(p);
        cw[p] ^= 1;
      }
    }
    const auto simd = code.decode(cw);
    const auto ref = code.decode_reference(cw);
    expect_same_result(simd, ref, "trial=" + std::to_string(trial));
    ASSERT_TRUE(simd.ok);
    EXPECT_EQ(simd.corrected, code.t());
    EXPECT_EQ(simd.data_bits, data);
  }
}

TEST(BchSimdVsReference, BatchInvariantUnderAnySplit) {
  // decode_batch must equal per-codeword decode() no matter how the batch
  // is partitioned: scratch reuse across the batch cannot leak state.
  BchCode code(10, 5);
  Xoshiro256 rng(0xba7c4ULL);
  constexpr std::size_t kBatch = 9;
  std::vector<std::vector<std::uint8_t>> words;
  std::vector<BchCode::DecodeResult> singles;
  for (std::size_t i = 0; i < kBatch; ++i) {
    std::vector<std::uint8_t> data(400);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    // Vary the weight across the batch, including beyond-t failures.
    const int w = static_cast<int>(i % (code.t() + 2));
    std::vector<std::size_t> hit;
    while (static_cast<int>(hit.size()) < w) {
      const auto p = static_cast<std::size_t>(rng.below(cw.size()));
      if (std::find(hit.begin(), hit.end(), p) == hit.end()) {
        hit.push_back(p);
        cw[p] ^= 1;
      }
    }
    singles.push_back(code.decode(cw));
    words.push_back(std::move(cw));
  }
  std::vector<std::span<const std::uint8_t>> views;
  for (const auto& w : words) views.emplace_back(w);

  // Whole batch, SIMD and reference.
  for (const auto& results :
       {code.decode_batch(views), code.decode_batch_reference(views)}) {
    ASSERT_EQ(results.size(), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      expect_same_result(results[i], singles[i], "full i=" + std::to_string(i));
    }
  }

  // Every split point: [0, s) then [s, N) must reproduce the same results.
  for (std::size_t s = 0; s <= kBatch; ++s) {
    auto head = code.decode_batch({views.data(), s});
    auto tail = code.decode_batch({views.data() + s, kBatch - s});
    ASSERT_EQ(head.size() + tail.size(), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto& got = i < s ? head[i] : tail[i - s];
      expect_same_result(got, singles[i], "split=" + std::to_string(s) +
                                              " i=" + std::to_string(i));
    }
  }
}

TEST(BchSimdVsReference, ConcurrentBatchesShareOneCode) {
  // A BchCode is immutable after construction; concurrent decode_batch
  // calls on one instance (the codec decodes per-chip batches in a thread
  // pool) must not race.  TSan runs this test in CI.
  BchCode code(10, 4);
  Xoshiro256 rng(0x7eadULL);
  std::vector<std::vector<std::uint8_t>> words;
  std::vector<BchCode::DecodeResult> expected;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::uint8_t> data(300);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    auto cw = code.encode(data);
    for (int w = 0; w < i % (code.t() + 1); ++w) {
      cw[rng.below(cw.size())] ^= 1;  // weight may collide; reference below
    }
    expected.push_back(code.decode_reference(cw));
    words.push_back(std::move(cw));
  }
  std::vector<std::span<const std::uint8_t>> views;
  for (const auto& w : words) views.emplace_back(w);

  constexpr int kThreads = 4;
  std::vector<std::vector<BchCode::DecodeResult>> got(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int tid = 0; tid < kThreads; ++tid) {
      pool.emplace_back([&, tid] { got[tid] = code.decode_batch(views); });
    }
    for (auto& th : pool) th.join();
  }
  for (int tid = 0; tid < kThreads; ++tid) {
    ASSERT_EQ(got[tid].size(), words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      expect_same_result(got[tid][i], expected[i],
                         "tid=" + std::to_string(tid) +
                             " i=" + std::to_string(i));
    }
  }
}

// ---------------- Parity stripe ----------------

TEST(ParityStripe, ReconstructsAnyMissingBuffer) {
  Xoshiro256 rng(99);
  std::vector<std::vector<std::uint8_t>> buffers(5,
                                                 std::vector<std::uint8_t>(64));
  for (auto& buf : buffers) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  }
  const auto parity = ParityStripe::compute(buffers);
  for (std::size_t missing = 0; missing < buffers.size(); ++missing) {
    const auto rebuilt = ParityStripe::reconstruct(buffers, parity, missing);
    EXPECT_EQ(rebuilt, buffers[missing]);
  }
}

TEST(ParityStripe, RejectsSizeMismatch) {
  std::vector<std::vector<std::uint8_t>> buffers = {{1, 2, 3}, {1, 2}};
  EXPECT_THROW((void)ParityStripe::compute(buffers), std::invalid_argument);
}

TEST(ParityStripe, SingleBufferParityIsIdentity) {
  std::vector<std::vector<std::uint8_t>> buffers = {{9, 8, 7}};
  EXPECT_EQ(ParityStripe::compute(buffers), buffers[0]);
}

}  // namespace
}  // namespace stash::ecc
