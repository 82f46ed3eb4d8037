// ECC substrate tests: GF(2^m) field axioms (parameterized over m), BCH
// encode/decode round trips with random error injection up to and beyond t,
// and parity-stripe reconstruction.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "stash/crypto/sha256.hpp"
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

/// Seeded decode inputs for one code at codeword length `len`: `random`
/// uniformly random words, then `reps` noisy codewords at every weight
/// 0..t+3 (distinct flips, so past t they exercise the failure paths).
std::vector<std::vector<std::uint8_t>> known_answer_words(const BchCode& code,
                                                          std::size_t len,
                                                          int random, int reps,
                                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint8_t>> words;
  for (int i = 0; i < random; ++i) {
    std::vector<std::uint8_t> word(len);
    for (auto& b : word) b = static_cast<std::uint8_t>(rng() & 1);
    words.push_back(std::move(word));
  }
  for (int w = 0; w <= code.t() + 3; ++w) {
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<std::uint8_t> data(len - code.parity_bits());
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
      words.push_back(std::move(cw));
    }
  }
  return words;
}

TEST(Bch, KnownAnswerDecodes) {
  // SHA-256 over (ok, corrected, data_bits) of every decode: any change to
  // the decoder that moves a single result, including which words fail,
  // moves the digest.  The VT-HI production code (4096-bit codewords) and
  // perf_baseline's (t 12, full length).
  struct Case {
    int t;
    std::size_t len;  // 0 = the full length n
    const char* digest;
  };
  for (const Case& c :
       {Case{85, 4096,
            "da14b82dfb3d736582f00186a747bd3fd35972461c9428fee3c91ff6ddb476f9"},
        Case{12, 0,
             "41d78e13d634cb3b5a0a6ecccd39af0494c967eb59ead5a1eacb8c0eba552e77"}}) {
    const BchCode code(13, c.t);
    const std::size_t len = c.len ? c.len : code.n();
    const auto words = known_answer_words(code, len, 24, c.t > 20 ? 1 : 3,
                                          0x4B41ULL + static_cast<std::uint64_t>(c.t));
    std::vector<std::span<const std::uint8_t>> views(words.begin(), words.end());
    const auto results = code.decode_batch(views);
    crypto::Sha256 h;
    for (std::size_t i = 0; i < words.size(); ++i) {
      expect_same_result(results[i], code.decode_reference(words[i]),
                         "t=" + std::to_string(c.t) + " i=" + std::to_string(i));
      const auto corrected = static_cast<std::uint32_t>(results[i].corrected);
      const std::uint8_t head[5] = {
          static_cast<std::uint8_t>(results[i].ok),
          static_cast<std::uint8_t>(corrected),
          static_cast<std::uint8_t>(corrected >> 8),
          static_cast<std::uint8_t>(corrected >> 16),
          static_cast<std::uint8_t>(corrected >> 24)};
      h.update(head);
      h.update(results[i].data_bits);
    }
    EXPECT_EQ(crypto::to_hex(h.finish()), c.digest) << "t=" << c.t;
  }
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
  // Chien paths do the most work, and a full-degree locator with t
  // distinct roots in range must pass the split test.  Besides t 8, the
  // VT-HI production code (t 85, 4096 bits) and perf_baseline's (t 12,
  // full length), each with both ends of the word hit.
  struct Case {
    int t;
    std::size_t len;  // codeword bits
  };
  for (const Case& c : {Case{8, 3000 + 8 * 13}, Case{85, 4096}, Case{12, 8191}}) {
    BchCode code(13, c.t);
    ASSERT_LE(c.len, code.n());
    Xoshiro256 rng(0xfeedULL);
    for (int trial = 0; trial < (c.t > 20 ? 4 : 16); ++trial) {
      std::vector<std::uint8_t> data(c.len - code.parity_bits());
      for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
      auto cw = code.encode(data);
      std::vector<std::size_t> hit;
      if (c.t != 8) hit = {0, cw.size() - 1};
      for (const std::size_t p : hit) cw[p] ^= 1;
      while (static_cast<int>(hit.size()) < code.t()) {
        const auto p = static_cast<std::size_t>(rng.below(cw.size()));
        if (std::find(hit.begin(), hit.end(), p) == hit.end()) {
          hit.push_back(p);
          cw[p] ^= 1;
        }
      }
      const auto simd = code.decode(cw);
      const auto ref = code.decode_reference(cw);
      expect_same_result(simd, ref, "t=" + std::to_string(c.t) +
                                        " trial=" + std::to_string(trial));
      ASSERT_TRUE(simd.ok);
      EXPECT_EQ(simd.corrected, code.t());
      EXPECT_EQ(simd.data_bits, data);
    }
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

// ---------------- Split test before the Chien search ----------------
//
// A full-degree locator is rejected when x^(2^m) != x (mod Lambda), i.e.
// when it has fewer than deg(Lambda) distinct roots in GF(2^m).  These
// tests hold detail::locator_splits to a brute-force root count over every
// field element, and hold the decoder to the same verdicts as before: a
// locator that splits still reaches the Chien search (weight-t words in
// range are BchSimdVsReference.RandomWeightTPatterns).

/// Distinct roots of `poly` among the nonzero elements of GF(2^m).
int brute_force_roots(const GaloisField& gf,
                      const std::vector<std::uint32_t>& poly) {
  int roots = 0;
  for (int e = 0; e < gf.n(); ++e) {
    roots += gf.eval_poly(poly, gf.alpha_pow(e)) == 0;
  }
  return roots;
}

/// Product of (1 + alpha^d x) over `degrees`: the locator of errors at
/// those codeword degrees.
std::vector<std::uint32_t> locator_of(const GaloisField& gf,
                                      const std::vector<int>& degrees) {
  std::vector<std::uint32_t> poly = {1};
  for (const int d : degrees) {
    std::vector<std::uint32_t> next(poly.size() + 1, 0);
    for (std::size_t i = 0; i < poly.size(); ++i) {
      next[i] ^= poly[i];
      next[i + 1] ^= gf.mul(poly[i], gf.alpha_pow(d));
    }
    poly = std::move(next);
  }
  return poly;
}

std::vector<std::uint32_t> poly_times(const GaloisField& gf,
                                      const std::vector<std::uint32_t>& a,
                                      const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] ^= gf.mul(a[i], b[j]);
  }
  return out;
}

/// `count` distinct degrees in [0, limit).
std::vector<int> distinct_degrees(Xoshiro256& rng, int count, int limit) {
  std::vector<int> out;
  while (static_cast<int>(out.size()) < count) {
    const int d = static_cast<int>(rng.below(static_cast<std::uint64_t>(limit)));
    if (std::find(out.begin(), out.end(), d) == out.end()) out.push_back(d);
  }
  return out;
}

/// The c of the first irreducible 1 + x + c x^2 over GF(2^m) (no roots).
std::uint32_t irreducible_quadratic_c(const GaloisField& gf) {
  for (std::uint32_t c = 1;; ++c) {
    if (brute_force_roots(gf, {1, 1, c}) == 0) return c;
  }
}

TEST(BchSplitTest, AgreesWithABruteForceRootCount) {
  const GaloisField gf(13);
  Xoshiro256 rng(0x501177ULL);
  const std::uint32_t c = irreducible_quadratic_c(gf);
  for (const int deg : {2, 3, 5, 12, 85}) {
    // deg distinct roots: splits.
    const auto split = locator_of(gf, distinct_degrees(rng, deg, gf.n()));
    EXPECT_EQ(brute_force_roots(gf, split), deg);
    EXPECT_TRUE(detail::locator_splits(gf, split)) << "deg=" << deg;

    // A repeated root: deg - 1 distinct roots.
    auto degrees = distinct_degrees(rng, deg - 1, gf.n());
    degrees.push_back(degrees.front());
    const auto repeated = locator_of(gf, degrees);
    EXPECT_EQ(brute_force_roots(gf, repeated), deg - 1);
    EXPECT_FALSE(detail::locator_splits(gf, repeated)) << "deg=" << deg;

    // An irreducible quadratic factor: deg - 2 roots in the field.
    const auto quadratic = poly_times(
        gf, {1, 1, c}, locator_of(gf, distinct_degrees(rng, deg - 2, gf.n())));
    EXPECT_EQ(brute_force_roots(gf, quadratic), deg - 2);
    EXPECT_FALSE(detail::locator_splits(gf, quadratic)) << "deg=" << deg;
  }
  // Random locators (constant term 1, nonzero leading term): low degrees
  // split often enough to exercise both verdicts, deg 85 almost never.
  int splits = 0;
  int rejects = 0;
  for (const int deg : {1, 2, 3, 4, 85}) {
    for (int rep = 0; rep < (deg > 4 ? 4 : 40); ++rep) {
      std::vector<std::uint32_t> poly(static_cast<std::size_t>(deg) + 1);
      for (auto& coef : poly) {
        coef = static_cast<std::uint32_t>(
            rng.below(static_cast<std::uint64_t>(gf.n()) + 1));
      }
      poly.front() = 1;
      if (poly.back() == 0) poly.back() = 1;
      const int roots = brute_force_roots(gf, poly);
      EXPECT_EQ(detail::locator_splits(gf, poly), roots == deg)
          << "deg=" << deg << " rep=" << rep;
      (roots == deg ? splits : rejects) += 1;
    }
  }
  EXPECT_GT(splits, 40);
  EXPECT_GT(rejects, 40);
}

TEST(BchSplitTest, ASplitLocatorWithARootPastTheLengthStillFails) {
  // Syndromes of t errors, one of them at a degree past the shortened
  // length: the locator splits, so only the Chien search (which scans
  // [0, len)) can reject it, finding t - 1 roots.  x^p's syndromes are
  // those of x^p mod g, which is the parity of a unit message at degree p.
  const int t = 85;
  const std::size_t len = 4096;
  const int p = 6000;
  const BchCode code(13, t);
  const GaloisField gf(13);
  const std::size_t r = code.parity_bits();
  std::vector<std::uint8_t> unit(static_cast<std::size_t>(p) + 1 - r, 0);
  unit.front() = 1;  // index 0 of a (p + 1)-bit codeword is degree p
  const auto x_p = code.encode(unit);

  Xoshiro256 rng(0xfa57ULL);
  std::vector<std::uint8_t> data(len - r);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
  auto cw = code.encode(data);
  std::vector<int> degrees = distinct_degrees(rng, t - 1, static_cast<int>(len));
  for (const int d : degrees) cw[len - 1 - static_cast<std::size_t>(d)] ^= 1;
  for (std::size_t i = 0; i < r; ++i) cw[len - r + i] ^= x_p[x_p.size() - r + i];
  degrees.push_back(p);

  const auto locator = locator_of(gf, degrees);
  ASSERT_TRUE(detail::locator_splits(gf, locator));
  const auto decoded = code.decode(cw);
  EXPECT_FALSE(decoded.ok);
  expect_same_result(decoded, code.decode_reference(cw), "root past len");

  // The same errors with the last one moved inside the range decode.
  for (std::size_t i = 0; i < r; ++i) cw[len - r + i] ^= x_p[x_p.size() - r + i];
  int inside = 0;
  while (std::find(degrees.begin(), degrees.end(), inside) != degrees.end()) {
    ++inside;
  }
  cw[len - 1 - static_cast<std::size_t>(inside)] ^= 1;
  const auto repaired = code.decode(cw);
  ASSERT_TRUE(repaired.ok);
  EXPECT_EQ(repaired.corrected, t);
  EXPECT_EQ(repaired.data_bits, data);
}

/// A word whose syndromes have the locator (1 + x + c x^2) times the
/// locator of errors at `degrees`: power sums of the inverse roots, the
/// pair of them being beta = y and beta' = y + 1 in GF(2^m)[y] /
/// (y^2 + y + c).  The pair contributes beta^j + beta'^j, the
/// y-coefficient of y^j, and a GF(2) solve over the parity degrees finds
/// a word with those syndromes.  When 1 + x + c x^2 is irreducible, beta
/// lies in GF(2^2m) and the locator has two roots outside the field.
std::vector<std::uint8_t> quadratic_factor_word(const BchCode& code,
                                                std::uint32_t c,
                                                const std::vector<int>& degrees,
                                                std::vector<std::uint8_t> cw) {
  const GaloisField gf(code.m());
  const int m = code.m();
  const int t = code.t();
  const std::size_t r = code.parity_bits();
  const std::size_t len = cw.size();
  // Odd syndromes S_1, S_3, ..., S_(2t-1) as m*t bits.
  const auto syndrome_bits = [&](const std::vector<std::uint32_t>& syn) {
    std::vector<std::uint8_t> bits;
    for (const std::uint32_t s : syn) {
      for (int b = 0; b < m; ++b) bits.push_back((s >> b) & 1);
    }
    return bits;
  };
  std::vector<std::uint32_t> pair_syn;
  std::uint32_t a = 0, b = 1;  // y^1 = 0 + 1 * y
  for (int j = 1; j <= 2 * t - 1; ++j) {
    if (j % 2 == 1) pair_syn.push_back(b);
    // y^(j+1) = y (a + b y) = b c + (a + b) y
    const std::uint32_t next_a = gf.mul(b, c);
    b ^= a;
    a = next_a;
  }
  const auto target = syndrome_bits(pair_syn);

  // Gauss-Jordan on sum_i w_i * syndromes(x^i) = target, i < r.
  std::vector<std::vector<std::uint8_t>> rows(target.size(),
                                              std::vector<std::uint8_t>(r + 1));
  for (std::size_t i = 0; i < r; ++i) {
    std::vector<std::uint32_t> syn;
    for (int k = 0; k < t; ++k) {
      syn.push_back(gf.alpha_pow((2 * k + 1) * static_cast<int>(i)));
    }
    const auto col = syndrome_bits(syn);
    for (std::size_t e = 0; e < rows.size(); ++e) rows[e][i] = col[e];
  }
  for (std::size_t e = 0; e < rows.size(); ++e) rows[e][r] = target[e];
  for (std::size_t col = 0; col < r; ++col) {
    std::size_t pivot = col;
    while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
    if (pivot == rows.size()) throw std::logic_error("singular syndrome map");
    std::swap(rows[col], rows[pivot]);
    for (std::size_t e = 0; e < rows.size(); ++e) {
      if (e != col && rows[e][col]) {
        for (std::size_t k = col; k <= r; ++k) rows[e][k] ^= rows[col][k];
      }
    }
  }
  for (const int d : degrees) cw[len - 1 - static_cast<std::size_t>(d)] ^= 1;
  for (std::size_t i = 0; i < r; ++i) cw[len - 1 - i] ^= rows[i][r];
  return cw;
}

TEST(BchSplitTest, AnIrreducibleQuadraticFactorFailsTheDecode) {
  // A small t keeps the GF(2) solve cheap; the split test runs for any t.
  // Full length, so every degree in the field is inside the word.
  const int t = 6;
  const BchCode code(13, t);
  const GaloisField gf(13);
  const std::size_t len = code.n();
  ASSERT_EQ(code.parity_bits(), static_cast<std::size_t>(gf.m() * t));
  Xoshiro256 rng(0x9a1dULL);
  std::vector<std::uint8_t> data(len - code.parity_bits());
  for (auto& bit : data) bit = static_cast<std::uint8_t>(rng() & 1);
  const auto clean = code.encode(data);
  const auto degrees = distinct_degrees(rng, t - 2, static_cast<int>(len));

  const std::uint32_t irreducible = irreducible_quadratic_c(gf);
  const auto locator =
      poly_times(gf, {1, 1, irreducible}, locator_of(gf, degrees));
  ASSERT_EQ(static_cast<int>(locator.size()) - 1, t);
  ASSERT_EQ(brute_force_roots(gf, locator), t - 2);
  ASSERT_FALSE(detail::locator_splits(gf, locator));
  const auto word = quadratic_factor_word(code, irreducible, degrees, clean);
  const auto decoded = code.decode(word);
  EXPECT_FALSE(decoded.ok);
  expect_same_result(decoded, code.decode_reference(word), "irreducible");

  // Control: with a quadratic that splits, the pair is two errors inside
  // the field (at degrees e with y = alpha^e a root of y^2 + y + c) and
  // the same construction decodes as t errors.
  const auto pair_degrees = [&](std::uint32_t c) {
    std::vector<int> out;
    for (int e = 0; e < gf.n(); ++e) {
      const std::uint32_t y = gf.alpha_pow(e);
      if ((gf.mul(y, y) ^ y ^ c) == 0) out.push_back(e);
    }
    return out;
  };
  std::uint32_t split = 1;
  for (;; ++split) {
    const auto pair = pair_degrees(split);
    if (pair.size() == 2 &&
        std::find_first_of(pair.begin(), pair.end(), degrees.begin(),
                           degrees.end()) == pair.end()) {
      break;
    }
  }
  const auto control = code.decode(
      quadratic_factor_word(code, split, degrees, clean));
  ASSERT_TRUE(control.ok);
  EXPECT_EQ(control.corrected, t);
  // The syndromes place the pair's errors at its own degrees, so the
  // decoder flips those bits rather than undoing the parity-range word.
  auto expected = data;
  for (const int e : pair_degrees(split)) {
    const std::size_t j = len - 1 - static_cast<std::size_t>(e);
    if (j < expected.size()) expected[j] ^= 1;
  }
  EXPECT_EQ(control.data_bits, expected);
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
