// Crypto substrate tests: SHA-256 / HMAC / HKDF against published vectors,
// ChaCha20 against RFC 8439, DRBG determinism, distribution and known-answer
// stream (the batched refill against one scalar hash per block), hiding-key
// derivation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "stash/crypto/chacha20.hpp"
#include "stash/crypto/drbg.hpp"
#include "stash/crypto/sha256.hpp"
#include "stash/util/rng.hpp"

namespace stash::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and at odd "
      "buffer boundaries to exercise the block buffering logic.";
  const auto oneshot = Sha256::hash(msg);
  for (std::size_t split = 1; split < msg.size(); split += 7) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha256, EmptyUpdateOnPartialBufferIsANoOp) {
  const std::string msg = "partial";
  Sha256 h;
  h.update(msg);                               // buffer partially full
  h.update(std::span<const std::uint8_t>{});  // null data(), zero length
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, AvalancheOnSingleBitFlip) {
  std::vector<std::uint8_t> msg(64, 0xaa);
  const auto base = Sha256::hash(msg);
  msg[10] ^= 0x01;
  const auto flipped = Sha256::hash(msg);
  int diff = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    diff += __builtin_popcount(static_cast<unsigned>(base[i] ^ flipped[i]));
  }
  EXPECT_GT(diff, 90);   // expect ~128 of 256 bits to flip
  EXPECT_LT(diff, 166);
}

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3LongKeyBlock) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HkdfSha256, Rfc5869Case1) {
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  const auto salt = from_hex("000102030405060708090a0b0c");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const auto okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(ChaCha20, Rfc8439Vector) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = from_hex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const auto ct = ChaCha20::crypt(
      key, nonce,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(plaintext.data()),
          plaintext.size()),
      1);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(ct.size(), plaintext.size());
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const std::vector<std::uint8_t> key(32, 0x42);
  const std::vector<std::uint8_t> nonce(12, 0x24);
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto ct = ChaCha20::crypt(key, nonce, data);
  EXPECT_NE(ct, data);
  EXPECT_EQ(ChaCha20::crypt(key, nonce, ct), data);
}

TEST(ChaCha20, RejectsBadKeyOrNonceSize) {
  const std::vector<std::uint8_t> short_key(16, 0);
  const std::vector<std::uint8_t> nonce(12, 0);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  const std::vector<std::uint8_t> key(32, 0);
  const std::vector<std::uint8_t> bad_nonce(8, 0);
  EXPECT_THROW(ChaCha20(key, bad_nonce), std::invalid_argument);
}

TEST(ChaCha20, KeystreamLooksBalanced) {
  const std::vector<std::uint8_t> key(32, 0x01);
  const std::vector<std::uint8_t> nonce(12, 0x02);
  std::vector<std::uint8_t> zeros(100000, 0);
  ChaCha20 cipher(key, nonce);
  cipher.apply(zeros);
  std::size_t ones = 0;
  for (std::uint8_t b : zeros) {
    ones += static_cast<std::size_t>(__builtin_popcount(b));
  }
  const double fraction = static_cast<double>(ones) / (100000.0 * 8.0);
  EXPECT_NEAR(fraction, 0.5, 0.005);
}

TEST(Sha256Drbg, DeterministicPerSeedAndPersonalization) {
  const std::vector<std::uint8_t> seed(32, 0x11);
  Sha256Drbg a(seed, "page-0");
  Sha256Drbg b(seed, "page-0");
  Sha256Drbg c(seed, "page-1");
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const auto av = a.next_byte();
    EXPECT_EQ(av, b.next_byte());
    any_diff |= (av != c.next_byte());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Sha256Drbg, BelowIsInRangeAndBalanced) {
  const std::vector<std::uint8_t> seed(32, 0x22);
  Sha256Drbg drbg(seed, "test");
  std::array<int, 7> counts{};
  for (int i = 0; i < 70000; ++i) {
    const auto v = drbg.below(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Sha256Drbg, FillMatchesByteStream) {
  const std::vector<std::uint8_t> seed(32, 0x33);
  Sha256Drbg a(seed, "fill");
  Sha256Drbg b(seed, "fill");
  std::vector<std::uint8_t> filled(100);
  a.fill(filled);
  for (std::uint8_t expected : filled) {
    EXPECT_EQ(expected, b.next_byte());
  }
}

// Known answer: pins the selection stream byte for byte.  The stream is
// SHA-256(key || le64(counter)) for counter = 0, 1, ... with key =
// SHA-256(seed || personalization), and below() draws big-endian u64s from
// it; the expected values were cross-checked with Python's hashlib.  A
// refill strategy that moved one byte would move every hidden cell.
TEST(Sha256Drbg, KnownAnswerStreamAndSelectionDraws) {
  std::vector<std::uint8_t> seed(32);
  for (int i = 0; i < 32; ++i) seed[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const std::string personalization = "kat/block 7/page 42";

  Sha256Drbg bytes(seed, personalization);
  std::vector<std::uint8_t> stream(2048);
  bytes.fill(stream);
  EXPECT_EQ(to_hex(Sha256::hash(stream)),
            "d71ad19a574b36212ca5f6ac25f5cae3f68089d20315e2a391de307804b2c935");

  // The first draws of a VT-HI selection walk over a 9024-cell page.
  constexpr std::uint64_t kExpected[32] = {
      7687, 5134, 3695, 8863, 6967, 6830, 4585, 5293, 7378, 8470, 6634,
      7050, 4269, 1122, 1723, 1113, 5340, 212,  8902, 1327, 2758, 6164,
      7058, 197,  6083, 6068, 4415, 4591, 1266, 6563, 3487, 4000};
  Sha256Drbg draws(seed, personalization);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(draws.below(9024 - i), kExpected[i]) << "draw " << i;
  }
}

/// SHA-256(key || le64(counter)), one scalar hash: the DRBG's block
/// definition, independent of the lane-parallel refill.
Digest256 counter_block(const Digest256& key, std::uint64_t counter) {
  std::array<std::uint8_t, 40> msg{};
  std::memcpy(msg.data(), key.data(), key.size());
  for (int i = 0; i < 8; ++i) {
    msg[32 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
  }
  return Sha256::hash(msg);
}

TEST(Sha256Drbg, EveryLaneOfTheBatchedCompressionIsOneHash) {
  util::Xoshiro256 rng(0x1A7E5ULL);
  std::vector<std::uint64_t> counters = {
      0, 1, 0xFFFFFFFFULL - 4,  // the low word wraps inside the batch
      ~0ULL - 15};              // the last lane is counter 2^64 - 1
  for (int i = 0; i < 6; ++i) counters.push_back(rng());
  std::array<std::uint8_t, 32 * detail::kDrbgLanes> out{};
  for (const std::uint64_t counter : counters) {
    Digest256 key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    detail::sha256_counter_blocks(key, counter, out.data());
    for (std::size_t l = 0; l < detail::kDrbgLanes; ++l) {
      const Digest256 expected = counter_block(key, counter + l);
      EXPECT_EQ(0, std::memcmp(out.data() + 32 * l, expected.data(), 32))
          << "counter " << counter << " lane " << l;
    }
  }
}

/// The first `n` bytes of the stream, one scalar hash per 32 bytes.
std::vector<std::uint8_t> plain_stream(std::span<const std::uint8_t> seed,
                                       const std::string& personalization,
                                       std::size_t n) {
  Sha256 h;
  h.update(seed);
  h.update(personalization);
  const Digest256 key = h.finish();
  std::vector<std::uint8_t> out;
  for (std::uint64_t c = 0; out.size() < n; ++c) {
    const Digest256 block = counter_block(key, c);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

// Calls that start at byte offsets 505-512 straddle the 512-byte refill (or
// start exactly on it); each must read on as if the stream were one run of
// bytes.
TEST(Sha256Drbg, CallsStraddlingARefillMatchThePlainStream) {
  const std::vector<std::uint8_t> seed(32, 0x55);
  const std::string pers = "straddle";
  const auto stream = plain_stream(seed, pers, 4096);
  for (std::size_t offset = 505; offset <= 512; ++offset) {
    SCOPED_TRACE(offset);
    const auto at_offset = [&] {
      Sha256Drbg drbg(seed, pers);
      for (std::size_t i = 0; i < offset; ++i) drbg.next_byte();
      return drbg;
    };

    Sha256Drbg u64 = at_offset();
    EXPECT_EQ(u64.next_u64(), load_be64(stream.data() + offset));
    EXPECT_EQ(u64.next_byte(), stream[offset + 8]);

    // below(n) rejects a draw at or above the largest multiple of n.
    Sha256Drbg below = at_offset();
    constexpr std::uint64_t kN = 9024;
    const std::uint64_t limit = ~0ULL - (~0ULL % kN);
    std::size_t pos = offset;
    std::uint64_t v;
    do {
      v = load_be64(stream.data() + pos);
      pos += 8;
    } while (v >= limit);
    EXPECT_EQ(below.below(kN), v % kN);
    EXPECT_EQ(below.next_byte(), stream[pos]);

    // Short fills straddle one refill; the long one spans two more.
    for (const std::size_t len : {std::size_t{1}, std::size_t{7},
                                  std::size_t{40}, std::size_t{1100}}) {
      Sha256Drbg fill = at_offset();
      std::vector<std::uint8_t> got(len);
      fill.fill(got);
      EXPECT_TRUE(std::equal(got.begin(), got.end(),
                             stream.begin() + static_cast<long>(offset)))
          << "fill of " << len;
      EXPECT_EQ(fill.next_byte(), stream[offset + len]);
    }
  }
}

TEST(Sha256Drbg, BelowOneAlwaysZero) {
  const std::vector<std::uint8_t> seed(32, 0x44);
  Sha256Drbg drbg(seed, "degenerate");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(drbg.below(1), 0u);
    EXPECT_EQ(drbg.below(0), 0u);
  }
}

TEST(HkdfSha256, LengthsAreExact) {
  const std::vector<std::uint8_t> ikm(16, 0x01);
  for (std::size_t len : {1u, 31u, 32u, 33u, 100u}) {
    EXPECT_EQ(hkdf_sha256(ikm, {}, {}, len).size(), len);
  }
}

TEST(HidingKey, SubkeysAreDomainSeparated) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x77);
  HidingKey key(raw);
  EXPECT_NE(key.selection_key(), key.cipher_key());
  EXPECT_NE(key.cipher_key(), key.mac_key());
  EXPECT_NE(key.selection_key(), key.mac_key());
  // Stable across calls.
  EXPECT_EQ(key.selection_key(), key.selection_key());
}

TEST(HidingKey, PassphraseDerivationDeterministicAndSalted) {
  const auto a = HidingKey::from_passphrase("hunter2", "salt", 100);
  const auto b = HidingKey::from_passphrase("hunter2", "salt", 100);
  const auto c = HidingKey::from_passphrase("hunter2", "other", 100);
  const auto d = HidingKey::from_passphrase("hunter3", "salt", 100);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_NE(a.raw(), c.raw());
  EXPECT_NE(a.raw(), d.raw());
}

}  // namespace
}  // namespace stash::crypto
