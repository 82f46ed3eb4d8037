#include "stash/vthi/codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "stash/crypto/chacha20.hpp"
#include "stash/crypto/sha256.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/bitvec.hpp"

namespace stash::vthi {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr std::size_t kLenBytes = 4;
constexpr std::size_t kMacBytes = 16;

std::array<std::uint8_t, 12> block_nonce(std::uint32_t block) {
  std::array<std::uint8_t, 12> nonce{'v', 't', 'h', 'i', 0, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    nonce[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block >> (8 * i));
  }
  return nonce;
}

const VthiConfig& validated(const VthiConfig& config) {
  if (const Status valid = config.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
  return config;
}

/// Hidden pages per block: every (kPageInterval + 1)-th page.
std::uint32_t hidden_page_count(std::uint32_t pages_per_block) noexcept {
  constexpr std::uint32_t stride = kPageInterval + 1;
  return (pages_per_block + stride - 1) / stride;
}

/// BCH correction capability sized for one codeword's share of the block
/// payload at the configured raw channel BER.
int pick_bch_t(const nand::Geometry& geom, const VthiConfig& config) {
  const std::size_t n = (1ull << kBchM) - 1;
  const std::size_t total_bits =
      static_cast<std::size_t>(hidden_page_count(geom.pages_per_block)) *
      config.hidden_bits_per_page;
  const std::size_t codewords = (total_bits + n - 1) / n;
  const std::size_t per_cw =
      (total_bits + codewords - 1) / std::max<std::size_t>(1, codewords);
  const int t =
      ecc::BchCode::pick_t_for_codeword(kBchM, per_cw, config.raw_ber_estimate);
  return t == 0 ? 1 : t;
}

/// HMAC-SHA256 over [block u32 LE][ciphertext]; the frame keeps the first
/// kMacBytes of it.
crypto::Digest256 frame_tag(const crypto::HidingKey& key, std::uint32_t block,
                            std::span<const std::uint8_t> ciphertext) {
  std::vector<std::uint8_t> mac_input(4);
  for (int i = 0; i < 4; ++i) {
    mac_input[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block >> (8 * i));
  }
  mac_input.insert(mac_input.end(), ciphertext.begin(), ciphertext.end());
  return crypto::hmac_sha256(key.mac_key(), mac_input);
}

bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace

VthiCodec::VthiCodec(nand::FlashChip& chip, const crypto::HidingKey& key,
                     VthiConfig config)
    : chip_(&chip),
      key_(key),
      config_(validated(config)),
      channel_(chip, key.selection_key(), config.channel),
      bch_(kBchM, pick_bch_t(chip.geometry(), config)) {}

std::vector<std::uint32_t> VthiCodec::hidden_pages() const {
  std::vector<std::uint32_t> pages;
  constexpr std::uint32_t stride = kPageInterval + 1;
  for (std::uint32_t p = 0; p < chip_->geometry().pages_per_block; p += stride) {
    pages.push_back(p);
  }
  return pages;
}

VthiCodec::Layout VthiCodec::layout() const {
  Layout lay;
  lay.pages_used = hidden_page_count(chip_->geometry().pages_per_block);
  lay.total_bits =
      static_cast<std::size_t>(lay.pages_used) * config_.hidden_bits_per_page;
  const std::size_t n = bch_.n();
  lay.codewords = static_cast<std::uint32_t>((lay.total_bits + n - 1) / n);
  lay.parity_bits =
      static_cast<std::size_t>(lay.codewords) * bch_.parity_bits();
  lay.data_bits =
      lay.total_bits > lay.parity_bits ? lay.total_bits - lay.parity_bits : 0;
  return lay;
}

std::size_t VthiCodec::capacity_bytes() const {
  const Layout lay = layout();
  const std::size_t data_bytes = lay.data_bits / 8;
  constexpr std::size_t overhead = kLenBytes + kMacBytes;
  return data_bytes > overhead ? data_bytes - overhead : 0;
}

double VthiCodec::ecc_overhead() const {
  const Layout lay = layout();
  return lay.total_bits
             ? static_cast<double>(lay.parity_bits) /
                   static_cast<double>(lay.total_bits)
             : 0.0;
}

std::vector<std::uint8_t> VthiCodec::frame_payload(
    std::uint32_t block, std::span<const std::uint8_t> payload,
    std::size_t data_bits) const {
  // Plaintext: [len u32 LE][payload]; encrypted as one ChaCha20 stream.
  std::vector<std::uint8_t> frame(kLenBytes + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
  std::copy(payload.begin(), payload.end(), frame.begin() + kLenBytes);

  const auto cipher_key = key_.cipher_key();
  const auto nonce = block_nonce(block);
  crypto::ChaCha20 cipher(cipher_key, nonce);
  cipher.apply(frame);

  const auto tag = frame_tag(key_, block, frame);
  frame.insert(frame.end(), tag.begin(), tag.begin() + kMacBytes);

  frame.resize(data_bits / 8 + ((data_bits % 8) ? 1 : 0), 0);
  return frame;
}

Result<HideReport> VthiCodec::hide(std::uint32_t block,
                                   std::span<const std::uint8_t> payload) {
  const Layout lay = layout();
  const std::size_t capacity = capacity_bytes();
  if (capacity == 0) {
    return Status{ErrorCode::kNoSpace,
                  "hidden layout too small for framing + ECC"};
  }
  if (payload.size() > capacity) {
    return Status{ErrorCode::kNoSpace,
                  "payload exceeds hidden capacity of one block"};
  }
  // Hidden bits in a still-erased page would be destroyed by the later
  // public program.
  for (std::uint32_t p : hidden_pages()) {
    if (chip_->page_state(block, p) != nand::PageState::kProgrammed) {
      return Status{ErrorCode::kInvalidArgument,
                    "hidden pages must hold public data before hiding"};
    }
  }

  // Frame, then slice into codeword payloads and BCH-encode.
  const auto frame = frame_payload(block, payload, lay.data_bits);
  auto data_bits = util::bytes_to_bits(frame);
  data_bits.resize(lay.data_bits, 0);

  std::vector<std::uint8_t> coded;
  coded.reserve(lay.total_bits);
  const std::uint32_t cw = lay.codewords;
  const std::size_t base = lay.data_bits / cw;
  const std::size_t rem = lay.data_bits % cw;
  std::size_t offset = 0;
  for (std::uint32_t c = 0; c < cw; ++c) {
    const std::size_t take = base + (c < rem ? 1 : 0);
    const std::span<const std::uint8_t> chunk(data_bits.data() + offset, take);
    const auto codeword = bch_.encode(chunk);
    coded.insert(coded.end(), codeword.begin(), codeword.end());
    offset += take;
  }
  if (coded.size() != lay.total_bits) {
    return Status{ErrorCode::kCorrupted, "internal layout mismatch"};
  }

  // Interleave coded bits round-robin across hidden pages so a page-local
  // burst spreads over every codeword.
  const auto pages = hidden_pages();
  std::vector<std::vector<std::uint8_t>> page_bits(
      pages.size(), std::vector<std::uint8_t>(config_.hidden_bits_per_page));
  for (std::size_t i = 0; i < coded.size(); ++i) {
    page_bits[i % pages.size()][i / pages.size()] = coded[i];
  }

  HideReport report;
  report.pages_used = lay.pages_used;
  report.codewords = lay.codewords;
  report.payload_bytes = payload.size();
  report.capacity_bytes = capacity;
  for (std::size_t pi = 0; pi < pages.size(); ++pi) {
    auto embedded = channel_.embed(block, pages[pi], page_bits[pi]);
    if (!embedded.is_ok()) return embedded.status();
    report.max_pp_steps_taken =
        std::max(report.max_pp_steps_taken, embedded.value().steps_taken);
    // Count residual raw errors on this page (one extra probe).
    auto readback = channel_.extract(
        block, pages[pi], config_.hidden_bits_per_page);
    if (readback.is_ok()) {
      const auto& got = readback.value();
      for (std::size_t i = 0; i < got.size(); ++i) {
        report.unconverged_cells += (got[i] ^ page_bits[pi][i]) & 1;
      }
    }
  }
  return report;
}

Result<std::vector<std::uint8_t>> VthiCodec::reveal_at(std::uint32_t block,
                                                       double vth,
                                                       int* corrected_bits) {
  if (corrected_bits) *corrected_bits = 0;
  const Layout lay = layout();
  const auto pages = hidden_pages();

  // Gather per-page hidden bits (one probe per page) and de-interleave.
  std::vector<std::vector<std::uint8_t>> page_bits;
  page_bits.reserve(pages.size());
  for (std::uint32_t p : pages) {
    auto bits = channel_.extract_at(block, p, config_.hidden_bits_per_page,
                                    vth);
    if (!bits.is_ok()) return bits.status();
    page_bits.push_back(std::move(bits).take());
  }
  std::vector<std::uint8_t> coded(lay.total_bits);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    coded[i] = page_bits[i % pages.size()][i / pages.size()];
  }

  std::vector<std::uint8_t> data_bits;
  data_bits.reserve(lay.data_bits);
  const std::uint32_t cw = lay.codewords;
  const std::size_t base = lay.data_bits / cw;
  const std::size_t rem = lay.data_bits % cw;
  std::vector<std::span<const std::uint8_t>> codewords;
  std::vector<std::size_t> data_lens;
  codewords.reserve(cw);
  data_lens.reserve(cw);
  std::size_t offset = 0;
  for (std::uint32_t c = 0; c < cw; ++c) {
    const std::size_t data_len = base + (c < rem ? 1 : 0);
    const std::size_t cw_len = data_len + bch_.parity_bits();
    codewords.emplace_back(coded.data() + offset, cw_len);
    data_lens.push_back(data_len);
    offset += cw_len;
  }
  // BCH-decode codewords [done, end) in one batched sweep (the kernel
  // scratch and syndrome tables are walked once for all of them) and
  // append their data bits.
  std::size_t done = 0;
  std::size_t decoded_bits = 0;  // coded bits of codewords [0, done)
  const auto decode_to = [&](std::size_t end) {
    const auto decoded = bch_.decode_batch(
        std::span(codewords).subspan(done, end - done));
    for (const auto& d : decoded) {
      if (d.ok) {
        if (corrected_bits) *corrected_bits += d.corrected;
        data_bits.insert(data_bits.end(), d.data_bits.begin(),
                         d.data_bits.end());
      } else {
        // Best effort: keep the raw systematic part; the MAC will tell us
        // whether it happened to survive.
        data_bits.insert(data_bits.end(), codewords[done].begin(),
                         codewords[done].begin() +
                             static_cast<long>(data_lens[done]));
      }
      decoded_bits += codewords[done].size();
      ++done;
    }
  };

  // Parse the frame: decrypt length, check bounds, verify MAC, decrypt.
  // Length first: the length field sits in the first codeword's data bits,
  // and a block that holds no frame (each non-carrier a key-only scan
  // visits) fails the bounds check almost surely, so the other codewords
  // are decoded only once it passes.  The one ecc.decode span counts the
  // coded bytes actually decoded: one codeword's for a rejected block.
  const std::size_t frame_bytes = lay.data_bits / 8;
  const auto cipher_key = key_.cipher_key();
  const auto nonce = block_nonce(block);
  std::uint32_t len = 0;
  {
    trace::ScopedSpan span(trace::Stage::kEccDecode, trace::Op::kExtract,
                           block);
    if (frame_bytes < kLenBytes + kMacBytes) {
      return Status{ErrorCode::kCorrupted, "frame too small"};
    }
    while (data_bits.size() < kLenBytes * 8) decode_to(done + 1);
    auto len_bytes = util::bits_to_bytes(
        std::span<const std::uint8_t>(data_bits.data(), kLenBytes * 8));
    crypto::ChaCha20 len_cipher(cipher_key, nonce);
    len_cipher.apply(len_bytes);
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | len_bytes[static_cast<std::size_t>(i)];
    }
    const bool len_ok =
        len <= capacity_bytes() && kLenBytes + len + kMacBytes <= frame_bytes;
    if (len_ok) decode_to(cw);
    span.set_bytes((decoded_bits + 7) / 8);
    if (!len_ok) {
      return Status{ErrorCode::kAuthFailure,
                    "hidden frame length invalid (wrong key or data loss)"};
    }
  }

  const auto bytes = util::bits_to_bytes(
      std::span<const std::uint8_t>(data_bits.data(), frame_bytes * 8));
  const std::size_t mac_off = kLenBytes + len;
  const auto tag =
      frame_tag(key_, block, std::span<const std::uint8_t>(bytes.data(), mac_off));
  const std::span<const std::uint8_t> stored(bytes.data() + mac_off,
                                             kMacBytes);
  if (!constant_time_equal(stored,
                           std::span<const std::uint8_t>(tag.data(),
                                                         kMacBytes))) {
    return Status{ErrorCode::kAuthFailure,
                  "hidden payload failed authentication"};
  }

  std::vector<std::uint8_t> plaintext(bytes.begin(),
                                      bytes.begin() + static_cast<long>(mac_off));
  crypto::ChaCha20 cipher(cipher_key, nonce);
  cipher.apply(plaintext);
  return std::vector<std::uint8_t>(plaintext.begin() + kLenBytes,
                                   plaintext.end());
}

namespace {

/// Failures a shifted re-read can plausibly fix: decode/authentication
/// errors from marginal or glitched cells, and selection shortfalls from a
/// transiently jogged probe.  kOutOfBounds (bad address, dark device) is
/// not retryable.
bool read_retryable(ErrorCode code) noexcept {
  return code == ErrorCode::kUncorrectable || code == ErrorCode::kAuthFailure ||
         code == ErrorCode::kCorrupted || code == ErrorCode::kNoSpace;
}

}  // namespace

Result<std::vector<std::uint8_t>> VthiCodec::reveal(std::uint32_t block,
                                                    int* corrected_bits) {
  auto result = reveal_at(block, config_.channel.vth, corrected_bits);
  if (result.is_ok() || !read_retryable(result.status().code())) {
    return result;
  }

  // Read-retry ladder: +s, -s, +2s, -2s, ... around the nominal reference,
  // doubling after each +/- pair (exponential widening).  Every rung does a
  // fresh set of probes, so transient glitches clear and drifted
  // populations get re-sliced at a friendlier reference.
  double magnitude = kReadRetryShift;
  for (int attempt = 1; attempt <= kMaxReadRetries; ++attempt) {
    const double shift = (attempt % 2 == 1) ? magnitude : -magnitude;
    if (attempt % 2 == 0) magnitude *= 2.0;
    const double vth =
        std::clamp(config_.channel.vth + shift, 1.0,
                   kSelectGuard - 1.0);
    auto retried = reveal_at(block, vth, corrected_bits);
    if (retried.is_ok()) return retried;
    if (!read_retryable(retried.status().code())) return retried;
    result = std::move(retried);
  }
  return result;
}

Status VthiCodec::erase_hidden(std::uint32_t block) {
  return chip_->erase_block(block);
}

Result<HideReport> VthiCodec::refresh(std::uint32_t block) {
  auto payload = reveal(block);
  if (!payload.is_ok()) return payload.status();
  // hide() regenerates the identical frame and coded bits (all derivation
  // is keyed and deterministic per block), so the embed pass only tops up
  // cells that leaked below the threshold.
  return hide(block, payload.value());
}

Result<std::uint32_t> VthiCodec::recommended_bits_per_page(
    std::uint32_t block, double safety_factor) {
  std::size_t min_census = SIZE_MAX;
  for (std::uint32_t p : hidden_pages()) {
    auto census = channel_.natural_above_threshold(block, p);
    if (!census.is_ok()) return census.status();
    min_census = std::min(min_census, census.value());
  }
  if (min_census == SIZE_MAX) {
    return Status{util::ErrorCode::kInvalidArgument, "block has no hidden pages"};
  }
  return static_cast<std::uint32_t>(static_cast<double>(min_census) *
                                    safety_factor);
}

}  // namespace stash::vthi
