#include "stash/vthi/codec.hpp"

#include <algorithm>
#include <cstring>

#include "stash/crypto/chacha20.hpp"
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
      config_(config),
      channel_(chip, key.selection_key(), config.channel) {
  if (const Status valid = config_.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
  if (config_.bch_m > 0) {
    int t = config_.bch_t;
    if (t == 0) {
      // Size t for one codeword's share of the block payload.
      const std::size_t n = (1ull << config_.bch_m) - 1;
      const Layout lay = [&] {
        Layout l;
        const auto& geom = chip_->geometry();
        const std::uint32_t stride = config_.page_interval + 1;
        l.pages_used = (geom.pages_per_block + stride - 1) / stride;
        l.total_bits = static_cast<std::size_t>(l.pages_used) *
                       config_.hidden_bits_per_page;
        return l;
      }();
      const std::size_t codewords = (lay.total_bits + n - 1) / n;
      const std::size_t per_cw =
          (lay.total_bits + codewords - 1) / std::max<std::size_t>(1, codewords);
      t = ecc::BchCode::pick_t_for_codeword(config_.bch_m, per_cw,
                                            config_.raw_ber_estimate);
      if (t == 0) t = 1;
    }
    bch_ = std::make_unique<ecc::BchCode>(config_.bch_m, t);
  }
}

std::vector<std::uint32_t> VthiCodec::hidden_pages() const {
  std::vector<std::uint32_t> pages;
  const std::uint32_t stride = config_.page_interval + 1;
  for (std::uint32_t p = 0; p < chip_->geometry().pages_per_block; p += stride) {
    pages.push_back(p);
  }
  return pages;
}

VthiCodec::Layout VthiCodec::layout() const {
  Layout lay;
  const std::uint32_t stride = config_.page_interval + 1;
  lay.pages_used = (chip_->geometry().pages_per_block + stride - 1) / stride;
  lay.total_bits =
      static_cast<std::size_t>(lay.pages_used) * config_.hidden_bits_per_page;
  if (bch_) {
    const std::size_t n = bch_->n();
    lay.codewords = static_cast<std::uint32_t>((lay.total_bits + n - 1) / n);
    lay.parity_bits = static_cast<std::size_t>(lay.codewords) *
                      bch_->parity_bits();
  } else {
    lay.codewords = 0;
    lay.parity_bits = 0;
  }
  lay.data_bits =
      lay.total_bits > lay.parity_bits ? lay.total_bits - lay.parity_bits : 0;
  return lay;
}

std::size_t VthiCodec::capacity_bytes() const {
  const Layout lay = layout();
  const std::size_t data_bytes = lay.data_bits / 8;
  const std::size_t overhead = kLenBytes + (config_.with_mac ? kMacBytes : 0);
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

  if (config_.with_mac) {
    std::vector<std::uint8_t> mac_input(4);
    for (int i = 0; i < 4; ++i) {
      mac_input[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(block >> (8 * i));
    }
    mac_input.insert(mac_input.end(), frame.begin(), frame.end());
    const auto tag = crypto::hmac_sha256(key_.mac_key(), mac_input);
    frame.insert(frame.end(), tag.begin(), tag.begin() + kMacBytes);
  }

  frame.resize(data_bits / 8 + ((data_bits % 8) ? 1 : 0), 0);
  return frame;
}

bool HideJournal::matches(std::uint32_t for_block,
                          std::span<const std::uint8_t> payload) const {
  return block == for_block && payload_bytes == payload.size() &&
         payload_digest == crypto::Sha256::hash(payload);
}

Result<HideReport> VthiCodec::hide(std::uint32_t block,
                                   std::span<const std::uint8_t> payload) {
  return hide(block, payload, nullptr);
}

Result<HideReport> VthiCodec::hide(std::uint32_t block,
                                   std::span<const std::uint8_t> payload,
                                   HideJournal* journal) {
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
  if (config_.require_programmed_pages) {
    for (std::uint32_t p : hidden_pages()) {
      if (chip_->page_state(block, p) != nand::PageState::kProgrammed) {
        return Status{ErrorCode::kInvalidArgument,
                      "hidden pages must hold public data before hiding"};
      }
    }
  }

  // Frame, then slice into codeword payloads and BCH-encode.
  const auto frame = frame_payload(block, payload, lay.data_bits);
  auto data_bits = util::bytes_to_bits(frame);
  data_bits.resize(lay.data_bits, 0);

  std::vector<std::uint8_t> coded;
  coded.reserve(lay.total_bits);
  if (bch_) {
    const std::uint32_t cw = lay.codewords;
    const std::size_t base = lay.data_bits / cw;
    const std::size_t rem = lay.data_bits % cw;
    std::size_t offset = 0;
    for (std::uint32_t c = 0; c < cw; ++c) {
      const std::size_t take = base + (c < rem ? 1 : 0);
      const std::span<const std::uint8_t> chunk(data_bits.data() + offset, take);
      const auto codeword = bch_->encode(chunk);
      coded.insert(coded.end(), codeword.begin(), codeword.end());
      offset += take;
    }
  } else {
    coded = data_bits;
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

  // Resume an interrupted session when the journal matches; pages whose
  // embed loop completed are skipped (their cells already sit above vth).
  // A stale or foreign journal is reinitialized — restart, not resume.
  std::size_t start_page = 0;
  if (journal) {
    if (journal->matches(block, payload) && !journal->complete) {
      start_page = std::min<std::size_t>(journal->pages_completed, pages.size());
    } else {
      *journal = HideJournal{};
      journal->block = block;
      journal->payload_bytes = payload.size();
      journal->payload_digest = crypto::Sha256::hash(payload);
    }
  }

  HideReport report;
  report.pages_used = lay.pages_used;
  report.codewords = lay.codewords;
  report.payload_bytes = payload.size();
  report.capacity_bytes = capacity;
  for (std::size_t pi = start_page; pi < pages.size(); ++pi) {
    // Inline Algorithm-1 loop (rather than channel_.embed) so the journal
    // advances before every step: a power cut between any two bus
    // operations leaves a journal that points at the exact page to redo.
    auto begun = channel_.begin(block, pages[pi], page_bits[pi]);
    if (!begun.is_ok()) return begun.status();
    EmbedSession session = std::move(begun).take();
    for (int s = 0; s < config_.channel.max_pp_steps && !session.converged;
         ++s) {
      if (journal) {
        journal->pages_completed = static_cast<std::uint32_t>(pi);
        journal->steps_in_current_page = s;
      }
      auto stepped = channel_.step(session);
      if (!stepped.is_ok()) return stepped.status();
    }
    if (journal) {
      journal->pages_completed = static_cast<std::uint32_t>(pi) + 1;
      journal->steps_in_current_page = 0;
    }
    report.max_pp_steps_taken =
        std::max(report.max_pp_steps_taken, session.steps_taken);
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
  if (journal) journal->complete = true;
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

  // BCH-decode the block's codewords in one batched sweep: the kernel
  // scratch and syndrome tables are walked once for all of them.
  std::vector<std::uint8_t> data_bits;
  data_bits.reserve(lay.data_bits);
  bool uncorrectable = false;
  if (bch_) {
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
      const std::size_t cw_len = data_len + bch_->parity_bits();
      codewords.emplace_back(coded.data() + offset, cw_len);
      data_lens.push_back(data_len);
      offset += cw_len;
    }
    std::vector<ecc::BchCode::DecodeResult> decoded;
    {
      trace::ScopedSpan span(trace::Stage::kEccDecode, trace::Op::kExtract,
                             block, (offset + 7) / 8);
      decoded = bch_->decode_batch(codewords);
    }
    for (std::uint32_t c = 0; c < cw; ++c) {
      if (decoded[c].ok) {
        if (corrected_bits) *corrected_bits += decoded[c].corrected;
        data_bits.insert(data_bits.end(), decoded[c].data_bits.begin(),
                         decoded[c].data_bits.end());
      } else {
        // Best effort: keep the raw systematic part; the MAC will tell us
        // whether it happened to survive.
        uncorrectable = true;
        data_bits.insert(data_bits.end(), codewords[c].begin(),
                         codewords[c].begin() +
                             static_cast<long>(data_lens[c]));
      }
    }
  } else {
    data_bits = coded;
  }

  const auto bytes = util::bits_to_bytes(
      std::span<const std::uint8_t>(data_bits.data(),
                                    data_bits.size() - data_bits.size() % 8));

  // Parse the frame: decrypt length, check bounds, verify MAC, decrypt.
  if (bytes.size() < kLenBytes + (config_.with_mac ? kMacBytes : 0)) {
    return Status{ErrorCode::kCorrupted, "frame too small"};
  }
  const auto cipher_key = key_.cipher_key();
  const auto nonce = block_nonce(block);

  std::vector<std::uint8_t> len_bytes(bytes.begin(), bytes.begin() + kLenBytes);
  crypto::ChaCha20 len_cipher(cipher_key, nonce);
  len_cipher.apply(len_bytes);
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | len_bytes[static_cast<std::size_t>(i)];
  }
  const std::size_t mac_off = kLenBytes + len;
  if (len > capacity_bytes() ||
      mac_off + (config_.with_mac ? kMacBytes : 0) > bytes.size()) {
    return Status{config_.with_mac ? ErrorCode::kAuthFailure
                                   : ErrorCode::kCorrupted,
                  "hidden frame length invalid (wrong key or data loss)"};
  }

  if (config_.with_mac) {
    std::vector<std::uint8_t> mac_input(4);
    for (int i = 0; i < 4; ++i) {
      mac_input[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(block >> (8 * i));
    }
    mac_input.insert(mac_input.end(), bytes.begin(),
                     bytes.begin() + static_cast<long>(mac_off));
    const auto tag = crypto::hmac_sha256(key_.mac_key(), mac_input);
    const std::span<const std::uint8_t> stored(bytes.data() + mac_off,
                                               kMacBytes);
    if (!constant_time_equal(stored,
                             std::span<const std::uint8_t>(tag.data(),
                                                           kMacBytes))) {
      return Status{ErrorCode::kAuthFailure,
                    "hidden payload failed authentication"};
    }
  } else if (uncorrectable) {
    return Status{ErrorCode::kUncorrectable,
                  "hidden payload exceeded ECC correction budget"};
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
  if (result.is_ok() || config_.max_read_retries <= 0 ||
      !read_retryable(result.status().code())) {
    return result;
  }

  // Read-retry ladder: +s, -s, +2s, -2s, ... around the nominal reference,
  // doubling after each +/- pair (exponential widening).  Every rung does a
  // fresh set of probes, so transient glitches clear and drifted
  // populations get re-sliced at a friendlier reference.
  double magnitude = config_.read_retry_shift;
  for (int attempt = 1; attempt <= config_.max_read_retries; ++attempt) {
    const double shift = (attempt % 2 == 1) ? magnitude : -magnitude;
    if (attempt % 2 == 0) magnitude *= 2.0;
    const double vth =
        std::clamp(config_.channel.vth + shift, 1.0,
                   config_.channel.select_guard - 1.0);
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
