#include "stash/vthi/channel.hpp"

#include <string>

#include "stash/trace/trace.hpp"

namespace stash::vthi {

using util::ErrorCode;

VthiChannel::VthiChannel(nand::FlashChip& chip,
                         std::array<std::uint8_t, 32> selection_key,
                         ChannelConfig config)
    : chip_(&chip), selection_key_(selection_key), config_(config) {}

std::vector<std::uint32_t> VthiChannel::select_from_voltages(
    std::uint32_t block, std::uint32_t page, std::uint32_t count,
    const std::vector<int>& volts) const {
  // Keyed, page-personalized permutation of the whole cell range.  A cell
  // is eligible iff it currently measures below the selection guard, i.e.
  // it is an erased-level ("non-programmed") cell.  Eligibility is stable
  // across retention and partial programming, so the decoder re-derives the
  // identical list from its own probe.
  //
  // The permutation is an incremental keyed Fisher-Yates shuffle: position i
  // costs exactly one DRBG draw, so the walk needs at most `cells` draws
  // total.  (The previous rejection walk redrew already-seen cells without
  // making progress, degenerating into a coupon-collector tail — O(n log n)
  // draws expected, unbounded worst case — on near-full pages.)  Encoder and
  // decoder share this derivation, so both sides see the identical prefix.
  const std::string personalization =
      "vt-hi/b" + std::to_string(block) + "/p" + std::to_string(page);
  crypto::Sha256Drbg drbg(selection_key_, personalization);

  const auto cells = static_cast<std::uint32_t>(volts.size());
  std::vector<std::uint32_t> order(cells);
  for (std::uint32_t i = 0; i < cells; ++i) order[i] = i;
  std::vector<std::uint32_t> chosen;
  chosen.reserve(count);
  for (std::uint32_t i = 0; i < cells && chosen.size() < count; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(drbg.below(cells - i));
    std::swap(order[i], order[j]);
    const std::uint32_t c = order[i];
    if (static_cast<double>(volts[c]) < config_.select_guard) {
      chosen.push_back(c);
    }
  }
  return chosen;
}

Result<std::vector<std::uint32_t>> VthiChannel::select_cells(
    std::uint32_t block, std::uint32_t page, std::uint32_t count) {
  const auto volts = chip_->probe_voltages(block, page);
  if (volts.empty()) {
    return Status{ErrorCode::kOutOfBounds, "bad page address"};
  }
  auto chosen = select_from_voltages(block, page, count, volts);
  if (chosen.size() < count) {
    return Status{ErrorCode::kNoSpace, "not enough eligible cells in page"};
  }
  return chosen;
}

Result<EmbedSession> VthiChannel::begin(std::uint32_t block,
                                        std::uint32_t page,
                                        std::span<const std::uint8_t> bits) {
  auto cells = select_cells(block, page, static_cast<std::uint32_t>(bits.size()));
  if (!cells.is_ok()) return cells.status();
  EmbedSession session;
  session.block = block;
  session.page = page;
  session.cells = std::move(cells).take();
  session.bits.assign(bits.begin(), bits.end());
  return session;
}

Result<int> VthiChannel::step(EmbedSession& session) {
  // One Algorithm-1 round, one read + (at most) one program: probe the
  // page, then partially program every hidden-'0' cell still below vth.
  // Returns the number of cells that were below vth at probe time; 0 means
  // the previous rounds already converged and nothing was programmed.
  const auto volts = chip_->probe_voltages(session.block, session.page);
  if (volts.empty()) {
    return Status{ErrorCode::kOutOfBounds, "bad page address"};
  }
  std::vector<std::uint32_t> pending;
  for (std::size_t i = 0; i < session.cells.size(); ++i) {
    if ((session.bits[i] & 1) == 0 &&
        static_cast<double>(volts[session.cells[i]]) < config_.vth) {
      pending.push_back(session.cells[i]);
    }
  }
  if (pending.empty()) {
    session.converged = true;
    return 0;
  }

  Status programmed;
  if (config_.use_fine_program) {
    programmed = chip_->fine_program(session.block, session.page, pending,
                                     config_.vth + config_.fine_target_delta,
                                     config_.fine_target_sigma,
                                     config_.fine_target_tail);
  } else {
    programmed = chip_->partial_program(session.block, session.page, pending);
  }
  if (!programmed.is_ok()) return programmed;
  ++session.steps_taken;
  return static_cast<int>(pending.size());
}

Result<EmbedSession> VthiChannel::embed(std::uint32_t block,
                                        std::uint32_t page,
                                        std::span<const std::uint8_t> bits) {
  trace::ScopedSpan span(trace::Stage::kVthiEmbed, trace::Op::kEmbed,
                         (static_cast<std::uint64_t>(block) << 32) | page,
                         bits.size() / 8);
  auto begun = begin(block, page, bits);
  if (!begun.is_ok()) {
    span.set_status(static_cast<std::uint8_t>(begun.status().code()));
    return begun.status();
  }
  EmbedSession session = std::move(begun).take();
  for (int s = 0; s < config_.max_pp_steps && !session.converged; ++s) {
    auto stepped = step(session);
    if (!stepped.is_ok()) {
      span.set_status(static_cast<std::uint8_t>(stepped.status().code()));
      return stepped.status();
    }
  }
  return session;
}

Result<std::vector<std::uint8_t>> VthiChannel::extract(std::uint32_t block,
                                                       std::uint32_t page,
                                                       std::uint32_t count) {
  return extract_at(block, page, count, config_.vth);
}

Result<std::vector<std::uint8_t>> VthiChannel::extract_at(std::uint32_t block,
                                                          std::uint32_t page,
                                                          std::uint32_t count,
                                                          double vth) {
  trace::ScopedSpan span(trace::Stage::kVthiExtract, trace::Op::kExtract,
                         (static_cast<std::uint64_t>(block) << 32) | page,
                         count / 8);
  // Single probe: yields the eligible-cell list and every hidden bit.
  const auto volts = chip_->probe_voltages(block, page);
  if (volts.empty()) {
    span.set_status(
        static_cast<std::uint8_t>(util::ErrorCode::kOutOfBounds));
    return Status{ErrorCode::kOutOfBounds, "bad page address"};
  }
  const auto chosen = select_from_voltages(block, page, count, volts);
  if (chosen.size() < count) {
    span.set_status(static_cast<std::uint8_t>(util::ErrorCode::kNoSpace));
    return Status{ErrorCode::kNoSpace, "not enough eligible cells in page"};
  }
  std::vector<std::uint8_t> bits(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    bits[i] = static_cast<double>(volts[chosen[i]]) >= vth ? 0 : 1;
  }
  return bits;
}

Result<std::size_t> VthiChannel::natural_above_threshold(std::uint32_t block,
                                                         std::uint32_t page) {
  const auto volts = chip_->probe_voltages(block, page);
  if (volts.empty()) {
    return Status{ErrorCode::kOutOfBounds, "bad page address"};
  }
  std::size_t count = 0;
  for (int v : volts) {
    const auto vd = static_cast<double>(v);
    if (vd >= config_.vth && vd < config_.select_guard) ++count;
  }
  return count;
}

}  // namespace stash::vthi
