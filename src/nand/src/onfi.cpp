#include "stash/nand/onfi.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stash/util/bitvec.hpp"

namespace stash::nand {

using namespace onfi;

OnfiDevice::OnfiDevice(FlashChip& chip)
    : chip_(&chip), read_vref_(chip.noise().public_read_vref) {}

void OnfiDevice::set_ready(bool ready) noexcept {
  if (ready) {
    status_ |= kStatusReady;
  } else {
    status_ &= static_cast<std::uint8_t>(~kStatusReady);
  }
}

void OnfiDevice::set_fail(bool fail) noexcept {
  if (fail) {
    status_ |= kStatusFail;
  } else {
    status_ &= static_cast<std::uint8_t>(~kStatusFail);
    last_error_.clear();
  }
}

void OnfiDevice::fail_command(std::string message) noexcept {
  set_fail(true);
  last_error_ = std::move(message);
}

std::array<std::uint8_t, 5> OnfiDevice::id() const noexcept {
  // Manufacturer/device bytes derived from the chip serial: stable per
  // chip, distinct across chips (enough for READ ID semantics).
  const std::uint64_t h = util::splitmix64(chip_->serial());
  return {0x98, static_cast<std::uint8_t>(h), static_cast<std::uint8_t>(h >> 8),
          static_cast<std::uint8_t>(h >> 16),
          static_cast<std::uint8_t>(h >> 24)};
}

bool OnfiDevice::decode_row(RowAddress& out) const {
  // 5 address cycles: 2 column (must be zero: whole-page access only),
  // 3 row (page number within the chip, little-endian).
  if (addr_bytes_.size() != 5) return false;
  if (addr_bytes_[0] != 0 || addr_bytes_[1] != 0) return false;
  const std::uint32_t row = static_cast<std::uint32_t>(addr_bytes_[2]) |
                            (static_cast<std::uint32_t>(addr_bytes_[3]) << 8) |
                            (static_cast<std::uint32_t>(addr_bytes_[4]) << 16);
  const auto& geom = chip_->geometry();
  out.block = row / geom.pages_per_block;
  out.page = row % geom.pages_per_block;
  return out.block < geom.blocks;
}

void OnfiDevice::cmd(std::uint8_t opcode) {
  switch (opcode) {
    case kReset:
      reset_after(0.5);
      return;
    case kReadStatus:
      return;  // status() is always observable
    case kReadId: {
      const auto chip_id = id();
      read_buffer_.assign(chip_id.begin(), chip_id.end());
      read_pos_ = 0;
      state_ = State::kIdle;
      return;
    }
    case kRead:
      addr_bytes_.clear();
      state_ = State::kReadAddr;
      set_fail(false);
      return;
    case kReadConfirm: {
      RowAddress row;
      if (state_ != State::kReadAddr || !decode_row(row)) {
        set_fail(true);
        state_ = State::kIdle;
        return;
      }
      read_buffer_ = util::bits_to_bytes(
          chip_->read_page(row.block, row.page, read_vref_));
      read_pos_ = 0;
      state_ = State::kReadData;
      return;
    }
    case kProgram:
      addr_bytes_.clear();
      data_buffer_.clear();
      state_ = State::kProgramAddr;
      set_fail(false);
      return;
    case kProgramConfirm: {
      RowAddress row;
      if ((state_ != State::kProgramData && state_ != State::kProgramAddr) ||
          !decode_row(row)) {
        set_fail(true);
        state_ = State::kIdle;
        return;
      }
      armed_row_ = row;
      // Bytes past the page are dropped; a short transfer leaves the
      // remaining cells erased ('1').
      bit_buffer_ = util::bytes_to_bits(data_buffer_);
      bit_buffer_.resize(chip_->geometry().cells_per_page, 1);
      state_ = State::kProgramBusy;
      set_ready(false);
      return;
    }
    case kErase:
      addr_bytes_.clear();
      state_ = State::kEraseAddr;
      set_fail(false);
      return;
    case kEraseConfirm: {
      // Erase uses 3 row-address cycles only.
      if (state_ != State::kEraseAddr || addr_bytes_.size() != 3) {
        set_fail(true);
        state_ = State::kIdle;
        return;
      }
      const std::uint32_t row =
          static_cast<std::uint32_t>(addr_bytes_[0]) |
          (static_cast<std::uint32_t>(addr_bytes_[1]) << 8) |
          (static_cast<std::uint32_t>(addr_bytes_[2]) << 16);
      set_fail(!chip_->erase_block(row / chip_->geometry().pages_per_block)
                    .is_ok());
      state_ = State::kIdle;
      return;
    }
    case kSetFeatures:
      state_ = State::kFeatureAddr;
      return;
    default: {
      char msg[48];
      std::snprintf(msg, sizeof(msg), "unknown opcode 0x%02X",
                    static_cast<unsigned>(opcode));
      fail_command(msg);
      state_ = State::kIdle;
      return;
    }
  }
}

void OnfiDevice::addr(std::uint8_t byte) {
  switch (state_) {
    case State::kReadAddr:
    case State::kProgramAddr:
    case State::kEraseAddr:
      addr_bytes_.push_back(byte);
      if (state_ == State::kProgramAddr && addr_bytes_.size() == 5) {
        state_ = State::kProgramData;
      }
      return;
    case State::kFeatureAddr:
      feature_addr_ = byte;
      state_ = State::kFeatureData;
      return;
    default:
      fail_command("address cycle outside an address phase");
      return;
  }
}

void OnfiDevice::data_in(std::span<const std::uint8_t> bytes) {
  switch (state_) {
    case State::kProgramData:
      data_buffer_.insert(data_buffer_.end(), bytes.begin(), bytes.end());
      return;
    case State::kFeatureData:
      if (feature_addr_ == kFeatureReadReference && !bytes.empty()) {
        // One parameter byte: the new reference in normalized units.
        read_vref_ = static_cast<double>(bytes[0]);
      }
      state_ = State::kIdle;
      return;
    default:
      fail_command("data cycle outside a data phase");
      return;
  }
}

std::vector<std::uint8_t> OnfiDevice::data_out(std::size_t nbytes) {
  std::vector<std::uint8_t> out;
  out.reserve(nbytes);
  while (out.size() < nbytes && read_pos_ < read_buffer_.size()) {
    out.push_back(read_buffer_[read_pos_++]);
  }
  return out;
}

void OnfiDevice::wait_ready() {
  if (state_ == State::kProgramBusy) {
    set_fail(!chip_->program_page(armed_row_.block, armed_row_.page,
                                  bit_buffer_)
                  .is_ok());
  }
  state_ = State::kIdle;
  set_ready(true);
}

void OnfiDevice::reset_after(double fraction) {
  if (state_ == State::kProgramBusy) {
    // The paper's primitive: PROGRAM aborted midway leaves partial charge
    // on the cells that were being driven toward '0'.
    std::vector<std::uint32_t> cells;
    for (std::uint32_t c = 0; c < bit_buffer_.size(); ++c) {
      if ((bit_buffer_[c] & 1) == 0) cells.push_back(c);
    }
    const double scale = std::clamp(fraction / 0.5, 0.1, 2.0);
    set_fail(!chip_->partial_program(armed_row_.block, armed_row_.page, cells,
                                     scale)
                  .is_ok());
  } else {
    set_fail(false);
  }
  state_ = State::kIdle;
  set_ready(true);
}

// ---- Convenience sequences ---------------------------------------------------

std::vector<std::uint8_t> OnfiDevice::read_page(std::uint32_t block,
                                                std::uint32_t page) {
  const std::uint32_t row = block * chip_->geometry().pages_per_block + page;
  cmd(kRead);
  addr(0);
  addr(0);
  addr(static_cast<std::uint8_t>(row));
  addr(static_cast<std::uint8_t>(row >> 8));
  addr(static_cast<std::uint8_t>(row >> 16));
  cmd(kReadConfirm);
  return data_out(page_bytes());
}

util::Status OnfiDevice::command_status(util::ErrorCode code,
                                        const char* fallback) const {
  if ((status_ & kStatusFail) == 0) return util::Status::ok();
  return util::Status{code, last_error_.empty() ? fallback : last_error_};
}

util::Status OnfiDevice::program_page(std::uint32_t block, std::uint32_t page,
                                      std::span<const std::uint8_t> bytes) {
  const std::uint32_t row = block * chip_->geometry().pages_per_block + page;
  cmd(kProgram);
  addr(0);
  addr(0);
  addr(static_cast<std::uint8_t>(row));
  addr(static_cast<std::uint8_t>(row >> 8));
  addr(static_cast<std::uint8_t>(row >> 16));
  data_in(bytes);
  cmd(kProgramConfirm);
  wait_ready();
  return command_status(util::ErrorCode::kProgramFail, "PROGRAM failed");
}

util::Status OnfiDevice::erase_block(std::uint32_t block) {
  const std::uint32_t row = block * chip_->geometry().pages_per_block;
  cmd(kErase);
  addr(static_cast<std::uint8_t>(row));
  addr(static_cast<std::uint8_t>(row >> 8));
  addr(static_cast<std::uint8_t>(row >> 16));
  cmd(kEraseConfirm);
  return command_status(util::ErrorCode::kEraseFail, "ERASE failed");
}

util::Status OnfiDevice::partial_program_page(
    std::uint32_t block, std::uint32_t page,
    std::span<const std::uint8_t> bytes, double fraction) {
  const std::uint32_t row = block * chip_->geometry().pages_per_block + page;
  cmd(kProgram);
  addr(0);
  addr(0);
  addr(static_cast<std::uint8_t>(row));
  addr(static_cast<std::uint8_t>(row >> 8));
  addr(static_cast<std::uint8_t>(row >> 16));
  data_in(bytes);
  cmd(kProgramConfirm);
  reset_after(fraction);
  return command_status(util::ErrorCode::kProgramFail,
                        "partial PROGRAM failed");
}

void OnfiDevice::set_read_reference(double vref) {
  cmd(kSetFeatures);
  addr(kFeatureReadReference);
  const std::uint8_t param = static_cast<std::uint8_t>(
      std::clamp(vref, 0.0, 255.0));
  data_in(std::span<const std::uint8_t>(&param, 1));
}

}  // namespace stash::nand
