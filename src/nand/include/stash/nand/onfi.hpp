#pragma once
// ONFI-style command interface over FlashChip.
//
// The paper's key practicality claim (§1, §5) is that VT-HI's partial
// programming "requires only standard flash interface commands (i.e.,
// PROGRAM and RESET)": a normal PROGRAM operation is issued and then
// aborted midway with RESET, leaving the selected cells partially charged.
// This facade models that command sequence explicitly — command latch,
// address cycles, data cycles, busy timing, the status register — so the
// hiding algorithms can be driven exactly the way host software would
// drive a raw NAND package through an ONFI bus.
//
// Supported command set (ONFI 1.0 subset + the vendor read-retry command
// every modern chip implements, §5.2):
//   FFh             RESET            (aborts an in-flight program -> PP)
//   90h             READ ID
//   70h             READ STATUS
//   00h..30h        READ PAGE
//   80h..10h        PROGRAM PAGE
//   60h..D0h        ERASE BLOCK
//   EFh (vendor)    SET READ REFERENCE (shifts the read threshold;
//                   feature address 0x89, used by VT-HI's decoder)

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stash/nand/chip.hpp"

namespace stash::nand {

namespace onfi {
constexpr std::uint8_t kReset = 0xFF;
constexpr std::uint8_t kReadId = 0x90;
constexpr std::uint8_t kReadStatus = 0x70;
constexpr std::uint8_t kRead = 0x00;
constexpr std::uint8_t kReadConfirm = 0x30;
constexpr std::uint8_t kProgram = 0x80;
constexpr std::uint8_t kProgramConfirm = 0x10;
constexpr std::uint8_t kErase = 0x60;
constexpr std::uint8_t kEraseConfirm = 0xD0;
constexpr std::uint8_t kSetFeatures = 0xEF;
/// Feature address for the vendor read-reference-shift command.
constexpr std::uint8_t kFeatureReadReference = 0x89;

// Status-register bits (ONFI 1.0).
constexpr std::uint8_t kStatusFail = 1u << 0;
constexpr std::uint8_t kStatusReady = 1u << 6;
constexpr std::uint8_t kStatusWriteProtectN = 1u << 7;
}  // namespace onfi

/// A NAND package behind an ONFI-ish bus.  Data moves as bytes; each byte
/// carries eight cells' logical bits, MSB first.
class OnfiDevice {
 public:
  explicit OnfiDevice(FlashChip& chip);

  // ---- Bus cycles ---------------------------------------------------------
  void cmd(std::uint8_t opcode);
  void addr(std::uint8_t byte);
  void data_in(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::vector<std::uint8_t> data_out(std::size_t nbytes);

  /// Let the in-flight operation run to completion (tPROG/tBERS elapse).
  void wait_ready();

  /// Abort an in-flight PROGRAM after `fraction` of tPROG has elapsed —
  /// the paper's partial-programming primitive.  A larger fraction leaves
  /// more charge; the chip model applies one coarse PP step scaled by it.
  /// No-op (plain reset) when nothing is in flight.
  void reset_after(double fraction);

  [[nodiscard]] std::uint8_t status() const noexcept { return status_; }
  [[nodiscard]] std::array<std::uint8_t, 5> id() const noexcept;

  /// Human-readable diagnostic for the most recent protocol failure (bad
  /// opcode, address/data cycle outside its phase).  Empty when the last
  /// command sequence was well-formed; cleared when a new sequence starts.
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }

  /// Bytes per page on the bus (= cells / 8).
  [[nodiscard]] std::size_t page_bytes() const noexcept {
    return chip_->geometry().cells_per_page / 8;
  }

  // ---- Convenience wrappers (the sequences host software would issue) ----
  // Fallible operations follow the library-wide Status/Result convention:
  // a FAIL status-register bit (or a malformed command sequence) surfaces
  // as a non-OK Status carrying the diagnostic from last_error().
  [[nodiscard]] std::vector<std::uint8_t> read_page(std::uint32_t block,
                                                    std::uint32_t page);
  util::Status program_page(std::uint32_t block, std::uint32_t page,
                            std::span<const std::uint8_t> bytes);
  util::Status erase_block(std::uint32_t block);
  /// PROGRAM ... RESET-midway: partially program the 0-bits of `bytes`.
  util::Status partial_program_page(std::uint32_t block, std::uint32_t page,
                                    std::span<const std::uint8_t> bytes,
                                    double fraction = 0.5);
  /// Vendor feature write: shift the read reference for subsequent READs.
  void set_read_reference(double vref);

 private:
  enum class State : std::uint8_t {
    kIdle,
    kReadAddr,
    kReadData,
    kProgramAddr,
    kProgramData,
    kProgramBusy,     // tPROG running; RESET here = partial program
    kEraseAddr,
    kFeatureAddr,
    kFeatureData,
  };

  struct RowAddress {
    std::uint32_t block = 0;
    std::uint32_t page = 0;
  };

  [[nodiscard]] bool decode_row(RowAddress& out) const;
  /// Status-register verdict of the sequence just issued: OK when the FAIL
  /// bit is clear, otherwise `code` with last_error() (or `fallback`).
  [[nodiscard]] util::Status command_status(util::ErrorCode code,
                                            const char* fallback) const;
  void set_ready(bool ready) noexcept;
  void set_fail(bool fail) noexcept;
  /// set_fail(true) plus a diagnostic message in last_error() — for
  /// protocol errors as opposed to chip-reported failures.
  void fail_command(std::string message) noexcept;

  FlashChip* chip_;
  State state_ = State::kIdle;
  std::uint8_t status_ = onfi::kStatusReady | onfi::kStatusWriteProtectN;
  std::vector<std::uint8_t> addr_bytes_;
  std::vector<std::uint8_t> data_buffer_;   // bytes from/for the bus
  std::vector<std::uint8_t> bit_buffer_;    // unpacked cell bits
  std::vector<std::uint8_t> read_buffer_;
  std::size_t read_pos_ = 0;
  RowAddress armed_row_;
  double read_vref_;
  std::uint8_t feature_addr_ = 0;
  std::string last_error_;
};

}  // namespace stash::nand
