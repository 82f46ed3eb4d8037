#pragma once
// Fault-injectable file I/O for the snapshot store.
//
// Every syscall a save issues — write, fsync, rename — funnels through one
// seam, FileFaultInjector, mirroring how stash::fault's FaultInjector sits
// under FlashChip.  A test (or the soak harness) can therefore crash a save
// at *any* syscall index: tear a write after N bytes, fail an fsync, fail
// the commit rename — and then prove the two-generation snapshot format
// still recovers.  Without an injector the wrappers are thin POSIX
// passthroughs.  Reads (read_file) are never injected: recovery must see
// the disk exactly as the crash left it.
//
// Torn-write semantics model a power cut mid-write: the kernel persisted
// some prefix of the buffer and the machine died.  After a torn (or failed)
// op the injector is expected to keep failing every subsequent op — the
// process is "dead"; only the bytes already on disk survive for the next
// incarnation to find.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "stash/util/status.hpp"

namespace stash::store {

using util::Result;
using util::Status;

enum class FileOp : std::uint8_t { kWrite, kFsync, kRename };

[[nodiscard]] const char* file_op_name(FileOp op) noexcept;

/// Decision for one file syscall, consulted *before* it executes.
struct FileFaultDecision {
  /// Fail the op outright (nothing reaches the disk).
  bool fail = false;
  /// Torn write: persist only the first `keep_bytes` bytes, then fail.
  /// Meaningful for kWrite only.
  bool torn = false;
  std::size_t keep_bytes = 0;

  [[nodiscard]] static FileFaultDecision none() noexcept { return {}; }
};

class FileFaultInjector {
 public:
  virtual ~FileFaultInjector() = default;
  /// Called once per store-issued syscall, in issue order.
  virtual FileFaultDecision on_file_op(FileOp op, const std::string& path) = 0;
};

/// A file being written through the injector seam.  Data lands on disk
/// exactly as a crashed kernel would leave it: full writes, a torn prefix,
/// or nothing.
class OutputFile {
 public:
  OutputFile() = default;
  ~OutputFile();
  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  /// Create/truncate `path` for writing.
  Status open(const std::string& path, FileFaultInjector* injector);
  /// One logical write == one fault-injectable syscall.  Large buffers are
  /// the caller's business to slab (SnapshotWriter slabs at 64 KiB so a
  /// torn-write sweep has truncation points inside big chunks).
  Status write(std::span<const std::uint8_t> data);
  Status fsync();
  /// Close the descriptor (no fault point; close loses nothing fsync'd).
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string path_;
  FileFaultInjector* injector_ = nullptr;
};

/// rename(2) through the injector seam — the commit point of every
/// temp-file-then-rename sequence in the store.
Status faulty_rename(const std::string& from, const std::string& to,
                     FileFaultInjector* injector);

/// fsync the directory containing `path` so a committed rename survives a
/// crash of the directory inode itself.  Routed through the injector as a
/// kFsync op.
Status fsync_parent_dir(const std::string& path, FileFaultInjector* injector);

/// Read a file, or only its first `max_bytes` bytes (the snapshot store
/// probes a generation's header without reading its body).  kNotFound when
/// it does not exist.
Result<std::vector<std::uint8_t>> read_file(
    const std::string& path,
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

/// Create `dir` (and parents) if missing.
Status ensure_dir(const std::string& dir);

[[nodiscard]] bool file_exists(const std::string& path);

/// Post-hoc corruption: flip one bit of an existing file in place (the
/// "disk rotted underneath us" fault the checksum layer must catch).
Status flip_bit(const std::string& path, std::uint64_t bit_index);

/// Truncate an existing file to `size` bytes (post-hoc torn tail).
Status truncate_file(const std::string& path, std::uint64_t size);

[[nodiscard]] Result<std::uint64_t> file_size(const std::string& path);

}  // namespace stash::store
