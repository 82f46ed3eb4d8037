#include "stash/store/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace stash::store {

using util::ErrorCode;

namespace {

Status errno_status(ErrorCode code, const std::string& what,
                    const std::string& path) {
  return {code, what + " '" + path + "': " + std::strerror(errno)};
}

/// Write all of `data` with retry on short writes/EINTR (the real kernel
/// contract; injected tears are modeled above this, not via random
/// short-write returns).
Status write_fully(int fd, const std::uint8_t* data, std::size_t size,
                   const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status(ErrorCode::kCorrupted, "write failed", path);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

const char* file_op_name(FileOp op) noexcept {
  switch (op) {
    case FileOp::kWrite: return "write";
    case FileOp::kFsync: return "fsync";
    case FileOp::kRename: return "rename";
  }
  return "?";
}

OutputFile::~OutputFile() { close(); }

Status OutputFile::open(const std::string& path, FileFaultInjector* injector) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return errno_status(ErrorCode::kInvalidArgument, "cannot open", path);
  }
  path_ = path;
  injector_ = injector;
  return Status::ok();
}

Status OutputFile::write(std::span<const std::uint8_t> data) {
  if (fd_ < 0) return {ErrorCode::kInvalidArgument, "write on closed file"};
  if (injector_) {
    const FileFaultDecision d = injector_->on_file_op(FileOp::kWrite, path_);
    if (d.torn) {
      // Persist the surviving prefix, then report the power cut.  The bytes
      // really land in the file: the next process incarnation must see
      // exactly what a torn write leaves behind.
      const std::size_t keep = std::min(d.keep_bytes, data.size());
      if (keep > 0) {
        STASH_RETURN_IF_ERROR(write_fully(fd_, data.data(), keep, path_));
      }
      return {ErrorCode::kPowerLoss,
              "injected torn write on '" + path_ + "'"};
    }
    if (d.fail) {
      return {ErrorCode::kPowerLoss,
              "injected write failure on '" + path_ + "'"};
    }
  }
  return write_fully(fd_, data.data(), data.size(), path_);
}

Status OutputFile::fsync() {
  if (fd_ < 0) return {ErrorCode::kInvalidArgument, "fsync on closed file"};
  if (injector_) {
    const FileFaultDecision d = injector_->on_file_op(FileOp::kFsync, path_);
    if (d.fail || d.torn) {
      return {ErrorCode::kPowerLoss,
              "injected fsync failure on '" + path_ + "'"};
    }
  }
  if (::fsync(fd_) != 0) {
    return errno_status(ErrorCode::kCorrupted, "fsync failed", path_);
  }
  return Status::ok();
}

void OutputFile::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status faulty_rename(const std::string& from, const std::string& to,
                     FileFaultInjector* injector) {
  if (injector) {
    const FileFaultDecision d = injector->on_file_op(FileOp::kRename, to);
    if (d.fail || d.torn) {
      return {ErrorCode::kPowerLoss, "injected rename failure to '" + to + "'"};
    }
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return errno_status(ErrorCode::kCorrupted, "rename failed", to);
  }
  return Status::ok();
}

Status fsync_parent_dir(const std::string& path, FileFaultInjector* injector) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  if (injector) {
    const FileFaultDecision d = injector->on_file_op(FileOp::kFsync, dir);
    if (d.fail || d.torn) {
      return {ErrorCode::kPowerLoss,
              "injected directory fsync failure on '" + dir + "'"};
    }
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return errno_status(ErrorCode::kCorrupted, "cannot open directory", dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return errno_status(ErrorCode::kCorrupted, "directory fsync failed", dir);
  }
  return Status::ok();
}

Result<std::vector<std::uint8_t>> read_file(const std::string& path,
                                            std::size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status{ErrorCode::kNotFound, "no such file '" + path + "'"};
    }
    return errno_status(ErrorCode::kInvalidArgument, "cannot open", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status =
        errno_status(ErrorCode::kCorrupted, "cannot stat", path);
    ::close(fd);
    return status;
  }
  std::vector<std::uint8_t> out(
      std::min(static_cast<std::size_t>(st.st_size), max_bytes));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          errno_status(ErrorCode::kCorrupted, "read failed", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // the file shrank since fstat
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(done);
  return out;
}

Status ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return {ErrorCode::kInvalidArgument,
            "cannot create directory '" + dir + "': " + ec.message()};
  }
  return Status::ok();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

Status flip_bit(const std::string& path, std::uint64_t bit_index) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return errno_status(ErrorCode::kNotFound, "cannot open", path);
  }
  const auto offset = static_cast<off_t>(bit_index / 8);
  std::uint8_t byte = 0;
  if (::pread(fd, &byte, 1, offset) != 1) {
    ::close(fd);
    return {ErrorCode::kOutOfBounds, "bit index beyond file size"};
  }
  byte ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
  const bool ok = ::pwrite(fd, &byte, 1, offset) == 1;
  ::close(fd);
  if (!ok) {
    return errno_status(ErrorCode::kCorrupted, "pwrite failed", path);
  }
  return Status::ok();
}

Status truncate_file(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return errno_status(ErrorCode::kInvalidArgument, "cannot truncate", path);
  }
  return Status::ok();
}

Result<std::uint64_t> file_size(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return Status{ErrorCode::kNotFound, "no such file '" + path + "'"};
  }
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace stash::store
