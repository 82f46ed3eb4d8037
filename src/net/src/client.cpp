#include "stash/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>


namespace stash::net {

using util::ErrorCode;

namespace {

Status errno_status(const std::string& what) {
  return Status{ErrorCode::kInvalidArgument,
                what + ": " + std::strerror(errno)};
}

/// Rebuild a util::Status out of a response's wire fields.
Status wire_status(const Response& resp) {
  if (resp.status == 0) return Status::ok();
  auto code = static_cast<ErrorCode>(resp.status);
  if (resp.status > static_cast<std::uint8_t>(ErrorCode::kPowerLoss)) {
    code = ErrorCode::kCorrupted;
  }
  return Status{code, resp.message};
}

}  // namespace

Client::~Client() { close(); }

Status Client::connect(const std::string& host, std::uint16_t port) {
  if (fd_ >= 0) {
    return Status{ErrorCode::kUnsupported, "client already connected"};
  }
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, numeric.c_str(), &sa.sin_addr) != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "host must be a numeric IPv4 address: " + host};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    const Status st = errno_status("connect");
    ::close(fd);
    return st;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  assembler_ = FrameAssembler();
  if (const Status st = handshake(); !st.is_ok()) {
    close();
    return st;
  }
  return Status::ok();
}

Status Client::handshake() {
  Request req;
  req.op = OpCode::kHello;
  encode_hello(Hello{}, req.data);
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  // A refusal still carries the server's hello; surface the clean
  // kUnsupported verdict, not a decode error.
  STASH_RETURN_IF_ERROR(wire_status(resp));
  Hello theirs;
  return decode_hello(resp.data, theirs);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::send(Request& req) {
  if (fd_ < 0) return Status{ErrorCode::kUnsupported, "not connected"};
  if (req.id == 0) req.id = next_id_++;
  txbuf_.clear();
  encode_request(req, txbuf_);
  std::size_t off = 0;
  while (off < txbuf_.size()) {
    const ssize_t n = ::send(fd_, txbuf_.data() + off, txbuf_.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const Status st = errno_status("send");
    close();
    return st;
  }
  return Status::ok();
}

Status Client::recv(Response& resp) {
  if (fd_ < 0) return Status{ErrorCode::kUnsupported, "not connected"};
  for (;;) {
    std::span<const std::uint8_t> body;
    bool ready = false;
    Status st = assembler_.poll(body, ready);
    if (st.is_ok() && ready) st = decode_response(body, resp);
    if (!st.is_ok()) {
      // The stream is out of frame: every later recv would fail the same
      // way, so the connection goes now, as the server's does.
      close();
      return st;
    }
    if (ready) return Status::ok();
    const std::span<std::uint8_t> room = assembler_.room(kRecvChunkBytes);
    const ssize_t n = ::recv(fd_, room.data(), room.size(), 0);
    if (n > 0) {
      assembler_.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    st = n == 0 ? Status{ErrorCode::kPowerLoss,
                         "connection closed while awaiting a response"}
                : errno_status("recv");
    close();
    return st;
  }
}

Status Client::transact(Request& req, Response& resp) {
  STASH_RETURN_IF_ERROR(send(req));
  STASH_RETURN_IF_ERROR(recv(resp));
  if (resp.id != req.id || resp.op != req.op) {
    return Status{ErrorCode::kCorrupted,
                  "response does not match the request in flight"};
  }
  return Status::ok();
}

Result<std::vector<std::uint8_t>> Client::read(std::uint64_t lpn) {
  Request req;
  req.op = OpCode::kRead;
  req.lpn = lpn;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  STASH_RETURN_IF_ERROR(wire_status(resp));
  return std::move(resp.data);
}

Status Client::write(std::uint64_t lpn, std::span<const std::uint8_t> bits) {
  Request req;
  req.op = OpCode::kWrite;
  req.lpn = lpn;
  req.data.assign(bits.begin(), bits.end());
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Status Client::trim(std::uint64_t lpn) {
  Request req;
  req.op = OpCode::kTrim;
  req.lpn = lpn;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Status Client::store_hidden(std::span<const std::uint8_t> data) {
  Request req;
  req.op = OpCode::kStoreHidden;
  req.data.assign(data.begin(), data.end());
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Result<std::vector<std::uint8_t>> Client::load_hidden() {
  Request req;
  req.op = OpCode::kLoadHidden;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  STASH_RETURN_IF_ERROR(wire_status(resp));
  return std::move(resp.data);
}

Status Client::gc() {
  Request req;
  req.op = OpCode::kGc;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Status Client::flush() {
  Request req;
  req.op = OpCode::kFlush;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Status Client::ping() {
  Request req;
  req.op = OpCode::kPing;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  return wire_status(resp);
}

Result<dev::DeviceStats> Client::stats() {
  Request req;
  req.op = OpCode::kStats;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  STASH_RETURN_IF_ERROR(wire_status(resp));
  dev::DeviceStats out;
  STASH_RETURN_IF_ERROR(decode_device_stats(resp.data, out));
  return out;
}

Result<dev::HiddenInfo> Client::hidden_info() {
  Request req;
  req.op = OpCode::kHiddenInfo;
  Response resp;
  STASH_RETURN_IF_ERROR(transact(req, resp));
  STASH_RETURN_IF_ERROR(wire_status(resp));
  dev::HiddenInfo out;
  STASH_RETURN_IF_ERROR(decode_hidden_info(resp.data, out));
  return out;
}

}  // namespace stash::net
