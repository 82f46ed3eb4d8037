#pragma once
// stash::net::Client — a blocking TCP client for the stash::net protocol.
//
// Two usage styles over one connection:
//   * Synchronous convenience: read()/write()/store_hidden()/... — one
//     request, wait for its response (the remote mirror of StashDevice's
//     synchronous surface).
//   * Pipelined: send() many requests back-to-back, then recv() the
//     responses; the server answers strictly in request order, so the
//     n-th recv matches the n-th send.  This is what the load generator
//     uses to sweep pipeline depth.
//
// Not thread-safe: one Client per thread (connections are cheap).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/protocol.hpp"
#include "stash/util/status.hpp"

namespace stash::net {

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Connect to a numeric IPv4 host ("localhost" accepted) and perform
  /// the protocol handshake: a kHello exchange pinning the protocol
  /// version.  A disagreeing server answers
  /// kUnsupported (surfaced verbatim here) and closes — the connection is
  /// never left half-open in a version no-man's-land.
  Status connect(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  // ---- Pipelined interface ------------------------------------------------
  /// Transmit one request frame (blocking until fully written).  Assigns
  /// req.id from the connection's sequence when it is 0.
  Status send(Request& req);
  /// Block for the next response frame.  kPowerLoss when the server
  /// closed the connection mid-stream.
  Status recv(Response& resp);

  // ---- Synchronous convenience --------------------------------------------
  Result<std::vector<std::uint8_t>> read(std::uint64_t lpn);
  Status write(std::uint64_t lpn, std::span<const std::uint8_t> bits);
  Status trim(std::uint64_t lpn);
  Status store_hidden(std::span<const std::uint8_t> data);
  Result<std::vector<std::uint8_t>> load_hidden();
  Status gc();
  Status flush();
  Status ping();
  Result<dev::DeviceStats> stats();
  /// Remote mirror of StashDevice::hidden_info().
  Result<dev::HiddenInfo> hidden_info();

 private:
  Status transact(Request& req, Response& resp);
  Status handshake();

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  FrameAssembler assembler_;
  std::vector<std::uint8_t> txbuf_;
};

}  // namespace stash::net
