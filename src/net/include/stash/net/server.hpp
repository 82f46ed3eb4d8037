#pragma once
// stash::net::Server — StashDevice served over TCP.
//
// One epoll reactor thread multiplexes every client connection onto one
// StashDevice, the role the host-interface firmware plays in front of the
// paper's drive: many initiators, one device-side scheduler.  The reactor
// owns all network state; device calls happen on the reactor thread, so
// the device's own mutex-and-dispatch scheduler keeps its determinism
// contract (the reactor is just another — single — submitting thread).
//
//   * Pipelining: a client may stream many requests without waiting;
//     responses always come back in request order (the per-connection
//     in-flight queue resolves front-only).  The in-flight window is
//     bounded (kMaxPipeline, 64): a connection at its bound
//     stops being read — TCP backpressure, counted in NetStats as
//     pipeline_stalls — until responses drain.
//   * Reads, hidden-volume ops and GC go through the device queue, whose
//     request kind is its schedule (reads overtake queued background
//     work); writes, trims, flushes and queries are answered inline.  The
//     frame's priority byte is decoded but not consulted.
//   * Quiescence rule: after handling its socket events the reactor
//     repeats drain-then-sweep — drain the device queue, then resolve,
//     transmit and refill every connection — until a sweep handles no
//     frame.  It then blocks in epoll until the next event: no request
//     waits on a timer, and no poll timeout exists.
//   * Graceful shutdown: stop() stops accepting, runs the same loop until
//     quiescent, flushes responses best-effort, then closes.  A
//     disconnected client's futures are ready after one drain; they are
//     consumed and counted as dropped when it is reaped.  No future is
//     ever abandoned.
//   * Determinism: a serial client (one connection, one request in flight)
//     gets each request drained and answered by the quiescence loop before
//     it can send the next frame, so with a fixed workload the per-instance
//     stats (and hence stats_json()) are byte-identical run-to-run —
//     stats_json() contains only event counts, never wall-clock values.

#include <cstdint>
#include <memory>
#include <string>

#include "stash/dev/device.hpp"
#include "stash/net/protocol.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/util/status.hpp"

namespace stash::net {

/// Per-connection in-flight request bound; a connection at the bound is
/// not read until responses drain (TCP backpressure).
inline constexpr std::size_t kMaxPipeline = 64;

struct ServerConfig {
  /// Numeric IPv4 listen address ("localhost" accepted as 127.0.0.1).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  std::uint16_t port = 0;
};

/// The server's counters, named once (see stash/telemetry/
/// counter_table.hpp): NetStats, the per-instance table and stats_json()
/// are generated from this list.
#define STASH_NET_COUNTERS(X)                                              \
  X(accepted)                                                             \
  X(disconnected)                                                         \
  X(requests)                                                             \
  X(responses)                                                            \
  /* In-flight requests whose client disconnected before the response     \
     could be sent; their results are consumed, never abandoned. */       \
  X(dropped)                                                              \
  X(rx_bytes)                                                             \
  X(tx_bytes)                                                             \
  X(pipeline_stalls)                                                      \
  X(protocol_errors)

/// Per-instance event counts.  Everything here is a pure function of the
/// request/response byte streams (no wall-clock values), which is what
/// makes a serial client's stats_json() byte-stable.
struct NetStats {
  STASH_COUNTER_FIELDS("net", STASH_NET_COUNTERS)
  /// Requests by op, indexed by OpCode - 1 (read ... hidden_info).
  std::uint64_t ops[kOpCount] = {};
};

class Server {
 public:
  explicit Server(dev::StashDevice& device, ServerConfig config = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Stops (gracefully) if still running.
  ~Server();

  /// Bind, listen, and start the reactor thread.  kUnsupported if already
  /// running; kInvalidArgument / kCorrupted-free socket errors surface as
  /// kInvalidArgument with the errno text.
  Status start();
  /// Graceful shutdown; idempotent, safe from any thread (not the
  /// reactor's own callbacks).  Returns when the reactor has exited.
  void stop();
  [[nodiscard]] bool running() const noexcept;

  /// Actual bound port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] NetStats stats_snapshot() const;
  /// Canonical JSON of stats_snapshot(): fixed key order, integers only —
  /// byte-identical across runs whenever the event counts are.
  [[nodiscard]] std::string stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stash::net
