#pragma once
// Workload generation and the closed-loop client that drives it.
//
// Every connection owns a disjoint slice of the cover's logical pages, so a
// shadow model knows the exact bytes each read must return: the last page
// that connection wrote to that key.  The generator never writes a key
// while a read of it is still in flight on the same connection (the server
// may resolve a queued read after a later inline write), so the
// expectation recorded at send time is the only right answer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "stash/net/client.hpp"
#include "stash/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Page = std::shared_ptr<const std::vector<std::uint8_t>>;

struct WorkloadSpec {
  const char* name;
  int read_pct;   // of public ops; the rest are writes
  bool hot_skew;  // keys favour a hot set about the read LRU's size
  bool hidden;    // connection 0 is a hidden user
  /// Writes per connection between explicit flush requests (0: none; the
  /// write-back buffer then drains only when full).
  std::uint64_t writes_per_flush;
  /// Device size and cover: blocks per chip and the share of logical
  /// pages filled before the run.
  std::uint32_t blocks;
  double fill;
  /// Layers allowed to hold the largest self-time share in the traced run:
  /// the ones the workload was chosen to stress.
  std::vector<std::string> dominant;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Public ops completed (by both connections) per hidden load.  The hidden
/// user loads on this shared beat, so loads are a fixed share of all ops
/// (under 1% of the hidden user's own) however the two connections happen
/// to interleave; a beat on the hidden user's ops alone let the other
/// connection's share per load, and with it ops_per_s, swing by 15%.
constexpr std::uint64_t kPublicOpsPerHiddenLoad = 300;
/// Public writes by the hidden user between two hidden stores.
constexpr std::uint64_t kWritesPerHiddenStore = 1000;
/// Share of key picks that land in the connection's hot set.
constexpr int kHotPct = 90;
/// Public pages carry no ECC in this stack, so a read returns the written
/// page with the simulated NAND's raw bit errors (about one flipped cell
/// per twenty reads here).  A read passes when at most this many bits
/// differ; a stale or foreign page differs in about half of its bits.
constexpr std::uint64_t kMaxRawBitErrors = 32;

/// Page content (one byte per bit) for (seed, lpn, version).
[[nodiscard]] std::vector<std::uint8_t> make_page(std::uint64_t seed,
                                                  std::uint64_t lpn,
                                                  std::uint64_t version,
                                                  std::uint32_t bits);
/// One version of the hidden payload: compressible, text-like bytes.
[[nodiscard]] std::vector<std::uint8_t> make_hidden_payload(
    std::uint64_t seed, std::uint64_t version);

/// Expected state.  Each connection touches only its own page slots; only
/// the hidden user (connection 0) touches hidden_versions.
struct Shadow {
  std::vector<Page> pages;            // by lpn, over the filled cover
  std::vector<Page> hidden_versions;  // every version sent, in order
  std::atomic<std::uint64_t> public_done{0};  // reads + writes completed
};

/// Per-connection results.  Latencies are microseconds, client-side from
/// send to the matching receive, for ops sent inside the measured window.
struct ConnResult {
  std::uint64_t attempted = 0;   // every op sent, warm-up included
  std::uint64_t failed = 0;      // error status, refusal, or mismatch
  std::uint64_t mismatches = 0;  // wrong bytes (a subset of failed)
  std::uint64_t verified_reads = 0;
  std::uint64_t verified_loads = 0;
  std::uint64_t raw_bit_errors = 0;  // flipped bits over verified reads
  std::uint64_t window_ops = 0;  // ops sent inside the measured window
  Samples read_us, write_us, flush_us, load_us, store_us;
  std::string first_error;

  void merge(const ConnResult& o);
};

/// One closed-loop connection: keeps `depth` requests in flight and checks
/// every response against the shadow model.  Its generator state persists
/// across phases, so a later phase continues the same op stream.
class Connection {
 public:
  Connection(const WorkloadSpec& spec, unsigned index, std::uint64_t seed,
             std::uint64_t cover_pages, std::uint32_t page_bits,
             std::size_t depth, Shadow& shadow);

  stash::util::Status connect(std::uint16_t port);

  /// Send until `end`, recording latencies of ops sent at or after
  /// `measure_from`; then drain every in-flight op.
  void run(Clock::time_point measure_from, Clock::time_point end);

  [[nodiscard]] ConnResult take_result();

 private:
  struct Pending {
    stash::net::OpCode op;
    std::uint64_t lpn;
    std::uint64_t id;
    Clock::time_point sent;
    Page expected;              // read: the page; store: the payload
    std::size_t versions = 0;   // load: hidden versions sent before it
  };

  void send_next();
  void receive_one(Clock::time_point measure_from, Clock::time_point end);
  [[nodiscard]] std::uint64_t pick_key();
  [[nodiscard]] bool read_in_flight(std::uint64_t lpn) const;
  void fail(const std::string& what);

  const WorkloadSpec& spec_;
  unsigned index_;
  std::uint64_t seed_;
  std::uint32_t page_bits_;
  std::size_t depth_;
  Shadow& shadow_;
  std::vector<std::uint64_t> keys_;  // owned lpns; the first hot_ are hot
  std::size_t hot_ = 0;
  stash::util::Xoshiro256 rng_;
  stash::net::Client client_;
  std::deque<Pending> inflight_;
  std::uint64_t writes_ = 0;
  std::uint64_t writes_since_flush_ = 0;
  std::uint64_t writes_since_store_ = 0;
  std::uint64_t next_load_at_ = kPublicOpsPerHiddenLoad;
  ConnResult result_;
};

}  // namespace perfbench
