// stash::net load generator: a fleet of pipelined TCP clients against one
// served StashDevice, sweeping connections x pipeline depth x op mix.
//
// By default the harness self-hosts: it builds a hidden-capable device,
// fills the public cover, embeds one hidden payload, and serves it on an
// ephemeral loopback port — so a bare `bench_net_loadgen --quick` is a
// complete end-to-end run.  `--connect HOST:PORT` aims the fleet at an
// external server instead (e.g. example_net_server across a namespace).
//
// Each sweep point runs one thread per connection, each thread one Client
// keeping `depth` requests in flight (send until the window fills, then
// lock-step send/recv).  Responses arrive in request order, so the n-th
// recv timestamps the n-th send: per-request latency needs no id matching.
// The point's JSON line reports p50/p99/p999 latency and wall throughput:
//
//   {"connections":4,"depth":8,"mix":"read_heavy","ops":4800,"errors":0,
//    "p50_us":93.1,"p99_us":412.0,"p999_us":887.2,"throughput_ops_s":51234.8}
//
// The hidden mix stores ONE payload up front and then only loads it: every
// store supersedes (and scrubs) the previous generation's carriers, so a
// store-heavy stream would measure nothing but cover-page churn.
//
// --deterministic switches to the acceptance workload: one connection,
// depth 1, a fixed op sequence against the self-hosted server.  All
// wall-clock fields are dropped; the output is a response digest plus
// event counts, and --server-stats-out FILE captures the server's
// canonical stats JSON.  Two runs must produce byte-identical output:
//
//   bench_net_loadgen --deterministic --server-stats-out a.json > a.out
//   bench_net_loadgen --deterministic --server-stats-out b.json > b.out
//   diff a.json b.json && diff a.out b.out                      # empty
//
// Flags: --quick (trim the sweep), --ops N (requests per connection per
// point), --connect HOST:PORT, --page-bits N (write size when the device
// is remote), --seed S, --deterministic, --server-stats-out FILE.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/client.hpp"
#include "stash/net/server.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/stats.hpp"

namespace {

using stash::dev::DeviceConfig;
using stash::dev::StashDevice;
using stash::net::Client;
using stash::net::OpCode;
using stash::net::Request;
using stash::net::Response;
using stash::net::Server;

struct Options {
  bool quick = false;
  bool deterministic = false;
  std::string connect_host;  // empty => self-host
  std::uint16_t connect_port = 0;
  std::uint64_t ops = 2000;  // per connection per sweep point
  std::uint32_t page_bits = 8192;
  std::uint64_t seed = 0x10adULL;
  std::string server_stats_out;

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--quick")) {
        opt.quick = true;
      } else if (!std::strcmp(argv[i], "--deterministic")) {
        opt.deterministic = true;
      } else if (!std::strcmp(argv[i], "--ops") && i + 1 < argc) {
        opt.ops = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      } else if (!std::strcmp(argv[i], "--page-bits") && i + 1 < argc) {
        opt.page_bits = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
        opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      } else if (!std::strcmp(argv[i], "--server-stats-out") && i + 1 < argc) {
        opt.server_stats_out = argv[++i];
      } else if (!std::strcmp(argv[i], "--connect") && i + 1 < argc) {
        const std::string hp = argv[++i];
        const auto colon = hp.rfind(':');
        if (colon == std::string::npos) {
          std::fprintf(stderr, "--connect wants HOST:PORT, got %s\n",
                       hp.c_str());
          std::exit(2);
        }
        opt.connect_host = hp.substr(0, colon);
        opt.connect_port =
            static_cast<std::uint16_t>(std::atoi(hp.c_str() + colon + 1));
      } else {
        std::fprintf(stderr, "unknown flag %s\n", argv[i]);
        std::exit(2);
      }
    }
    if (opt.quick) opt.ops = std::min<std::uint64_t>(opt.ops, 400);
    return opt;
  }
};

stash::crypto::HidingKey bench_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x6e);
  return stash::crypto::HidingKey(raw);
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  stash::util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Percentage split of the request stream (reads / writes / hidden loads).
struct Mix {
  const char* name;
  int read_pct;
  int write_pct;  // remainder after read+write is hidden loads
};

constexpr Mix kMixes[] = {
    {"read_heavy", 90, 10},
    {"write_heavy", 30, 70},
    {"hidden_mix", 70, 20},
};

struct WorkerResult {
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
};

/// One connection's share of a sweep point: keep `depth` requests in
/// flight for `ops` requests, timestamping each send and matching it to
/// the in-order response stream.
void run_worker(const std::string& host, std::uint16_t port, const Mix& mix,
                std::size_t depth, std::uint64_t ops, std::uint32_t page_bits,
                std::uint64_t lpn_space, std::uint64_t seed,
                WorkerResult& result) {
  using Clock = std::chrono::steady_clock;
  Client client;
  if (!client.connect(host, port).is_ok()) {
    result.errors += ops;
    return;
  }
  stash::util::Xoshiro256 rng(seed);
  result.latencies_ns.reserve(ops);
  std::deque<Clock::time_point> sent;

  const auto recv_one = [&] {
    Response resp;
    const auto st = client.recv(resp);
    const auto t1 = Clock::now();
    if (!st.is_ok()) {
      ++result.errors;
      return false;
    }
    result.latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - sent.front())
            .count()));
    sent.pop_front();
    resp.status == 0 ? ++result.ok : ++result.errors;
    return true;
  };

  for (std::uint64_t i = 0; i < ops; ++i) {
    Request req;
    const auto roll = static_cast<int>(rng.below(100));
    if (roll < mix.read_pct) {
      req.op = OpCode::kRead;
      req.lpn = rng.below(lpn_space);
      req.priority = static_cast<std::uint8_t>(rng.below(3));  // QoS spread
    } else if (roll < mix.read_pct + mix.write_pct) {
      req.op = OpCode::kWrite;
      req.lpn = rng.below(lpn_space);
      req.data = page_pattern(page_bits, seed * 1000 + i);
    } else {
      req.op = OpCode::kLoadHidden;
      req.priority = 2;  // hidden maintenance rides in the background class
    }
    sent.push_back(Clock::now());
    if (!client.send(req).is_ok()) {
      result.errors += ops - i;
      break;
    }
    if (sent.size() >= depth) {
      if (!recv_one()) break;
    }
  }
  while (!sent.empty()) {
    if (!recv_one()) break;
  }
}

/// Nearest-rank q-th quantile of the sorted latencies, in microseconds.
double quantile_us(const std::vector<std::uint64_t>& sorted, double q) {
  return static_cast<double>(stash::util::quantile(sorted, q)) / 1e3;
}

/// The self-hosted device+server: hidden-capable geometry, full public
/// cover, one embedded hidden payload (the hidden mix only loads).
struct SelfHost {
  std::unique_ptr<StashDevice> device;
  std::unique_ptr<Server> server;
  std::uint64_t cover_pages = 0;  // the lpn space the fleet works

  explicit SelfHost(const Options& opt) {
    DeviceConfig config;
    config.geometry.blocks = 12;
    config.geometry.pages_per_block = 8;
    config.geometry.cells_per_page = 8192;
    config.chips = 2;
    config.seed = opt.seed;
    config.ftl.overprovision = 0.25;
    device = std::make_unique<StashDevice>(config, bench_key());
    // Fill only half the logical space: enough fully-programmed blocks to
    // carry the hidden payload, enough slack for GC to absorb the sweep's
    // write churn (a 100%-valid device has nothing to reclaim and wedges).
    cover_pages = device->logical_pages() / 2;
    for (std::uint64_t lpn = 0; lpn < cover_pages; ++lpn) {
      if (!device->write(lpn, page_pattern(device->page_bits(), 7000 + lpn))
               .is_ok()) {
        std::fprintf(stderr, "cover write %llu failed\n",
                     static_cast<unsigned long long>(lpn));
        std::exit(1);
      }
    }
    if (!device->flush().is_ok()) std::exit(1);
    // Sized well inside the hidden capacity the half-filled cover yields
    // (~230 bytes per chip at this geometry).
    const std::vector<std::uint8_t> payload(192, 0xb7);
    if (const auto st = device->store_hidden(payload); !st.is_ok()) {
      std::fprintf(stderr, "hidden payload embed failed: %s\n",
                   st.to_string().c_str());
      std::exit(1);
    }
    server = std::make_unique<Server>(*device);
    if (!server->start().is_ok()) {
      std::fprintf(stderr, "server start failed\n");
      std::exit(1);
    }
  }
};

void write_server_stats(const Options& opt, Server* server) {
  if (opt.server_stats_out.empty() || server == nullptr) return;
  std::FILE* f = std::fopen(opt.server_stats_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.server_stats_out.c_str());
    std::exit(1);
  }
  const std::string json = server->stats_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

/// The fixed acceptance workload: one connection, depth 1, no wall clock
/// anywhere in the output.  The digest folds every response's status and
/// payload, so "byte-identical output" certifies the full response stream.
int run_deterministic(const Options& opt, const std::string& host,
                      std::uint16_t port, std::uint32_t page_bits,
                      std::uint64_t lpn_space, Server* server) {
  Client client;
  if (!client.connect(host, port).is_ok()) return 1;

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold_byte = [&digest](std::uint8_t b) {
    digest = (digest ^ b) * 1099511628211ULL;
  };
  const auto fold = [&](std::uint8_t status,
                        const std::vector<std::uint8_t>& data) {
    fold_byte(status);
    for (const auto b : data) fold_byte(b);
  };

  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  const auto track = [&](const stash::util::Status& st) {
    ++requests;
    if (!st.is_ok()) ++errors;
    fold(static_cast<std::uint8_t>(st.code()), {});
  };

  track(client.ping());
  const std::uint64_t rounds = std::max<std::uint64_t>(opt.ops / 4, 8);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::uint64_t lpn = i % lpn_space;
    track(client.write(lpn, page_pattern(page_bits, 9000 + i)));
    auto r = client.read(lpn);
    ++requests;
    if (!r.is_ok()) ++errors;
    fold(static_cast<std::uint8_t>(r.status().code()),
         r.is_ok() ? r.value() : std::vector<std::uint8_t>{});
  }
  track(client.flush());
  auto hidden = client.load_hidden();
  ++requests;
  if (!hidden.is_ok()) ++errors;
  fold(static_cast<std::uint8_t>(hidden.status().code()),
       hidden.is_ok() ? hidden.value() : std::vector<std::uint8_t>{});

  // Stop before closing the client: whether the reactor notices a client
  // hangup before exiting is a race, and `disconnected` must not wobble.
  if (server != nullptr) server->stop();
  client.close();
  write_server_stats(opt, server);

  std::printf(
      "{\"mode\":\"deterministic\",\"requests\":%llu,\"errors\":%llu,"
      "\"digest\":\"%016llx\"}\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(digest));
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  std::unique_ptr<SelfHost> host_state;
  std::string host = opt.connect_host;
  std::uint16_t port = opt.connect_port;
  std::uint32_t page_bits = opt.page_bits;
  std::uint64_t lpn_space = 64;
  Server* server = nullptr;
  if (host.empty()) {
    host_state = std::make_unique<SelfHost>(opt);
    host = "127.0.0.1";
    port = host_state->server->port();
    page_bits = host_state->device->page_bits();
    lpn_space = host_state->cover_pages;
    server = host_state->server.get();
  }

  if (opt.deterministic) {
    return run_deterministic(opt, host, port, page_bits, lpn_space, server);
  }

  const std::vector<std::size_t> conn_sweep =
      opt.quick ? std::vector<std::size_t>{1, 4}
                : std::vector<std::size_t>{1, 4, 16};
  const std::vector<std::size_t> depth_sweep =
      opt.quick ? std::vector<std::size_t>{1, 8}
                : std::vector<std::size_t>{1, 8, 32};

  std::uint64_t total_ops = 0;
  std::uint64_t total_errors = 0;
  for (const auto& mix : kMixes) {
    for (const std::size_t conns : conn_sweep) {
      for (const std::size_t depth : depth_sweep) {
        std::vector<WorkerResult> results(conns);
        std::vector<std::thread> fleet;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t c = 0; c < conns; ++c) {
          fleet.emplace_back(run_worker, host, port, std::cref(mix), depth,
                             opt.ops, page_bits, lpn_space,
                             opt.seed + c * 7919 + depth * 131 + conns,
                             std::ref(results[c]));
        }
        for (auto& t : fleet) t.join();
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();

        std::vector<std::uint64_t> merged;
        std::uint64_t ok = 0;
        std::uint64_t errors = 0;
        for (auto& r : results) {
          merged.insert(merged.end(), r.latencies_ns.begin(),
                        r.latencies_ns.end());
          ok += r.ok;
          errors += r.errors;
        }
        std::sort(merged.begin(), merged.end());
        total_ops += ok;
        total_errors += errors;

        std::printf(
            "{\"connections\":%zu,\"depth\":%zu,\"mix\":\"%s\","
            "\"ops\":%llu,\"errors\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f,"
            "\"p999_us\":%.1f,\"throughput_ops_s\":%.1f}\n",
            conns, depth, mix.name, static_cast<unsigned long long>(ok),
            static_cast<unsigned long long>(errors), quantile_us(merged, 0.50),
            quantile_us(merged, 0.99), quantile_us(merged, 0.999),
            wall_s > 0 ? static_cast<double>(merged.size()) / wall_s : 0.0);
        std::fflush(stdout);
      }
    }
  }

  if (server != nullptr) server->stop();
  write_server_stats(opt, server);
  std::printf("{\"summary\":true,\"total_ops\":%llu,\"total_errors\":%llu}\n",
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(total_errors));
  // An occasional honest error status (e.g. GC churn around a hidden load)
  // is workload, not harness failure; more than 1% is.
  return total_errors * 100 <= total_ops ? 0 : 1;
}
