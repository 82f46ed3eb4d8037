// stash::net acceptance workload: one client against one served
// StashDevice, a fixed request sequence whose response stream is folded
// into a digest.
//
// By default the harness self-hosts: it builds a hidden-capable device,
// fills the public cover, embeds one hidden payload, and serves it on an
// ephemeral loopback port, so a bare `bench_net_loadgen` is a complete
// end-to-end run.  `--connect HOST:PORT` runs the same workload against an
// external server instead (e.g. example_net_server).
//
// The workload is one connection at depth 1: a ping, 500 rounds of
// write-then-read, a flush and one hidden load.  No wall clock appears in
// the output; wall-clock serving numbers come from perfbench.  The output
// is a response digest plus event counts, and --server-stats-out FILE
// captures the self-hosted server's canonical stats JSON.  Two self-hosted
// runs must produce byte-identical output:
//
//   bench_net_loadgen --server-stats-out a.json > a.out
//   bench_net_loadgen --server-stats-out b.json > b.out
//   diff a.json b.json && diff a.out b.out                      # empty
//
// Exit 0 when every request succeeded, 1 otherwise, 2 on a bad flag.
//
// Flags: --connect HOST:PORT, --page-bits N (write size when the device is
// remote), --server-stats-out FILE.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/client.hpp"
#include "stash/net/server.hpp"
#include "stash/util/rng.hpp"

namespace {

using stash::dev::DeviceConfig;
using stash::dev::StashDevice;
using stash::net::Client;
using stash::net::Server;

constexpr std::uint64_t kSeed = 0x10adULL;  // self-hosted device seed
constexpr std::uint64_t kRounds = 500;      // write+read pairs per run

struct Options {
  std::string connect_host;  // empty => self-host
  std::uint16_t connect_port = 0;
  std::uint32_t page_bits = 8192;
  std::string server_stats_out;

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--page-bits") && i + 1 < argc) {
        opt.page_bits = static_cast<std::uint32_t>(std::atoi(argv[++i]));
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
        const char* port = hp.c_str() + colon + 1;
        char* end = nullptr;
        const long value = std::strtol(port, &end, 10);
        if (end == port || *end != '\0' || value < 1 || value > 65535) {
          std::fprintf(stderr, "--connect port must be 1-65535, got %s\n",
                       port);
          std::exit(2);
        }
        opt.connect_host = hp.substr(0, colon);
        opt.connect_port = static_cast<std::uint16_t>(value);
      } else {
        std::fprintf(stderr, "unknown flag %s\n", argv[i]);
        std::exit(2);
      }
    }
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

/// The self-hosted device+server: hidden-capable geometry, half-filled
/// public cover, one embedded hidden payload.
struct SelfHost {
  std::unique_ptr<StashDevice> device;
  std::unique_ptr<Server> server;
  std::uint64_t cover_pages = 0;  // the lpn space the workload writes

  SelfHost() {
    DeviceConfig config;
    config.geometry.blocks = 12;
    config.geometry.pages_per_block = 8;
    config.geometry.cells_per_page = 8192;
    config.chips = 2;
    config.seed = kSeed;
    config.ftl.overprovision = 0.25;
    device = std::make_unique<StashDevice>(config, bench_key());
    // Fill only half the logical space: enough fully-programmed blocks to
    // carry the hidden payload, enough slack for GC to absorb the
    // workload's writes (a 100%-valid device has nothing to reclaim and
    // wedges).
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

/// The fixed acceptance workload: one connection, depth 1.  The digest
/// folds every response's status and payload, so "byte-identical output"
/// certifies the full response stream.
int run_workload(const Options& opt, const std::string& host,
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
  for (std::uint64_t i = 0; i < kRounds; ++i) {
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
    host_state = std::make_unique<SelfHost>();
    host = "127.0.0.1";
    port = host_state->server->port();
    page_bits = host_state->device->page_bits();
    lpn_space = host_state->cover_pages;
    server = host_state->server.get();
  }
  return run_workload(opt, host, port, page_bits, lpn_space, server);
}
