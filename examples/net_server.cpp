// example_net_server — serve one StashDevice over TCP until SIGTERM.
//
// Builds a hidden-capable device, fills its public cover (so hidden
// store/load work from the first request), embeds a starter hidden
// payload, and runs stash::net::Server in the foreground.  SIGINT/SIGTERM
// trigger a graceful shutdown: every in-flight request resolves, the
// final stats JSON is printed (and optionally written to a file), and the
// exit code reports whether the request/response/dropped accounting
// balanced.
//
//   example_net_server --port 9770
//   example_net_server --port-file /tmp/port --stats-out /tmp/stats.json
//
// Flags:
//   --host H         listen address (default 127.0.0.1)
//   --port N         listen port, 0-65535 (default 0 = ephemeral)
//   --port-file F    write the bound port to F (for scripts using port 0)
//   --stats-out F    write the final canonical stats JSON to F
//   --chips N --blocks N --pages N --cells N --seed S   device geometry

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/server.hpp"
#include "stash/util/rng.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

stash::crypto::HidingKey demo_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x42);
  return stash::crypto::HidingKey(raw);
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  stash::util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

}  // namespace

int main(int argc, char** argv) {
  stash::dev::DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;
  config.chips = 2;
  config.seed = 4242;

  stash::net::ServerConfig sconfig;
  std::string port_file;
  std::string stats_out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--host") && i + 1 < argc) {
      sconfig.host = argv[++i];
    } else if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
      const char* port = argv[++i];
      char* end = nullptr;
      const long value = std::strtol(port, &end, 10);
      if (end == port || *end != '\0' || value < 0 || value > 65535) {
        std::fprintf(stderr, "--port must be 0-65535, got %s\n", port);
        return 2;
      }
      sconfig.port = static_cast<std::uint16_t>(value);
    } else if (!std::strcmp(argv[i], "--port-file") && i + 1 < argc) {
      port_file = argv[++i];
    } else if (!std::strcmp(argv[i], "--stats-out") && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (!std::strcmp(argv[i], "--chips") && i + 1 < argc) {
      config.chips = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--blocks") && i + 1 < argc) {
      config.geometry.blocks = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--pages") && i + 1 < argc) {
      config.geometry.pages_per_block =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--cells") && i + 1 < argc) {
      config.geometry.cells_per_page =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      config.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  config.ftl.overprovision = 0.25;
  stash::dev::StashDevice device(config, demo_key());
  // Half the logical space: fully-programmed carrier blocks for hidden
  // payloads, plus slack so client write churn leaves GC room to reclaim.
  const std::uint64_t cover = device.logical_pages() / 2;
  std::printf("# filling public cover (%llu of %llu pages)...\n",
              static_cast<unsigned long long>(cover),
              static_cast<unsigned long long>(device.logical_pages()));
  for (std::uint64_t lpn = 0; lpn < cover; ++lpn) {
    if (!device.write(lpn, page_pattern(device.page_bits(), 100 + lpn))
             .is_ok()) {
      std::fprintf(stderr, "cover write failed at lpn %llu\n",
                   static_cast<unsigned long long>(lpn));
      return 1;
    }
  }
  if (!device.flush().is_ok()) return 1;
  const std::vector<std::uint8_t> starter(192, 0xab);
  if (!device.store_hidden(starter).is_ok()) {
    std::fprintf(stderr, "starter hidden payload embed failed\n");
    return 1;
  }

  stash::net::Server server(device, sconfig);
  const auto st = server.start();
  if (!st.is_ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("# listening on %s:%u\n", sconfig.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) return 1;
    std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
    std::fclose(f);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("# shutting down gracefully...\n");
  server.stop();
  const std::string json = server.stats_json();
  std::printf("%s\n", json.c_str());
  if (!stats_out.empty()) {
    std::FILE* f = std::fopen(stats_out.c_str(), "w");
    if (f == nullptr) return 1;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  // The shutdown contract: nothing in flight was abandoned.
  const auto stats = server.stats_snapshot();
  if (stats.requests != stats.responses + stats.dropped) {
    std::fprintf(stderr, "accounting imbalance: %llu requests != %llu + %llu\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.responses),
                 static_cast<unsigned long long>(stats.dropped));
    return 1;
  }
  return 0;
}
