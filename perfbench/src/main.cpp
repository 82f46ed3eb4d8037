// stash_perfbench — the repository benchmark.
//
// Self-hosts one dev::StashDevice behind a net::Server on loopback and
// drives it from this process through net::Client as a closed loop: two
// connections, each keeping 8 requests in flight (a block-device host at a
// fixed queue depth, like fio's iodepth).  The whole process runs on one
// CPU.  The workload seed shapes every request; the device only ever sees
// the generated requests.  Every read and hidden load is checked against a
// shadow model.
//
//   stash_perfbench --workload read_mostly --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the same untraced window, then a traced window of the same
// length, and prints the per-layer table (and the tracing overhead).  The
// last stdout line is one JSON object: correct / attempted / failed /
// metrics.  --corrupt-expected swaps the expected pages and hidden payloads
// for wrong ones after set-up, so the payload checks must fail the run.

#include <sched.h>
#include <sys/resource.h>
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "stash/dev/device.hpp"
#include "stash/net/client.hpp"
#include "stash/net/server.hpp"
#include "stash/pack/pack.hpp"
#include "stash/trace/trace.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using stash::dev::DeviceConfig;
using stash::dev::StashDevice;
using stash::net::Server;

constexpr unsigned kConnections = 2;
constexpr std::size_t kDepth = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Warm-up before the measured window: fills the read LRU and brings the
/// FTL into steady-state garbage collection.
constexpr double kWarmupSeconds = 2.0;
/// Requests per traced slice (spans are held in memory for one slice).
constexpr double kTracedRequestBudget = 150000;
/// Versions of the hidden payload the benchmark packs itself (pack spans).
constexpr std::uint64_t kPackSamples = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_expected = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stash_perfbench: %s\nusage: stash_perfbench --workload "
               "read_mostly|write_heavy|hidden_churn --seed N --seconds S "
               "--trace 0|1 [--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value() != "0";
    } else if (flag == "--corrupt-expected") {
      opt.corrupt_expected = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(opt.workload) == nullptr) usage("unknown --workload");
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");
  return opt;
}

/// The device: 2 chips of 64-page blocks at 1/16 of the paper's page
/// width, 25% over-provisioning, default read LRU (256 pages) and
/// write-back buffer (64 pages); the block count is the workload's.
DeviceConfig device_config(const WorkloadSpec& spec) {
  DeviceConfig config;
  config.geometry = stash::nand::Geometry::experiment(16, spec.blocks);
  config.chips = 2;
  config.ftl.overprovision = 0.25;
  return config;
}

stash::crypto::HidingKey hiding_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x5b);
  return stash::crypto::HidingKey(raw);
}

/// Confine the process (and every thread it starts later) to its first
/// allowed CPU.  Spread over cores, the client-visible microsecond
/// latencies followed the host's placement of those cores and swung by
/// 15-40% between runs; on one core they repeat within a few percent.
/// Returns the CPU, or -1 when the affinity could not be read.
int use_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
  }
  return -1;
}

std::set<int> thread_ids() {
  std::set<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ids.insert(std::atoi(e->d_name));
    }
    closedir(dir);
  }
  return ids;
}

/// Device + server, built from scratch: device, cover fill, initial hidden
/// store, server start — everything setup_s times.
struct Host {
  std::unique_ptr<StashDevice> device;
  std::unique_ptr<Server> server;
  std::uint64_t cover_pages = 0;
  int reactor_tid = 0;

  Host(const WorkloadSpec& spec, std::uint64_t seed, Shadow& shadow) {
    device = std::make_unique<StashDevice>(device_config(spec), hiding_key());
    cover_pages = static_cast<std::uint64_t>(
        static_cast<double>(device->logical_pages()) * spec.fill);
    shadow.pages.assign(cover_pages, nullptr);
    for (std::uint64_t lpn = 0; lpn < cover_pages; ++lpn) {
      auto page = std::make_shared<const std::vector<std::uint8_t>>(
          make_page(seed, lpn, 0, device->page_bits()));
      check(device->write(lpn, *page), "cover write");
      shadow.pages[lpn] = std::move(page);
    }
    check(device->flush(), "cover flush");
    shadow.hidden_versions.clear();
    if (spec.hidden) {
      auto payload = std::make_shared<const std::vector<std::uint8_t>>(
          make_hidden_payload(seed, 0));
      check(device->store_hidden(*payload), "initial hidden store");
      shadow.hidden_versions.push_back(std::move(payload));
    }
    const std::set<int> before = thread_ids();
    server = std::make_unique<Server>(*device);
    check(server->start(), "server start");
    for (const int tid : thread_ids()) {
      if (!before.count(tid)) reactor_tid = tid;
    }
  }

  static void check(const stash::util::Status& st, const char* what) {
    if (st.is_ok()) return;
    std::fprintf(stderr, "stash_perfbench: %s failed: %s\n", what,
                 st.to_string().c_str());
    std::exit(1);
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run every connection from now: warm-up, then the measured window.
/// Returns the merged results and completed ops per second in the window.
std::pair<ConnResult, double> run_phase(
    std::vector<std::unique_ptr<Connection>>& conns, double warmup,
    double seconds) {
  const auto from = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(warmup));
  const auto end = from + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (auto& c : conns) {
    threads.emplace_back([&c, from, end] { c->run(from, end); });
  }
  for (auto& t : threads) t.join();
  ConnResult merged;
  for (auto& c : conns) merged.merge(c->take_result());
  return {merged, static_cast<double>(merged.window_ops) / seconds};
}

std::string host_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* isa_level() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq")) {
    return "x86-64-v4";
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
      __builtin_cpu_supports("fma")) {
    return "x86-64-v3";
  }
  if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("popcnt")) {
    return "x86-64-v2";
  }
  return "x86-64";
#else
  return "non-x86";
#endif
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_metric(const Metric& m) {
  const std::string n = m.n >= 0 ? "n=" + std::to_string(m.n) : "";
  if (m.supported) {
    std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), n.c_str());
  } else {
    std::printf("  %-36s %16s %-6s %s (fewer than %zu samples beyond it)\n",
                m.name.c_str(), "unsupported", m.unit.c_str(), n.c_str(),
                Samples::kMinTail);
  }
}

Metric percentile(const char* name, Samples& s, double q) {
  const auto v = s.quantile(q);
  return {name, v.value_or(0.0), "us", static_cast<long long>(s.size()),
          v.has_value()};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const int cpu = use_one_cpu();
  const WorkloadSpec& spec = *find_workload(opt.workload);
  const DeviceConfig config = device_config(spec);
  const auto& g = config.geometry;

  std::printf("# host: cpu=\"%s\" isa=%s nproc=%ld compiler=\"%s\" build=%s\n",
              host_cpu().c_str(), isa_level(), sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf(
      "# geometry: %u chips x %u blocks x %u pages x %u cells/page; paper "
      "page is 144384 cells, so this is 1/%u of the paper's page width "
      "(scaled, not full geometry)\n",
      config.chips, g.blocks, g.pages_per_block, g.cells_per_page,
      144384 / g.cells_per_page);
  std::printf(
      "# workload: %s seed=%llu seconds=%g trace=%d; closed loop, %u "
      "connections x depth %zu, warm-up %gs, all threads on cpu %d\n",
      spec.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, kConnections, kDepth,
      std::min(kWarmupSeconds, opt.seconds), cpu);

  // ---- Set-up, timed several times; the last host serves the run ----------
  Shadow shadow;
  std::vector<double> setups;
  std::unique_ptr<Host> host;
  for (int i = 0; i < kSetups; ++i) {
    host.reset();
    const auto t0 = Clock::now();
    host = std::make_unique<Host>(spec, opt.seed, shadow);
    setups.push_back(seconds_since(t0));
  }
  std::sort(setups.begin(), setups.end());
  const std::uint32_t page_bits = host->device->page_bits();
  std::printf("# cover: %llu of %llu logical pages filled; read LRU %zu "
              "pages; write-back buffer %zu pages\n",
              static_cast<unsigned long long>(host->cover_pages),
              static_cast<unsigned long long>(host->device->logical_pages()),
              config.read_cache_pages, config.write_back_pages);

  if (opt.corrupt_expected) {
    // Expect a version of every cover page that was never written, as a
    // device returning stale or foreign data would look.
    for (std::uint64_t lpn = 0; lpn < shadow.pages.size(); ++lpn) {
      shadow.pages[lpn] = std::make_shared<const std::vector<std::uint8_t>>(
          make_page(opt.seed, lpn, ~0ull, page_bits));
    }
    for (auto& version : shadow.hidden_versions) {
      auto bad = std::make_shared<std::vector<std::uint8_t>>(*version);
      (*bad)[0] ^= 1;
      version = std::move(bad);
    }
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (unsigned c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(spec, c, opt.seed,
                                                 host->cover_pages, page_bits,
                                                 kDepth, shadow));
    Host::check(conns.back()->connect(host->server->port()), "connect");
  }

  // ---- Untraced window: the end-to-end numbers ------------------------------
  auto [result, ops_per_s] =
      run_phase(conns, std::min(kWarmupSeconds, opt.seconds), opt.seconds);

  // ---- Traced window: the per-layer table -----------------------------------
  std::optional<LayerReport> layers;
  if (opt.trace) {
    auto& tracer = stash::trace::Tracer::global();
    TracedWindow w;
    w.untraced_ops_per_s = ops_per_s;
    w.cells_per_page = g.cells_per_page;
    w.costs = config.costs;
    // Traced in slices of about kTracedRequestBudget requests: each slice's
    // spans are tallied and dropped before the next, so span memory stays
    // bounded however fast the workload runs.
    w.slices = static_cast<std::size_t>(std::max(
        1.0, std::ceil(ops_per_s * opt.seconds / kTracedRequestBudget)));
    const double slice_seconds = opt.seconds / static_cast<double>(w.slices);
    w.before = take_snapshot(*host->device, *host->server, host->reactor_tid);
    ConnResult traced;
    for (std::size_t i = 0; i < w.slices; ++i) {
      tracer.clear();
      tracer.enable(stash::trace::ClockMode::kWall);
      traced.merge(run_phase(conns, 0.0, slice_seconds).first);
      tracer.disable();
      w.tally.add(tracer.collect());
    }
    tracer.clear();
    w.after = take_snapshot(*host->device, *host->server, host->reactor_tid);
    w.traced_ops_per_s = static_cast<double>(traced.window_ops) / opt.seconds;
    w.client_read_us = traced.read_us;
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.mismatches += traced.mismatches;
    result.verified_reads += traced.verified_reads;
    result.verified_loads += traced.verified_loads;
    result.raw_bit_errors += traced.raw_bit_errors;
    if (result.first_error.empty()) result.first_error = traced.first_error;
    if (spec.hidden) {
      stash::net::Client control;
      Host::check(control.connect("127.0.0.1", host->server->port()),
                  "control connect");
      const auto fail = [&result](const char* what) {
        ++result.attempted;
        ++result.failed;
        if (result.first_error.empty()) result.first_error = what;
      };
      auto info = control.hidden_info();
      if (info.is_ok()) {
        w.hidden = info.value();
      } else {
        fail("hidden_info failed after the traced window");
      }
      for (std::uint64_t v = 0; v < kPackSamples; ++v) {
        const auto payload = make_hidden_payload(opt.seed, v);
        const auto t0 = Clock::now();
        auto packed = stash::pack::pack(payload, config.pack);
        w.pack_us.add(seconds_since(t0) * 1e6);
        if (!packed.is_ok()) {
          fail("pack failed on a hidden payload");
          continue;
        }
        const auto t1 = Clock::now();
        auto unpacked = stash::pack::unpack(packed.value());
        w.unpack_us.add(seconds_since(t1) * 1e6);
        if (!unpacked.is_ok() || unpacked.value() != payload) {
          ++result.mismatches;
          fail("pack round trip changed a hidden payload");
        }
      }
    }
    layers = analyze(w, spec);
  }
  host.reset();

  // ---- Report ---------------------------------------------------------------
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double failed_frac =
      result.attempted ? static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted)
                       : 1.0;
  std::vector<Metric> e2e = {
      {"setup_s", setups[setups.size() / 2], "s"},  // median of kSetups
      {"ops_per_s", ops_per_s, "1/s"},
      percentile("read_p50_us", result.read_us, 0.50),
      percentile("read_p99_us", result.read_us, 0.99),
      percentile("write_p50_us", result.write_us, 0.50),
      percentile("write_p99_us", result.write_us, 0.99),
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
  // Printed for the workloads whose ops they time; not in the JSON line,
  // which carries only metrics every workload has.
  std::vector<Metric> extra = {{"failed_frac", failed_frac, "ratio"}};
  if (spec.writes_per_flush) {
    extra.push_back(percentile("flush_p50_us", result.flush_us, 0.50));
  }
  if (spec.hidden) {
    extra.push_back(percentile("hidden_load_p50_us", result.load_us, 0.50));
    extra.push_back(percentile("hidden_load_p90_us", result.load_us, 0.90));
    extra.push_back(percentile("hidden_store_p50_us", result.store_us, 0.50));
  }

  std::printf("# end-to-end (client-side, tracing off, %g s window; setup_s "
              "is the median of %d set-ups)\n",
              opt.seconds, kSetups);
  for (const auto& m : e2e) print_metric(m);
  for (const auto& m : extra) print_metric(m);
  for (auto [name, samples] : {std::pair<const char*, Samples*>{"read", &result.read_us},
                                {"write", &result.write_us}}) {
    std::printf("# %s latency quantiles (us):", name);
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
      const auto v = samples->quantile(q);
      if (v) std::printf(" p%g=%.1f", q * 100, *v);
    }
    std::printf("\n");
  }
  std::printf("# payload checks: %llu reads (%llu raw bit errors, at most "
              "%llu per page allowed) and %llu hidden loads (exact) verified, "
              "%llu mismatches, %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(result.verified_reads),
              static_cast<unsigned long long>(result.raw_bit_errors),
              static_cast<unsigned long long>(kMaxRawBitErrors),
              static_cast<unsigned long long>(result.verified_loads),
              static_cast<unsigned long long>(result.mismatches),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!result.first_error.empty()) {
    std::printf("# first failure: %s\n", result.first_error.c_str());
  }

  bool correct = result.failed == 0 && result.mismatches == 0 &&
                 result.verified_reads > 0 &&
                 (!spec.hidden || result.verified_loads > 0);
  const std::vector<Metric>* reported = &e2e;
  if (layers) {
    std::printf("# per-layer (traced window, %g s; unsupported percentiles "
                "read -1 in the JSON line)\n",
                opt.seconds);
    for (auto& m : layers->metrics) {
      print_metric(m);
      if (!m.supported) m.value = -1.0;
    }
    std::printf("# dominant layer: %s (expected one of", layers->dominant.c_str());
    for (const auto& l : spec.dominant) std::printf(" %s", l.c_str());
    std::printf(") -> %s; dev.request == queue_wait + service gap %llu ns\n",
                layers->dominant_ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(layers->request_gap_ns));
    correct = correct && layers->dominant_ok && layers->request_gap_ns == 0;
    reported = &layers->metrics;
  } else {
    for (const auto& m : e2e) {
      if (!m.supported) {
        std::printf("# %s is unsupported at this run length\n", m.name.c_str());
        correct = false;
      }
    }
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported->size(); ++i) {
    const Metric& m = (*reported)[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
