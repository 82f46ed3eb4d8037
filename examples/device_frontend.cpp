// Device frontend: the stash::dev::StashDevice surface in one sitting —
// queued reads that overtake background work, write-back caching with an
// explicit flush, the sharded read LRU, hidden-volume ops sharded across
// a multi-chip array, and a power-cut rehearsal with stash::fault.
//
//   $ ./example_device_frontend

#include <cstdio>
#include <string>

#include "stash/dev/device.hpp"
#include "stash/fault/plan.hpp"
#include "stash/util/rng.hpp"

using namespace stash;

namespace {

std::vector<std::uint8_t> page_of(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

}  // namespace

int main() {
  dev::DeviceConfig config;
  config.geometry.blocks = 16;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 4096;
  config.chips = 2;       // LPNs stripe across chips: chip = lpn % 2
  config.threads = 4;     // results identical for any thread count
  config.seed = 4242;
  const auto key =
      crypto::HidingKey::from_passphrase("mon droit", "device-frontend");
  dev::StashDevice dev(config, key);
  std::printf("device: %llu logical pages x %u bits across %u chips\n",
              static_cast<unsigned long long>(dev.logical_pages()),
              dev.page_bits(), dev.chips());

  // --- Writes are acked when buffered, durable after flush() -------------
  for (std::uint64_t lpn = 0; lpn < 32; ++lpn) {
    if (!dev.write(lpn, page_of(dev.page_bits(), lpn)).is_ok()) {
      std::fprintf(stderr, "write %llu not acknowledged\n",
                   static_cast<unsigned long long>(lpn));
      return 1;
    }
  }
  if (!dev.flush().is_ok()) {
    std::fprintf(stderr, "flush failed\n");
    return 1;
  }
  std::printf("32 writes acknowledged and flushed\n");

  // --- The request kind is the schedule: a read overtakes queued GC ------
  auto gc = dev.submit_gc();
  auto urgent = dev.submit_read(0);
  dev.drain();
  const auto& order = dev.last_dispatch_order();
  std::printf("dispatch order: %s first (gc %s)\n",
              order.front().op == trace::Op::kRead ? "read" : "gc",
              gc.get().is_ok() ? "ok" : "failed");
  (void)urgent.get();

  // --- Repeat reads come from the read LRU, not flash --------------------
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) (void)dev.read(lpn);
  }
  const auto stats = dev.stats_snapshot();
  std::printf("read cache: %.0f%% hit ratio over %llu reads\n",
              stats.cache_hit_ratio() * 100.0,
              static_cast<unsigned long long>(stats.reads));

  // --- Hidden payloads shard across the chip array -----------------------
  const std::string secret = "meet at the second bridge, bring the ledger";
  auto stored = dev.store_hidden(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(secret.data()), secret.size()));
  if (!stored.is_ok()) {
    std::fprintf(stderr, "store_hidden failed: %s\n",
                 stored.to_string().c_str());
    return 1;
  }
  auto loaded = dev.load_hidden();
  std::printf("hidden round-trip: \"%s\"\n",
              loaded.is_ok()
                  ? std::string(loaded.value().begin(), loaded.value().end())
                        .c_str()
                  : loaded.status().to_string().c_str());

  // --- Power-cut rehearsal: acked-unflushed writes are reported lost ----
  // Acknowledged, but still in the write-back buffer.
  (void)dev.write(2, page_of(dev.page_bits(), 777));
  fault::FaultPlan plan(7);
  plan.cut_power();
  dev.set_fault_injector(&plan);
  (void)dev.flush();  // dark device: the drain fails, nothing is torn
  plan.restore_power();
  (void)dev.power_cycle();
  dev.set_fault_injector(nullptr);
  std::printf("after power cut: %zu acked-unflushed write(s) reported lost, "
              "lpn 2 still serves the flushed version: %s\n",
              dev.lost_writes().size(),
              dev.read(2).is_ok() ? "yes" : "no");
  return 0;
}
