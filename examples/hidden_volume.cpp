// Hidden volume: the paper's §9.2 steganographic system.  A normal user
// runs a public volume through a page-mapping FTL; a hiding user stores a
// hidden file inside the public data, survives FTL garbage collection, and
// later mounts the hidden volume with nothing but the key.
//
// Exits 1 unless the mounted bytes equal the stored file and a mount with
// a different key finds nothing (kNotFound).
//
//   $ ./example_hidden_volume

#include <cstdio>
#include <string>

#include "stash/stego/volume.hpp"

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
  nand::Geometry geom;
  geom.blocks = 24;
  geom.pages_per_block = 16;
  geom.cells_per_page = 9024;
  nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), 99);

  const auto key =
      crypto::HidingKey::from_passphrase("mon droit", "hidden-volume-salt");
  const std::string secret =
      "ledger-2026: acct 4411 -> 7, acct 9023 -> 12, courier on thursday";

  // --- Session 1: the device in normal use, then a hidden file stored ---
  {
    stego::StegoVolume volume(chip, key);
    std::printf("public volume: %llu logical pages of %u bits\n",
                static_cast<unsigned long long>(volume.public_pages()),
                volume.page_bits());

    // Normal user fills a good part of the device.
    for (std::uint64_t lpn = 0; lpn < 120; ++lpn) {
      if (!volume.write_public(lpn, page_of(volume.page_bits(), lpn)).is_ok()) {
        std::fprintf(stderr, "public write failed\n");
        return 1;
      }
    }

    // Hiding user stores a file.
    const auto stored = volume.store_hidden(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(secret.data()), secret.size()));
    if (!stored.is_ok()) {
      std::fprintf(stderr, "store_hidden failed: %s\n",
                   stored.to_string().c_str());
      return 1;
    }
    std::printf("hidden file stored in %zu block(s), %zu bytes per chunk\n",
                volume.hidden_blocks().size(), volume.hidden_chunk_capacity());

    // Heavy public churn forces garbage collection through hidden blocks;
    // the volume rescues and re-embeds chunks automatically.
    util::Xoshiro256 rng(5);
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t lpn = rng.below(120);
      if (!volume.write_public(lpn, page_of(volume.page_bits(),
                                            1000 + static_cast<std::uint64_t>(i)))
               .is_ok()) {
        std::fprintf(stderr, "public write %d failed\n", i);
        return 1;
      }
    }
    (void)volume.reembed_pending();
    std::printf("after churn: GC runs %llu, chunk rescues %llu, re-embeds "
                "%llu, lost %llu (write amplification %.2f)\n",
                static_cast<unsigned long long>(volume.ftl_stats_snapshot().gc_runs),
                static_cast<unsigned long long>(volume.stats().rescues),
                static_cast<unsigned long long>(volume.stats().reembeds),
                static_cast<unsigned long long>(volume.stats().lost_chunks),
                volume.ftl_stats_snapshot().write_amplification());
  }

  // --- Session 2: a fresh mount with nothing but the key -----------------
  {
    stego::StegoVolume mounted(chip, key);
    const auto loaded = mounted.load_hidden();
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "mount failed: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    const std::string bytes(loaded.value().begin(), loaded.value().end());
    std::printf("mounted hidden volume: \"%s\"\n", bytes.c_str());
    if (bytes != secret) {
      std::fprintf(stderr, "mounted bytes differ from the stored file\n");
      return 1;
    }
  }

  // --- An intruder with a different key finds nothing ---------------------
  {
    const auto intruder_key =
        crypto::HidingKey::from_passphrase("guess", "hidden-volume-salt");
    stego::StegoVolume intruder(chip, intruder_key);
    const auto loaded = intruder.load_hidden();
    std::printf("intruder mount: %s\n",
                loaded.is_ok() ? "FOUND DATA (bug!)"
                               : loaded.status().to_string().c_str());
    if (loaded.status().code() != util::ErrorCode::kNotFound) {
      std::fprintf(stderr, "a wrong key must find no hidden volume\n");
      return 1;
    }
  }
  return 0;
}
