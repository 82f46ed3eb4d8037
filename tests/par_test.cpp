// stash::par tests: thread-pool semantics (inline mode, full coverage,
// slot-ordered map, exception propagation, back-to-back and concurrent
// jobs, the participant count), concurrency safety of the
// latency-histogram registry, the per-instance counter table and the span
// tracer under multi-threaded hammering, block-grouped program/read fan-out
// on a worker pool, and the determinism guarantee the stack's fan-out relies
// on: FlashChip ops grouped by block and run through
// ThreadPool::parallel_for produce bit-identical voltages, reads and ledger
// totals at any thread count.
//
// The hammering tests are the ThreadSanitizer targets: they pass trivially
// single-threaded and exist to give TSan real concurrent traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/nand/chip.hpp"
#include "stash/par/pool.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/rng.hpp"

namespace stash::par {
namespace {

nand::Geometry small_geometry() {
  nand::Geometry geom;
  geom.blocks = 16;
  geom.pages_per_block = 4;
  geom.cells_per_page = 256;
  return geom;
}

std::vector<std::uint8_t> page_bits(std::uint32_t chip, std::uint32_t block,
                                    std::uint32_t page, std::uint32_t cells) {
  util::Xoshiro256 rng(util::hash_words(chip, block, page));
  std::vector<std::uint8_t> bits(cells);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

// ---------------- ThreadPool ----------------

TEST(ThreadPool, InlineModeRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  // threads <= 1 is the serial loop; so is a one-index range on a pool
  // that has workers.
  for (const auto& [threads, n] :
       {std::pair<unsigned, std::size_t>{0, 5}, {1, 5}, {4, 1}}) {
    ThreadPool pool(threads);
    std::vector<std::size_t> order;
    pool.parallel_for(n, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
      order.push_back(i);
    });
    std::vector<std::size_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = i;
    EXPECT_EQ(order, expected) << threads << " threads";
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, MapPutsResultIInSlotI) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto out = pool.map<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The failed job left nothing behind: the next call covers every index.
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ManySmallParallelForCallsAllComplete) {
  // Back-to-back jobs stress the handoff: a worker still leaving job k
  // must not join job k + 1 twice or miss it.
  ThreadPool pool(4);
  constexpr int kCalls = 2000;
  std::atomic<int> ran{0};
  for (int c = 0; c < kCalls; ++c) {
    pool.parallel_for(3, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), 3 * (c + 1)) << "call " << c;
  }
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRangeOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  auto caller = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << "caller a, index " << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << "caller b, index " << i;
  }
}

TEST(ThreadPool, RunsOnExactlyThreadsCountingTheCaller) {
  constexpr unsigned kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::set<std::thread::id> seen;
  auto record = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  };
  // kThreads iterations that each wait for all of them to start: every
  // participant holds one index, so this needs kThreads distinct threads.
  std::atomic<unsigned> arrived{0};
  pool.parallel_for(kThreads, [&](std::size_t) {
    record();
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < kThreads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), kThreads);
  EXPECT_EQ(seen.size(), kThreads);
  // Many more iterations than threads still run on no more of them.
  seen.clear();
  pool.parallel_for(10000, [&](std::size_t) { record(); });
  EXPECT_LE(seen.size(), kThreads);
}

// ---------------- Telemetry under concurrency ----------------

TEST(Concurrency, MetricsRegistryHammeredFromManyThreads) {
  telemetry::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Mix registry lookups (map mutation under its mutex) with
      // histogram updates (atomics) — the production access pattern.
      auto& shared = reg.histogram("par.shared");
      auto& mine = reg.histogram("par.thread." + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        shared.record(static_cast<std::uint64_t>(i));
        mine.record(1);
        if (i % 1000 == 0) {
          (void)reg.histogram("par.shared");  // concurrent re-lookup
          (void)reg.snapshot();               // concurrent export
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // The hammering itself is the TSan payload; the totals show no update
  // was lost.
  constexpr std::uint64_t kSumPerThread =
      static_cast<std::uint64_t>(kPerThread) * (kPerThread - 1) / 2;
  EXPECT_EQ(reg.histogram("par.shared").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("par.shared").sum(), kThreads * kSumPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const auto& mine = reg.histogram("par.thread." + std::to_string(t));
    EXPECT_EQ(mine.count(), static_cast<std::uint64_t>(kPerThread));
    EXPECT_EQ(mine.bucket_count(1), static_cast<std::uint64_t>(kPerThread));
  }
  EXPECT_EQ(reg.snapshot().histograms.size(),
            static_cast<std::size_t>(kThreads) + 1);
}

// The one counter primitive: eight threads add() to one device's counter
// table while another thread snapshots it.  Every snapshot sees each
// field only grow, and the final totals are exact.
TEST(Concurrency, CounterTableAddedWhileSnapshotted) {
  using F = dev::DeviceStats::Field;
  telemetry::CounterTable<dev::DeviceStats> table;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  bool monotone = true;
  std::thread reader([&] {
    dev::DeviceStats last;
    while (!stop.load(std::memory_order_acquire)) {
      const dev::DeviceStats now = table.snapshot();
      if (now.reads < last.reads || now.writes < last.writes ||
          now.bytes_copied < last.bytes_copied) {
        monotone = false;
      }
      last = now;
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.add(F::reads);
        table.add(F::bytes_copied, 3);
        if (t % 2 == 0) table.add(F::writes);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const dev::DeviceStats total = table.snapshot();
  constexpr auto kAll = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(total.reads, kAll);
  EXPECT_EQ(total.bytes_copied, 3 * kAll);
  EXPECT_EQ(total.writes, kAll / 2);
  EXPECT_EQ(total.trims, 0u);
  EXPECT_EQ(total.dispatches, 0u);
  EXPECT_TRUE(monotone);
  EXPECT_GT(snapshots.load(), 0);
}

// The one tracer under the same treatment: eight threads, each inside its
// own request trace, record spans while one of them also snapshots the
// buffers.  Every span must be kept, attributed to its own trace and root.
TEST(Concurrency, TracerHammeredFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 3000;
  auto root = [](int t) {
    return trace::make_root(static_cast<std::uint64_t>(t) + 1,
                            trace::Stage::kDevRequest, trace::Op::kNone, 0);
  };
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &root, t] {
      const trace::ContextGuard guard(root(t));
      for (int i = 0; i < kPerThread; ++i) {
        trace::ScopedSpan span(trace::Stage::kNandRead, trace::Op::kRead,
                               static_cast<std::uint64_t>(i), 32);
        span.set_cost_ns(static_cast<std::uint64_t>(i));
        if (t == 0 && i % 512 == 0) {
          (void)tracer.collect();  // concurrent reader
          (void)tracer.span_count();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  tracer.disable();
  const auto spans = tracer.collect();
  tracer.clear();

  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  for (const auto& rec : spans) {
    ASSERT_GE(rec.trace_id, 1u);
    ASSERT_LE(rec.trace_id, static_cast<std::uint64_t>(kThreads));
    const int t = static_cast<int>(rec.trace_id - 1);
    EXPECT_EQ(rec.parent_id, root(t).span_id);
    EXPECT_EQ(rec.dur_ns, rec.key);
    ids[t].push_back(rec.span_id);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ids[t].size(), static_cast<std::size_t>(kPerThread));
    std::sort(ids[t].begin(), ids[t].end());
    EXPECT_EQ(std::adjacent_find(ids[t].begin(), ids[t].end()), ids[t].end())
        << "duplicate span id in trace " << t + 1;
  }
}

// ---------------- The determinism guarantee ----------------

// The fan-out PageMappedFtl::read_batch_into uses: group ops by (chip, block)
// in first-appearance order, run one parallel_for task per group, and keep
// submission order inside a group.  A mixed workload (programs, same-block
// erase->program sequences, reads and probes, interleaved across two chips)
// must give bit-identical reads, probe snapshots and ledger totals on an
// inline pool and on eight workers.
TEST(Determinism, BlockGroupedParallelForMatchesSerialBitForBit) {
  const auto geom = small_geometry();
  constexpr std::uint32_t kChips = 2;
  enum class Kind : std::uint8_t { kProgram, kErase, kRead, kProbe };
  struct Op {
    Kind kind;
    std::uint32_t chip;
    std::uint32_t block;
    std::uint32_t page;
    std::uint32_t pattern;  // page_bits() chip argument for programs
  };

  std::vector<Op> ops;
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      for (std::uint32_t c = 0; c < kChips; ++c) {
        ops.push_back({Kind::kProgram, c, b, p, c});
      }
    }
  }
  for (std::uint32_t c = 0; c < kChips; ++c) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      ops.push_back({Kind::kErase, c, b, 0, 0});
      ops.push_back({Kind::kProgram, c, b, 0, c + 2});
    }
  }
  for (std::uint32_t b = 0; b < geom.blocks; ++b) {
    for (std::uint32_t c = 0; c < kChips; ++c) {
      ops.push_back({Kind::kRead, c, b, 0, 0});
      ops.push_back({Kind::kProbe, c, b, geom.pages_per_block - 1, 0});
    }
  }

  // Group indices by (chip, block), first appearance first.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> group_key;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::pair<std::uint32_t, std::uint32_t> key{ops[i].chip,
                                                      ops[i].block};
    std::size_t g = 0;
    while (g < group_key.size() && group_key[g] != key) ++g;
    if (g == group_key.size()) {
      groups.emplace_back();
      group_key.push_back(key);
    }
    groups[g].push_back(i);
  }

  struct Snapshot {
    std::vector<util::ErrorCode> statuses;
    std::vector<std::vector<std::uint8_t>> reads;
    std::vector<std::vector<int>> probes;
    std::vector<nand::CostLedger> ledgers;
  };

  auto run = [&](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<nand::FlashChip>> chips;
    for (std::uint32_t c = 0; c < kChips; ++c) {
      chips.push_back(std::make_unique<nand::FlashChip>(
          geom, nand::NoiseModel::vendor_a(),
          util::hash_words(0xD373C7, 0xC417A55AULL, c)));
    }
    Snapshot snap;
    snap.statuses.resize(ops.size(), util::ErrorCode::kOk);
    snap.reads.resize(ops.size());
    snap.probes.resize(ops.size());
    pool.parallel_for(groups.size(), [&](std::size_t g) {
      for (const std::size_t i : groups[g]) {
        const Op& op = ops[i];
        nand::FlashChip& chip = *chips[op.chip];
        switch (op.kind) {
          case Kind::kProgram:
            snap.statuses[i] =
                chip.program_page(op.block, op.page,
                                  page_bits(op.pattern, op.block, op.page,
                                            geom.cells_per_page))
                    .code();
            break;
          case Kind::kErase:
            snap.statuses[i] = chip.erase_block(op.block).code();
            break;
          case Kind::kRead:
            snap.reads[i] = chip.read_page(op.block, op.page);
            break;
          case Kind::kProbe:
            snap.probes[i] = chip.probe_voltages(op.block, op.page);
            break;
        }
      }
    });
    for (const auto& chip : chips) snap.ledgers.push_back(chip->ledger());
    return snap;
  };

  const Snapshot serial = run(1);
  const Snapshot parallel = run(8);

  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(serial.statuses[i], util::ErrorCode::kOk) << "op " << i;
    EXPECT_EQ(serial.statuses[i], parallel.statuses[i]) << "op " << i;
    EXPECT_EQ(serial.reads[i], parallel.reads[i]) << "read op " << i;
    EXPECT_EQ(serial.probes[i], parallel.probes[i]) << "probe op " << i;
    if (ops[i].kind == Kind::kRead) {
      EXPECT_EQ(serial.reads[i].size(), geom.cells_per_page);
    }
    if (ops[i].kind == Kind::kProbe) {
      EXPECT_EQ(serial.probes[i].size(), geom.cells_per_page);
    }
  }
  ASSERT_EQ(serial.ledgers.size(), parallel.ledgers.size());
  for (std::size_t c = 0; c < serial.ledgers.size(); ++c) {
    EXPECT_EQ(serial.ledgers[c].reads, parallel.ledgers[c].reads);
    EXPECT_EQ(serial.ledgers[c].programs, parallel.ledgers[c].programs);
    EXPECT_EQ(serial.ledgers[c].erases, parallel.ledgers[c].erases);
    EXPECT_EQ(serial.ledgers[c].time_us(), parallel.ledgers[c].time_us());
    EXPECT_EQ(serial.ledgers[c].energy_uj(), parallel.ledgers[c].energy_uj());
  }
}

// Programs and reads fanned out one (chip, block) group per task on four
// workers: every program succeeds, every page reads back its bits (public
// reads are near-noiseless at vendor_a defaults on fresh blocks) and the
// ledgers count each op exactly once.
TEST(Determinism, BlockGroupedProgramThenReadRoundTrips) {
  const auto geom = small_geometry();
  constexpr std::uint32_t kChips = 2;
  ThreadPool pool(4);
  std::vector<std::unique_ptr<nand::FlashChip>> chips;
  for (std::uint32_t c = 0; c < kChips; ++c) {
    chips.push_back(std::make_unique<nand::FlashChip>(
        geom, nand::NoiseModel::vendor_a(),
        util::hash_words(0xA11CE, 0xC417A55AULL, c)));
  }
  const std::size_t groups = static_cast<std::size_t>(kChips) * geom.blocks;
  const std::size_t pages = groups * geom.pages_per_block;
  auto page_index = [&](std::uint32_t c, std::uint32_t b, std::uint32_t p) {
    return (static_cast<std::size_t>(c) * geom.blocks + b) *
               geom.pages_per_block +
           p;
  };

  std::vector<util::ErrorCode> statuses(pages, util::ErrorCode::kOk);
  pool.parallel_for(groups, [&](std::size_t g) {
    const auto c = static_cast<std::uint32_t>(g / geom.blocks);
    const auto b = static_cast<std::uint32_t>(g % geom.blocks);
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      statuses[page_index(c, b, p)] =
          chips[c]
              ->program_page(b, p, page_bits(c, b, p, geom.cells_per_page))
              .code();
    }
  });
  std::vector<std::vector<std::uint8_t>> reads(pages);
  pool.parallel_for(groups, [&](std::size_t g) {
    const auto c = static_cast<std::uint32_t>(g / geom.blocks);
    const auto b = static_cast<std::uint32_t>(g % geom.blocks);
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      reads[page_index(c, b, p)] = chips[c]->read_page(b, p);
    }
  });

  std::size_t bit_errors = 0;
  for (std::uint32_t c = 0; c < kChips; ++c) {
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        const std::size_t i = page_index(c, b, p);
        EXPECT_EQ(statuses[i], util::ErrorCode::kOk) << "page " << i;
        const auto expected = page_bits(c, b, p, geom.cells_per_page);
        ASSERT_EQ(reads[i].size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k) {
          bit_errors += (reads[i][k] ^ expected[k]) & 1;
        }
      }
    }
  }
  // ~1e-5 public BER: allow a small handful across 32k cells.
  EXPECT_LE(bit_errors, 8u);
  for (const auto& chip : chips) {
    const auto ledger = chip->ledger();
    EXPECT_EQ(ledger.programs,
              static_cast<std::uint64_t>(geom.blocks) * geom.pages_per_block);
    EXPECT_EQ(ledger.reads, ledger.programs);
    EXPECT_EQ(ledger.erases, 0u);
  }
}

// Direct FlashChip concurrency: operations on DISTINCT blocks from many
// threads must land bit-identically to a serial run in any interleaving
// (per-block RNG streams), and the fixed-point ledger must agree exactly.
TEST(Determinism, DistinctBlockOpsAreOrderFree) {
  const auto geom = small_geometry();
  auto run = [&](bool threaded) {
    nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), 4242);
    auto work = [&](std::uint32_t b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        (void)chip.program_page(b, p, page_bits(0, b, p,
                                                geom.cells_per_page));
      }
      (void)chip.erase_block(b);
      (void)chip.program_page(b, 0, page_bits(1, b, 0,
                                              geom.cells_per_page));
      chip.bake_block(b, 24.0);
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (std::uint32_t b = 0; b < geom.blocks; ++b) {
        threads.emplace_back(work, b);
      }
      for (auto& t : threads) t.join();
    } else {
      for (std::uint32_t b = 0; b < geom.blocks; ++b) work(b);
    }
    std::vector<std::vector<int>> volts;
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      volts.push_back(chip.probe_voltages(b, 0));
    }
    return std::make_pair(std::move(volts), chip.ledger());
  };

  const auto [serial_volts, serial_ledger] = run(false);
  const auto [threaded_volts, threaded_ledger] = run(true);
  ASSERT_EQ(serial_volts.size(), threaded_volts.size());
  for (std::size_t b = 0; b < serial_volts.size(); ++b) {
    EXPECT_EQ(serial_volts[b], threaded_volts[b]) << "block " << b;
  }
  EXPECT_EQ(serial_ledger.programs, threaded_ledger.programs);
  EXPECT_EQ(serial_ledger.erases, threaded_ledger.erases);
  EXPECT_DOUBLE_EQ(serial_ledger.time_us(), threaded_ledger.time_us());
  EXPECT_DOUBLE_EQ(serial_ledger.energy_uj(), threaded_ledger.energy_uj());
}

}  // namespace
}  // namespace stash::par
