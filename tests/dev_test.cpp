// StashDevice tests: the async frontend's request scheduler (QoS ordering,
// full-batch dispatch, coalescing), read cache and write-back buffer
// semantics, the uniform config-validation contract, batch-API convention,
// thread-count determinism, concurrent submitters, device-level
// hidden-volume sharding, and the power-cut durability battery
// (flush-acknowledged data survives a cut at every operation index;
// unflushed data is reported lost, never corrupted).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stash/dev/cache.hpp"
#include "stash/dev/device.hpp"
#include "stash/fault/plan.hpp"
#include "stash/pack/pack.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/wire.hpp"

namespace stash::dev {
namespace {

using crypto::HidingKey;
using util::ErrorCode;

HidingKey test_key(std::uint8_t fill = 0x3d) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

DeviceConfig tiny_config() {
  DeviceConfig config;  // tiny geometry, 1 chip, inline pool
  config.seed = 2024;
  return config;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

std::size_t hamming(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d += (a[i] ^ b[i]) & 1;
  }
  return d;
}

/// True when `read` is unambiguously the (noisy) readback of `wrote`:
/// within a quarter of the page of it, since random patterns differ in
/// about half their bits.
bool matches(std::span<const std::uint8_t> read,
             const std::vector<std::uint8_t>& wrote) {
  return hamming(read, wrote) < wrote.size() / 4;
}

// ---- Uniform config-validation contract (satellite: Status validate()) ----

TEST(DevConfig, ValidateRejectsBadSchedulerKnobs) {
  DeviceConfig config = tiny_config();
  EXPECT_TRUE(config.validate().is_ok());

  config.chips = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  config = tiny_config();
  config.write_back_pages = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(DevConfig, ValidatePropagatesNestedLayerConfigs) {
  DeviceConfig config = tiny_config();
  config.ftl.overprovision = 1.5;  // invalid FtlConfig
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.vthi.channel.vth = 0;  // invalid VthiConfig
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(DevConfig, ConstructorThrowsOnInvalidConfig) {
  DeviceConfig config = tiny_config();
  config.write_back_pages = 0;
  EXPECT_THROW(StashDevice(config, test_key()), std::invalid_argument);
}

TEST(DevConfig, SiblingLayerConfigsShareTheContract) {
  ftl::FtlConfig ftl;
  ftl.bad_block_program_fail_threshold = 0;
  EXPECT_EQ(ftl.validate().code(), ErrorCode::kInvalidArgument);

  vthi::VthiConfig vthi;
  vthi.channel.vth = vthi::kSelectGuard;  // the guard must exceed the threshold
  EXPECT_EQ(vthi.validate().code(), ErrorCode::kInvalidArgument);

  stego::StegoConfig stego;
  stego.ftl.overprovision = 1.0;
  EXPECT_EQ(stego.validate().code(), ErrorCode::kInvalidArgument);
}

// ---- Basic I/O, write-back semantics, bounds ------------------------------

TEST(DevIo, ReadYourWritesThroughBufferThenFlash) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 7);
  ASSERT_TRUE(dev.write(3, page).is_ok());

  // Before any flush, the read is served verbatim from the write-back
  // buffer — exact bytes, no flash noise, no flash read op.
  const auto before = dev.ledger().reads;
  auto staged = dev.read(3);
  ASSERT_TRUE(staged.is_ok());
  EXPECT_EQ(staged.value(), page);
  EXPECT_EQ(dev.ledger().reads, before);
  EXPECT_GE(dev.stats_snapshot().buffer_hits, 1u);

  ASSERT_TRUE(dev.flush().is_ok());
  auto durable = dev.read(3);
  ASSERT_TRUE(durable.is_ok());
  EXPECT_TRUE(matches(durable.value(), page));
}

TEST(DevIo, TrimTombstonesThroughBufferAndFlash) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 11);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  ASSERT_TRUE(dev.trim(0).is_ok());
  // Buffered tombstone answers before flush...
  EXPECT_EQ(dev.read(0).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(dev.flush().is_ok());
  // ...and the FTL answers after.
  EXPECT_EQ(dev.read(0).status().code(), ErrorCode::kNotFound);
}

TEST(DevIo, BoundsAndSizeErrorsAreStatuses) {
  StashDevice dev(tiny_config(), test_key());
  EXPECT_EQ(dev.read(dev.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.write(dev.logical_pages(), page_pattern(dev.page_bits(), 1))
                .code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.trim(dev.logical_pages()).code(), ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.write(0, std::vector<std::uint8_t>(3)).code(),
            ErrorCode::kInvalidArgument);
  // A rejected request is not an acknowledged one.
  const DeviceStats stats = dev.stats_snapshot();
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.trims, 0u);
}

TEST(DevIo, WriteThroughModeIsDurableOnAck) {
  // A one-page write-back buffer flushes on every write, before the ack.
  DeviceConfig config = tiny_config();
  config.write_back_pages = 1;
  StashDevice dev(config, test_key());
  const auto page = page_pattern(dev.page_bits(), 21);
  const auto programs_before = dev.ledger().programs;
  ASSERT_TRUE(dev.write(5, page).is_ok());
  EXPECT_GT(dev.ledger().programs, programs_before);
  auto r = dev.read(5);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), page));
}

TEST(DevIo, OnePageBufferAcksOnlyDurableWritesAndTrims) {
  // With a one-page buffer nothing acknowledged is left volatile: a power
  // cut right after the acks loses nothing, and the trim sticks.
  DeviceConfig config = tiny_config();
  config.write_back_pages = 1;
  StashDevice dev(config, test_key());
  const auto kept = page_pattern(dev.page_bits(), 22);
  ASSERT_TRUE(dev.write(4, kept).is_ok());
  ASSERT_TRUE(dev.write(6, page_pattern(dev.page_bits(), 23)).is_ok());
  ASSERT_TRUE(dev.trim(6).is_ok());

  ASSERT_TRUE(dev.power_cycle().is_ok());
  EXPECT_TRUE(dev.lost_writes().empty());
  EXPECT_EQ(dev.stats_snapshot().lost_writes, 0u);
  auto r = dev.read(4);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), kept));
  EXPECT_EQ(dev.read(6).status().code(), ErrorCode::kNotFound);
}

TEST(DevIo, OnlyStagedWritesAndTrimsAreCounted) {
  // Accepted and rejected calls interleaved: the counters track exactly
  // the accepted ones.
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 24);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_FALSE(dev.write(dev.logical_pages(), page).is_ok());
  ASSERT_TRUE(dev.write(1, page).is_ok());
  ASSERT_FALSE(dev.write(2, std::vector<std::uint8_t>(5)).is_ok());
  ASSERT_TRUE(dev.trim(1).is_ok());
  ASSERT_FALSE(dev.trim(dev.logical_pages() + 3).is_ok());
  const DeviceStats stats = dev.stats_snapshot();
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.trims, 1u);
}

TEST(DevIo, RewritesCoalesceInTheBuffer) {
  StashDevice dev(tiny_config(), test_key());
  const auto v1 = page_pattern(dev.page_bits(), 31);
  const auto v2 = page_pattern(dev.page_bits(), 32);
  ASSERT_TRUE(dev.write(2, v1).is_ok());
  ASSERT_TRUE(dev.write(2, v2).is_ok());
  EXPECT_EQ(dev.stats_snapshot().coalesced_writes, 1u);

  const auto programs_before = dev.ledger().programs;
  ASSERT_TRUE(dev.flush().is_ok());
  // Only the surviving version reaches flash.
  EXPECT_EQ(dev.ledger().programs, programs_before + 1);
  auto r = dev.read(2);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), v2));
}

TEST(DevIo, BufferCapacityTriggersBackpressureFlush) {
  DeviceConfig config = tiny_config();
  config.write_back_pages = 4;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 40 + lpn))
                    .is_ok());
  }
  const auto stats = dev.stats_snapshot();
  EXPECT_GE(stats.flushes, 1u);
  EXPECT_GE(stats.flushed_pages, 4u);
}

// ---- Latency records -------------------------------------------------------
// perfbench sums dev.flush_latency_ns, so it must see exactly one sample per
// flush; perf_baseline gates the p99 of the read requests' dev.request spans,
// so each read must get exactly one root.

TEST(DevLatency, EachFlushRecordsOneTimedSample) {
  StashDevice dev(tiny_config(), test_key());
  const auto& hist =
      telemetry::MetricsRegistry::global().histogram("dev.flush_latency_ns");
  for (std::uint64_t lpn = 0; lpn < 3; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 60 + lpn)).is_ok());
    const std::uint64_t count = hist.count();
    const std::uint64_t sum = hist.sum();
    ASSERT_TRUE(dev.flush().is_ok());
    EXPECT_EQ(hist.count(), count + 1);
    EXPECT_GT(hist.sum(), sum);
  }
  // Nothing staged: the flush does no work and records nothing.
  const std::uint64_t count = hist.count();
  ASSERT_TRUE(dev.flush().is_ok());
  EXPECT_EQ(hist.count(), count);
}

TEST(DevLatency, EachReadGetsOneRequestRoot) {
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 71)).is_ok());
  ASSERT_TRUE(dev.write(4, page_pattern(dev.page_bits(), 74)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.write(2, page_pattern(dev.page_bits(), 72)).is_ok());
  const std::uint64_t reads = dev.stats_snapshot().reads;
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kWall);

  ASSERT_TRUE(dev.read(2).is_ok());  // write-back buffer hit
  ASSERT_TRUE(dev.read(1).is_ok());  // flash
  ASSERT_TRUE(dev.read(1).is_ok());  // read cache hit
  const std::vector<std::uint64_t> twice = {4, 4};  // one miss, one coalesced
  for (const auto& r : dev.read_batch(twice)) ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(dev.read(dev.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);  // rejected, not served
  tracer.disable();

  std::size_t ok = 0;
  std::size_t failed = 0;
  for (const trace::SpanRecord& span : tracer.collect()) {
    if (span.parent_id != 0 || span.stage != trace::Stage::kDevRequest) {
      continue;
    }
    EXPECT_EQ(span.op, trace::Op::kRead);
    ++(span.status == 0 ? ok : failed);
  }
  tracer.clear();
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(dev.stats_snapshot().reads - reads, 5u);
}

/// The dev.request roots among `spans`: one per traced request.
std::vector<trace::SpanRecord> request_roots(
    const std::vector<trace::SpanRecord>& spans) {
  std::vector<trace::SpanRecord> roots;
  for (const trace::SpanRecord& span : spans) {
    if (span.parent_id == 0 && span.stage == trace::Stage::kDevRequest) {
      roots.push_back(span);
    }
  }
  return roots;
}

TEST(DevLatency, EachWriteAndTrimGetsOneRequestRoot) {
  StashDevice dev(tiny_config(), test_key());
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 81)).is_ok());
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 82)).is_ok());
  ASSERT_TRUE(dev.trim(1).is_ok());
  EXPECT_EQ(dev.write(dev.logical_pages(), page_pattern(dev.page_bits(), 83))
                .code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.write(2, std::vector<std::uint8_t>(3)).code(),
            ErrorCode::kInvalidArgument);
  tracer.disable();

  // A rejected request still gets its root, carrying the rejection.
  std::map<std::pair<trace::Op, std::uint8_t>, int> roots;
  for (const trace::SpanRecord& root : request_roots(tracer.collect())) {
    ++roots[{root.op, root.status}];
  }
  tracer.clear();
  const auto code = [](ErrorCode c) { return static_cast<std::uint8_t>(c); };
  EXPECT_EQ(roots,
            (std::map<std::pair<trace::Op, std::uint8_t>, int>{
                {{trace::Op::kWrite, 0}, 2},
                {{trace::Op::kTrim, 0}, 1},
                {{trace::Op::kWrite, code(ErrorCode::kOutOfBounds)}, 1},
                {{trace::Op::kWrite, code(ErrorCode::kInvalidArgument)}, 1}}));
}

TEST(DevLatency, ReadRootsCarryTheirLpnAndOwnTrace) {
  StashDevice dev(tiny_config(), test_key());
  for (std::uint64_t lpn = 0; lpn < 6; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 90 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  const std::vector<std::uint64_t> lpns = {3, 0, 5, 0};
  for (const auto& r : dev.read_batch(lpns)) ASSERT_TRUE(r.is_ok());
  tracer.disable();

  std::multiset<std::uint64_t> keys;
  std::set<std::uint64_t> traces;
  for (const trace::SpanRecord& root : request_roots(tracer.collect())) {
    EXPECT_EQ(root.op, trace::Op::kRead);
    keys.insert(root.key);
    traces.insert(root.trace_id);
  }
  tracer.clear();
  EXPECT_EQ(keys, (std::multiset<std::uint64_t>{0, 0, 3, 5}));
  EXPECT_EQ(traces.size(), 4u);  // the coalesced repeat is its own request
}

// perf_baseline's device p99 is the sorted dur_ns of wall-clock read roots,
// so a root must span enqueue to resolution: its queue wait, then its
// service, back to back.
TEST(DevLatency, WallReadRootIsQueueWaitThenService) {
  StashDevice dev(tiny_config(), test_key());
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 40 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kWall);
  const std::vector<std::uint64_t> lpns = {0, 1, 2, 3};
  for (const auto& r : dev.read_batch(lpns)) ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(dev.read(0).is_ok());  // read cache hit
  tracer.disable();
  const std::vector<trace::SpanRecord> spans = tracer.collect();
  tracer.clear();

  const std::vector<trace::SpanRecord> roots = request_roots(spans);
  ASSERT_EQ(roots.size(), 5u);
  for (const trace::SpanRecord& root : roots) {
    const trace::SpanRecord* wait = nullptr;
    const trace::SpanRecord* service = nullptr;
    for (const trace::SpanRecord& span : spans) {
      if (span.trace_id != root.trace_id || span.parent_id != root.span_id) {
        continue;
      }
      if (span.stage == trace::Stage::kDevQueueWait) wait = &span;
      if (span.stage == trace::Stage::kFtlService) service = &span;
    }
    ASSERT_NE(wait, nullptr) << "lpn " << root.key;
    ASSERT_NE(service, nullptr) << "lpn " << root.key;
    EXPECT_EQ(wait->begin_ns, root.begin_ns);
    EXPECT_EQ(service->begin_ns, wait->begin_ns + wait->dur_ns);
    EXPECT_EQ(root.dur_ns, wait->dur_ns + service->dur_ns);
  }
}

// perf_baseline enables the tracer only around its read loop; the reads
// must still get the trace ids a run traced from the start gives them.
TEST(DevLatency, MidRunEnableKeepsFromTheStartTraceIds) {
  const auto read_traces = [](bool trace_writes) {
    auto& tracer = trace::Tracer::global();
    tracer.clear();
    if (trace_writes) tracer.enable(trace::ClockMode::kVirtual);
    StashDevice dev(tiny_config(), test_key());
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 20 + lpn)).is_ok());
    }
    EXPECT_TRUE(dev.flush().is_ok());
    if (!trace_writes) tracer.enable(trace::ClockMode::kVirtual);
    const std::vector<std::uint64_t> lpns = {2, 0, 3, 1};
    for (const auto& r : dev.read_batch(lpns)) EXPECT_TRUE(r.is_ok());
    tracer.disable();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;  // (lpn, trace)
    for (const trace::SpanRecord& root : request_roots(tracer.collect())) {
      if (root.op == trace::Op::kRead) ids.emplace_back(root.key, root.trace_id);
    }
    tracer.clear();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto late = read_traces(false);
  ASSERT_EQ(late.size(), 4u);
  EXPECT_EQ(late, read_traces(true));
}

// Untraced (perfbench's runs and perf_baseline's other phases), requests
// emit no span at all; the flush-time sum is still fed.
TEST(DevLatency, UntracedRequestsEmitNoSpans) {
  StashDevice dev(tiny_config(), test_key());
  auto& tracer = trace::Tracer::global();
  tracer.disable();
  tracer.clear();
  const auto& hist =
      telemetry::MetricsRegistry::global().histogram("dev.flush_latency_ns");
  const std::uint64_t flushes = hist.count();

  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 30)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.read(0).is_ok());
  const std::vector<std::uint64_t> lpns = {0, 0};
  for (const auto& r : dev.read_batch(lpns)) ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(dev.trim(0).is_ok());
  auto gc = dev.submit_gc();
  dev.drain();
  // A near-empty device has no GC victim; the request still runs.
  EXPECT_EQ(gc.get().code(), ErrorCode::kNoSpace);

  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(hist.count(), flushes + 1);
}

// ---- Read cache -----------------------------------------------------------

TEST(DevCache, RepeatReadsServeFromCacheWithoutFlashReads) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 51);
  ASSERT_TRUE(dev.write(1, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto first = dev.read(1);
  ASSERT_TRUE(first.is_ok());
  const auto reads_after_miss = dev.ledger().reads;
  auto second = dev.read(1);
  ASSERT_TRUE(second.is_ok());
  // The cached copy is the first read's exact snapshot and costs no op.
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(dev.ledger().reads, reads_after_miss);
  const auto stats = dev.stats_snapshot();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GT(stats.cache_hit_ratio(), 0.0);
}

TEST(DevCache, WritesInvalidateTheCachedPage) {
  StashDevice dev(tiny_config(), test_key());
  const auto v1 = page_pattern(dev.page_bits(), 61);
  const auto v2 = page_pattern(dev.page_bits(), 62);
  ASSERT_TRUE(dev.write(4, v1).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.read(4).is_ok());  // populate cache with v1

  ASSERT_TRUE(dev.write(4, v2).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  auto r = dev.read(4);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), v2));
}

TEST(DevCache, ZeroCapacityDisablesTheCache) {
  DeviceConfig config = tiny_config();
  config.read_cache_pages = 0;
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 71)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.read(0).is_ok());
  const auto reads_before = dev.ledger().reads;
  ASSERT_TRUE(dev.read(0).is_ok());
  EXPECT_GT(dev.ledger().reads, reads_before);  // every read hits flash
  EXPECT_EQ(dev.stats_snapshot().cache_hits, 0u);
}

TEST(DevCache, OneBudgetKeepsPagesThatShareAResidue) {
  // 0, 4, 8 and 12 are all 0 mod 4: a cache split by lpn % 4 kept one of
  // them.  One LRU of four pages keeps all four.
  ReadCache cache(4);
  for (const std::uint64_t lpn : {0u, 4u, 8u, 12u}) {
    cache.insert(lpn, dev::PageRef::adopt(std::vector<std::uint8_t>(
                          8, static_cast<std::uint8_t>(lpn))));
  }
  EXPECT_EQ(cache.size(), 4u);
  for (const std::uint64_t lpn : {0u, 4u, 8u, 12u}) {
    EXPECT_TRUE(cache.lookup(lpn).has_value()) << "lpn " << lpn;
  }
}

TEST(DevCache, EvictsTheLeastRecentlyUsedPage) {
  ReadCache cache(2);
  cache.insert(1, dev::PageRef::adopt(std::vector<std::uint8_t>(8, 1)));
  cache.insert(2, dev::PageRef::adopt(std::vector<std::uint8_t>(8, 2)));
  ASSERT_TRUE(cache.lookup(1).has_value());  // 2 is now the oldest
  cache.insert(3, dev::PageRef::adopt(std::vector<std::uint8_t>(8, 3)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST(DevCache, CoalescedReadsCountOneMissPerUniqueLpn) {
  // A batch of duplicate lpns performs one physical read; the telemetry
  // must agree.  Before the fix every duplicate probed the cache and
  // counted a miss of its own, inflating dev.cache_misses 4x here.
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 900)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  const std::uint64_t lpns[] = {0, 0, 0, 0};
  auto results = dev.read_batch(lpns);
  ASSERT_EQ(results.size(), 4u);
  for (auto& r : results) ASSERT_TRUE(r.is_ok());

  const auto stats = dev.stats_snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);  // one probe for the one unique lpn
  EXPECT_EQ(stats.cache_hits, 0u);    // duplicates coalesce, they don't hit
  EXPECT_EQ(stats.coalesced_reads, 3u);

  // The next round really does hit the cache — the accounting above is
  // coalescing, not a disabled cache.
  ASSERT_TRUE(dev.read(0).is_ok());
  EXPECT_EQ(dev.stats_snapshot().cache_hits, 1u);
}

// ---- Batch convention (satellite: one BatchResult shape) ------------------

TEST(DevBatch, ResultSlotsAlignWithRequestsAndFailuresAreIndependent) {
  StashDevice dev(tiny_config(), test_key());
  const auto p0 = page_pattern(dev.page_bits(), 81);
  const auto p1 = page_pattern(dev.page_bits(), 82);
  ASSERT_TRUE(dev.write(0, p0).is_ok());
  ASSERT_TRUE(dev.write(1, p1).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  const std::uint64_t lpns[] = {1, dev.logical_pages(), 0, 1};
  auto results = dev.read_batch(lpns);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].is_ok());
  EXPECT_TRUE(matches(results[0].value(), p1));
  EXPECT_EQ(results[1].status().code(), ErrorCode::kOutOfBounds);
  ASSERT_TRUE(results[2].is_ok());
  EXPECT_TRUE(matches(results[2].value(), p0));
  ASSERT_TRUE(results[3].is_ok());
  // Duplicate lpns in one round coalesce onto one physical read.
  EXPECT_EQ(results[3].value(), results[0].value());
  EXPECT_GE(dev.stats_snapshot().coalesced_reads, 1u);
}

// ---- Scheduler: QoS ordering and full-batch dispatch ----------------------

TEST(DevScheduler, ForegroundReadsOvertakeBackgroundWork) {
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 101)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto gc = dev.submit_gc();                      // background, submitted first
  auto read = dev.submit_read(0);                 // foreground
  dev.drain();
  ASSERT_TRUE(read.get().is_ok());
  (void)gc.get();

  const auto& order = dev.last_dispatch_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].kind, StashDevice::OpKind::kRead);
  EXPECT_EQ(order[0].priority, Priority::kForeground);
  EXPECT_EQ(order[1].kind, StashDevice::OpKind::kGc);
  EXPECT_EQ(order[1].priority, Priority::kBackground);
  EXPECT_GE(dev.stats_snapshot().gc_runs, 1u);
}

TEST(DevScheduler, FullBatchDispatchesInline) {
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 111)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  std::vector<std::future<util::Result<dev::PageRef>>> futs;
  for (std::size_t i = 0; i + 1 < kBatchPages; ++i) {
    futs.push_back(dev.submit_read(0));
  }
  // Below a full batch nothing dispatches without a drain...
  EXPECT_EQ(futs.front().wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  futs.push_back(dev.submit_read(0));
  // ...and the submission that fills it dispatches inline: all futures
  // are already ready.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().is_ok());
  }
  EXPECT_EQ(dev.stats_snapshot().dispatches, 1u);
}

TEST(DevScheduler, DrainRunsAPartialBatchAsOneRound) {
  // Below a full batch only a caller's drain() dispatches, and it runs
  // everything queued in a single round.
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 112);
  ASSERT_TRUE(dev.write(1, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  const std::uint64_t rounds = dev.stats_snapshot().dispatches;
  std::vector<std::future<util::Result<dev::PageRef>>> futs;
  for (int i = 0; i < 5; ++i) futs.push_back(dev.submit_read(1));
  EXPECT_EQ(dev.stats_snapshot().dispatches, rounds);
  dev.drain();
  EXPECT_EQ(dev.stats_snapshot().dispatches, rounds + 1);
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto r = f.get();
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(matches(r.value(), page));
  }
  dev.drain();  // empty queue: no round
  EXPECT_EQ(dev.stats_snapshot().dispatches, rounds + 1);
}

// ---- Determinism ----------------------------------------------------------

TEST(DevDeterminism, ThreadCountNeverChangesResultsOrCosts) {
  auto run = [](unsigned threads) {
    DeviceConfig config = tiny_config();
    config.chips = 2;
    config.threads = threads;
    StashDevice dev(config, test_key());
    const std::uint64_t pages = dev.logical_pages();
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      EXPECT_TRUE(
          dev.write(lpn, page_pattern(dev.page_bits(), 1000 + lpn)).is_ok());
    }
    EXPECT_TRUE(dev.flush().is_ok());
    std::vector<std::uint64_t> lpns;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) lpns.push_back(lpn);
    auto results = dev.read_batch(lpns);
    std::vector<std::vector<std::uint8_t>> bytes;
    for (auto& r : results) {
      bytes.push_back(r.is_ok() ? r.value().to_vector()
                                : std::vector<std::uint8_t>{});
    }
    return std::make_pair(bytes, dev.ledger());
  };

  const auto [serial_bytes, serial_ledger] = run(1);
  const auto [parallel_bytes, parallel_ledger] = run(8);
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_EQ(serial_ledger.reads, parallel_ledger.reads);
  EXPECT_EQ(serial_ledger.programs, parallel_ledger.programs);
  EXPECT_EQ(serial_ledger.erases, parallel_ledger.erases);
  EXPECT_EQ(serial_ledger.time_us(), parallel_ledger.time_us());
  EXPECT_EQ(serial_ledger.energy_uj(), parallel_ledger.energy_uj());
}

// Every device digest hangs off this derivation: chip i is seeded from
// (config.seed, i), so one root seed rebuilds every chip exactly.
TEST(DevDeterminism, ChipsDeriveDistinctSeeds) {
  DeviceConfig config = tiny_config();
  config.chips = 3;
  StashDevice dev(config, test_key());
  EXPECT_NE(dev.chip(0).serial(), dev.chip(1).serial());
  EXPECT_NE(dev.chip(1).serial(), dev.chip(2).serial());
  for (std::uint32_t c = 0; c < config.chips; ++c) {
    EXPECT_EQ(dev.chip(c).serial(),
              util::hash_words(config.seed, 0xC417A55AULL, c));
  }
}

// ---- Concurrent submitters ------------------------------------------------

TEST(DevConcurrency, ParallelSubmittersSeeTheirOwnWrites) {
  // Threads share the device mutex, the arena freelist, the read LRU and
  // the flush fan-out; each must still read back exactly what it wrote.
  DeviceConfig config = tiny_config();
  config.chips = 2;
  config.threads = 4;
  config.write_back_pages = 8;  // backpressure flushes race the submitters
  StashDevice dev(config, test_key());
  constexpr std::uint64_t kThreads = 4;
  const std::uint64_t span = dev.logical_pages() / kThreads;
  ASSERT_GE(span, 4u);

  std::vector<std::thread> workers;
  std::array<int, kThreads> mismatches{};
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::uint64_t first = t * span;
      for (std::uint64_t lpn = first; lpn < first + span; ++lpn) {
        if (!dev.write(lpn, page_pattern(dev.page_bits(), 7000 + lpn))
                 .is_ok()) {
          ++mismatches[t];
        }
      }
      if (!dev.flush().is_ok()) ++mismatches[t];
      for (std::uint64_t lpn = first; lpn < first + span; ++lpn) {
        auto r = dev.read(lpn);
        if (!r.is_ok() ||
            !matches(r.value(), page_pattern(dev.page_bits(), 7000 + lpn))) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(dev.stats_snapshot().writes, kThreads * span);
}

// ---- Hidden volume across chips -------------------------------------------

DeviceConfig hidden_config(std::uint32_t chips) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 77;
  config.chips = chips;
  return config;
}

void fill_public(StashDevice& dev, std::uint64_t seed) {
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), seed + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
}

/// `size` xoshiro bytes: incompressible, so the pack container is no
/// smaller than the payload and a payload sized past one chip spans chips.
std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> out(size);
  util::Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Hand-frame one device-level hidden segment and store it straight into
/// chip `c`'s volume, bypassing the device's store path.
void plant_segment(StashDevice& dev, std::uint32_t c, std::uint16_t index,
                   std::uint16_t used_chips, std::uint16_t format,
                   std::uint64_t digest,
                   std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> segment;
  util::ByteWriter w(segment);
  w.u16(index);
  w.u16(used_chips);
  w.u16(format);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(digest);
  w.raw(payload);
  ASSERT_TRUE(dev.volume(c).store_hidden(segment).is_ok());
}

TEST(DevHidden, PayloadShardsAcrossChipsAndRoundTrips) {
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 5000);

  // Larger than chip 0 alone can hold, so the payload must span chips.
  const std::size_t chip0_capacity = dev.volume(0).hidden_capacity_bytes();
  ASSERT_GT(chip0_capacity, 0u);
  const auto secret = random_bytes(chip0_capacity + 64, 99);

  ASSERT_TRUE(dev.store_hidden(secret).is_ok());
  auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value(), secret);
}

TEST(DevHidden, MissingSegmentIsCorruptionNotSilence) {
  // An incompressible payload larger than chip 0 must span both chips.
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 6000);
  const std::size_t chip0_capacity = dev.volume(0).hidden_capacity_bytes();
  const auto secret = random_bytes(chip0_capacity + 64, 6001);
  ASSERT_TRUE(dev.store_hidden(secret).is_ok());

  // Destroy chip 1's segment; the device-level framing must flag the
  // incomplete reassembly instead of splicing what remains.
  ASSERT_TRUE(dev.volume(1).panic_erase().is_ok());
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kCorrupted);
}

TEST(DevHidden, NoHiddenVolumeIsNotFound) {
  StashDevice dev(hidden_config(1), test_key());
  fill_public(dev, 7000);
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kNotFound);
}

TEST(DevHidden, OversizedPayloadIsRejectedBeforeTouchingFlash) {
  StashDevice dev(hidden_config(1), test_key());
  fill_public(dev, 8000);
  std::size_t capacity = 0;
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    capacity += dev.volume(c).hidden_capacity_bytes();
  }
  const auto too_big = random_bytes(capacity + 4096, 8001);
  EXPECT_EQ(dev.store_hidden(too_big).code(), ErrorCode::kNoSpace);
}

TEST(DevHidden, FailedSpanningStoreKeepsPreviousPayloadLoadable) {
  // A multi-chip store that dies partway through must not leave a
  // Frankenstein hidden volume.  Chip 1's programs are forced to fail, so
  // the replacement's second segment can never land; the two-phase store
  // has to abort chip 0's already-prepared segment and leave the previous
  // generation fully loadable.  Before the fix chip 0 had already been
  // overwritten by the time chip 1 failed.
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 9000);

  const std::size_t cap0 = dev.volume(0).hidden_capacity_bytes();
  ASSERT_GT(cap0, 0u);
  const auto first = random_bytes(cap0 + 64, 41);
  ASSERT_TRUE(dev.store_hidden(first).is_ok());

  fault::FaultPlan plan(9);
  plan.fail_programs(1.0);
  dev.chip(1).set_fault_injector(&plan);
  // Sized to span again (capacities may have shrunk since the first
  // store), so chip 1 must carry a segment — and fail.
  const auto second =
      random_bytes(dev.volume(0).hidden_capacity_bytes() + 64, 42);
  EXPECT_FALSE(dev.store_hidden(second).is_ok());
  dev.chip(1).set_fault_injector(nullptr);

  const auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), first);
}

TEST(DevHidden, DuplicateHiddenSegmentIndexIsCorruption) {
  // Two chips answering with the same segment index is an inconsistent
  // chip set (a stale generation, a replayed image).  The reassembly used
  // to let the later chip silently overwrite the earlier one's slot and
  // report success; it must refuse instead.
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 9500);

  // Plant the identical segment, index 0 of a 1-segment payload, on BOTH
  // chips.
  const std::vector<std::uint8_t> payload(48, 0x77);
  for (std::uint32_t c = 0; c < 2; ++c) {
    plant_segment(dev, c, 0, 1, pack::kFormatVersion, util::fnv1a(payload),
                  payload);
  }

  const auto loaded = dev.load_hidden();
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupted);
}

TEST(DevHidden, InfoHeadroomStopsAtFirstChipWithoutRoom) {
  // Chip 1 gets no public data, so it has no hidden capacity.  The store
  // planner fills chips in order and stops at the first one with no room
  // (a later segment would leave a gap in the index), so chip 2's
  // capacity is unreachable and must not count as headroom.
  StashDevice dev(hidden_config(3), test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    if (lpn % 3 == 1) continue;  // lpn -> chip lpn % 3
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 9700 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_EQ(dev.volume(1).hidden_capacity_bytes(), 0u);
  ASSERT_GT(dev.volume(2).hidden_capacity_bytes(), 18u);
  ASSERT_TRUE(dev.store_hidden(random_bytes(32, 9701)).is_ok());

  const auto info = dev.hidden_info();
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  // 18 = the device's per-chip segment header.
  EXPECT_EQ(info.value().remaining_capacity_bytes,
            dev.volume(0).hidden_capacity_bytes() - 18);
}

// ---- Hidden segment-set input checks ---------------------------------------
//
// A real pack container, split over two chips and planted segment by
// segment, with one header field or payload byte disturbed per case.

/// How a planted two-chip segment set departs from a consistent one.
enum class SetFault { kNone, kDigest, kUsedChips, kFormat, kPayload };

struct PlantedSet {
  std::vector<std::uint8_t> secret;  // what a consistent set loads as
};

PlantedSet plant_two_chip_set(StashDevice& dev, SetFault fault) {
  PlantedSet out;
  out.secret = random_bytes(96, 9800);
  auto container = pack::pack(out.secret, pack::PackConfig{});
  EXPECT_TRUE(container.is_ok());
  const std::vector<std::uint8_t>& bytes = container.value();
  const std::uint64_t digest = util::fnv1a(bytes);
  const std::size_t half = bytes.size() / 2;
  const std::span<const std::uint8_t> head(bytes.data(), half);
  std::vector<std::uint8_t> tail(bytes.begin() + static_cast<long>(half),
                                 bytes.end());
  if (fault == SetFault::kPayload) tail.back() ^= 0x01;
  plant_segment(dev, 0, 0, 2, pack::kFormatVersion, digest, head);
  plant_segment(dev, 1, 1, fault == SetFault::kUsedChips ? 3 : 2,
                fault == SetFault::kFormat ? 0 : pack::kFormatVersion,
                fault == SetFault::kDigest ? digest ^ 1 : digest, tail);
  return out;
}

TEST(DevHidden, ConsistentPlantedSegmentSetLoads) {
  // Control for the cases below: the undisturbed plant reassembles, so
  // each of them fails because of its one disturbance.
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 9800);
  const PlantedSet set = plant_two_chip_set(dev, SetFault::kNone);
  const auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), set.secret);
}

class DevHiddenInput : public ::testing::TestWithParam<SetFault> {};

TEST_P(DevHiddenInput, InconsistentSegmentSetIsCorruption) {
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 9800);
  (void)plant_two_chip_set(dev, GetParam());
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kCorrupted);
  EXPECT_EQ(dev.hidden_info().status().code(), ErrorCode::kCorrupted);
}

INSTANTIATE_TEST_SUITE_P(
    , DevHiddenInput,
    ::testing::Values(SetFault::kDigest, SetFault::kUsedChips,
                      SetFault::kFormat, SetFault::kPayload),
    [](const ::testing::TestParamInfo<SetFault>& param) -> std::string {
      switch (param.param) {
        case SetFault::kDigest: return "digest_differs";
        case SetFault::kUsedChips: return "used_chips_differs";
        case SetFault::kFormat: return "format_differs";
        case SetFault::kPayload: return "payload_altered";
        case SetFault::kNone: break;
      }
      return "none";
    });

class DevHiddenFormat : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(DevHiddenFormat, UnwrittenSegmentFormatIsUnsupported) {
  // An intact generation (digest matches) tagged with a format this build
  // does not write — the old raw tag 0 or a future container version —
  // is kUnsupported from both load and describe, never bytes.
  StashDevice dev(hidden_config(1), test_key());
  fill_public(dev, 9900);
  auto container = pack::pack(random_bytes(64, 9901), pack::PackConfig{});
  ASSERT_TRUE(container.is_ok());
  plant_segment(dev, 0, 0, 1, GetParam(), util::fnv1a(container.value()),
                container.value());
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kUnsupported);
  EXPECT_EQ(dev.hidden_info().status().code(), ErrorCode::kUnsupported);
}

INSTANTIATE_TEST_SUITE_P(
    , DevHiddenFormat,
    ::testing::Values(std::uint16_t{0},
                      static_cast<std::uint16_t>(pack::kFormatVersion + 1)),
    [](const ::testing::TestParamInfo<std::uint16_t>& param) {
      return "format" + std::to_string(param.param);
    });

// ---- Power-cut battery (satellite: write-back cache under stash::fault) ---

struct CutOutcome {
  util::Status flush1;
  util::Status flush2;
  std::set<std::uint64_t> lost;
};

constexpr std::uint64_t kCutLpns = 4;

/// The canonical write-back workload: v1 everywhere, flush, v2 everywhere,
/// flush.  Returns the two flush verdicts.
CutOutcome run_cut_workload(StashDevice& dev) {
  CutOutcome out;
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    (void)dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn));
  }
  out.flush1 = dev.flush();
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    (void)dev.write(lpn, page_pattern(dev.page_bits(), 300 + lpn));
  }
  out.flush2 = dev.flush();
  return out;
}

TEST(DevPowerCut, FlushAckedDataSurvivesACutAtEveryOpIndex) {
  // Count the workload's chip operations once, fault-free.
  std::uint64_t total_ops = 0;
  {
    StashDevice dev(tiny_config(), test_key());
    fault::FaultPlan probe(1);
    dev.set_fault_injector(&probe);
    (void)run_cut_workload(dev);
    dev.set_fault_injector(nullptr);
    total_ops = probe.ops_seen();
  }
  ASSERT_GT(total_ops, 0u);

  for (std::uint64_t cut = 0; cut <= total_ops; ++cut) {
    StashDevice dev(tiny_config(), test_key());
    fault::FaultPlan plan(1);
    plan.power_cut_at(cut, 0.0);
    dev.set_fault_injector(&plan);
    const CutOutcome outcome = run_cut_workload(dev);

    plan.restore_power();
    ASSERT_TRUE(dev.power_cycle().is_ok());
    // Recovery inspection must not itself trip the (replayed) schedule.
    dev.set_fault_injector(nullptr);
    std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                                 dev.lost_writes().end());

    for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
      const auto v1 = page_pattern(dev.page_bits(), 200 + lpn);
      const auto v2 = page_pattern(dev.page_bits(), 300 + lpn);
      auto r = dev.read(lpn);
      const bool is_v2 = r.is_ok() && matches(r.value(), v2);
      if (r.is_ok()) {
        // Never corrupted: whatever comes back is a version that was
        // actually acknowledged, not a splice or garbage.
        EXPECT_TRUE(matches(r.value(), v1) || is_v2)
            << "cut=" << cut << " lpn=" << lpn << " returned garbage";
      } else {
        EXPECT_EQ(r.status().code(), ErrorCode::kNotFound)
            << "cut=" << cut << " lpn=" << lpn;
      }
      if (outcome.flush2.is_ok()) {
        // Acknowledged flush => durable, cut or no cut.
        EXPECT_TRUE(is_v2) << "cut=" << cut << " lpn=" << lpn
                           << " lost data flush() acknowledged";
      }
      if (outcome.flush1.is_ok() && !lost.count(lpn)) {
        EXPECT_TRUE(r.is_ok())
            << "cut=" << cut << " lpn=" << lpn
            << " flushed data vanished entirely";
      }
      if (lost.count(lpn)) {
        // Reported lost => the staged (v2) version must NOT be readable;
        // the device never pretends a lost write survived.
        EXPECT_FALSE(is_v2) << "cut=" << cut << " lpn=" << lpn
                            << " reported lost but v2 is durable";
      }
    }
  }
}

TEST(DevPowerCut, UnflushedWritesAreReportedLostNeverCorrupted) {
  StashDevice dev(tiny_config(), test_key());
  fault::FaultPlan plan(2);
  dev.set_fault_injector(&plan);

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 300 + lpn)).is_ok());
  }

  plan.cut_power();
  EXPECT_FALSE(dev.flush().is_ok());  // the drain must not pretend success
  plan.restore_power();
  ASSERT_TRUE(dev.power_cycle().is_ok());

  std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                               dev.lost_writes().end());
  EXPECT_EQ(lost.size(), kCutLpns);
  EXPECT_EQ(dev.stats_snapshot().lost_writes, kCutLpns);
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    EXPECT_TRUE(lost.count(lpn));
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok());
    // The durable (v1) version is intact — lost means "rolled back",
    // never "mangled".
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 200 + lpn)));
  }
}

TEST(DevPowerCut, QueuedRequestsResolveWithPowerLoss) {
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 401)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto pending = dev.submit_read(0);
  ASSERT_TRUE(dev.power_cycle().is_ok());
  EXPECT_EQ(pending.get().status().code(), ErrorCode::kPowerLoss);
}

TEST(DevPowerCut, CutWithNonEmptyQueueResolvesEveryKindAndKeepsDurableData) {
  // Power cut with a *mixed* non-empty submission queue: every queued
  // request kind resolves kPowerLoss (no hung futures, no spurious
  // success), acked-unflushed buffered writes land in lost_writes(), and
  // flush-acknowledged data is still readable afterward.
  StashDevice dev(tiny_config(), test_key());

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  // Stage (ack) two more writes but do not flush: candidates for loss.
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 300)).is_ok());
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 301)).is_ok());

  // Fill the queue with every async kind, none dispatched yet.
  static_assert(kCutLpns + 2 < kBatchPages);
  std::vector<std::future<util::Result<dev::PageRef>>> reads;
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    reads.push_back(dev.submit_read(lpn));
  }
  auto hidden = dev.submit_load_hidden();
  auto gc = dev.submit_gc();

  ASSERT_TRUE(dev.power_cycle().is_ok());

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_EQ(reads[lpn].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "queued read " << lpn << " left hanging by the cut";
    EXPECT_EQ(reads[lpn].get().status().code(), ErrorCode::kPowerLoss);
  }
  EXPECT_EQ(hidden.get().status().code(), ErrorCode::kPowerLoss);
  EXPECT_EQ(gc.get().code(), ErrorCode::kPowerLoss);

  // The two unflushed writes are reported lost; the flushed versions
  // survive byte-for-byte.
  std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                               dev.lost_writes().end());
  EXPECT_EQ(lost, (std::set<std::uint64_t>{0, 1}));
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 200 + lpn)))
        << "lpn=" << lpn;
    EXPECT_FALSE(matches(r.value(), page_pattern(dev.page_bits(), 300 + lpn)))
        << "lpn=" << lpn << " lost write became durable";
  }
}

}  // namespace
}  // namespace stash::dev
