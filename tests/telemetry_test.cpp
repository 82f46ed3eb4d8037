// Tests for stash::telemetry: the metrics registry (log-bucketed latency
// histograms and their snapshot), plus the visibility of each ONFI command
// sequence (including §5's PROGRAM -> RESET partial program) as one nand.*
// span in stash::trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stash/nand/onfi.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/trace/trace.hpp"

namespace stash::telemetry {
namespace {

TEST(LatencyHistogram, LogBucketing) {
  LatencyHistogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1: [1, 2)
  h.record(2);    // bucket 2: [2, 4)
  h.record(3);    // bucket 2
  h.record(4);    // bucket 3: [4, 8)
  h.record(1024);  // bucket 11
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  // p50 lands in bucket 2 -> geometric midpoint of [2, 4).
  EXPECT_GE(h.quantile(0.5), 2u);
  EXPECT_LT(h.quantile(0.5), 4u);
  // p99 is the largest sample's bucket [1024, 2048); the last rank in a
  // bucket interpolates to the bucket's (inclusive) upper edge.
  EXPECT_GE(h.quantile(0.99), 1024u);
  EXPECT_LE(h.quantile(0.99), 2048u);
}

TEST(LatencyHistogram, HugeSamplesClampToLastBucket) {
  LatencyHistogram h;
  h.record(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogram, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h;
  // Four samples, all in bucket 11 ([1024, 2048)).  The quantile should
  // read as a gradient across the bucket by rank, not one fixed point.
  for (int i = 0; i < 4; ++i) h.record(1500);
  EXPECT_EQ(h.quantile(0.25), 1280u);  // rank 1 of 4: lo + lo * 1/4
  EXPECT_EQ(h.quantile(0.50), 1536u);
  EXPECT_EQ(h.quantile(0.75), 1792u);
  EXPECT_EQ(h.quantile(1.00), 2048u);  // rank 4 of 4: bucket upper edge
  // q == 0 clamps to the first sample's rank, never a zero target.
  EXPECT_EQ(h.quantile(0.0), 1280u);
}

TEST(LatencyHistogram, P999ResolvesBeyondP99) {
  LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.record(4);  // bucket 3: [4, 8)
  h.record(1000);    // bucket 10: [512, 1024)
  h.record(100000);  // bucket 17: [65536, 131072)
  const std::uint64_t p99 = h.quantile(0.99);    // rank 99 -> bucket 10
  const std::uint64_t p999 = h.quantile(0.999);  // rank 100 -> bucket 17
  EXPECT_EQ(p99, 1024u);
  EXPECT_EQ(p999, 131072u);
  EXPECT_GT(p999, p99);
}

TEST(LatencyHistogram, SnapshotCarriesP999) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("lat");
  for (int i = 0; i < 98; ++i) h.record(4);
  h.record(1000);
  h.record(100000);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].p999, h.quantile(0.999));
  EXPECT_GT(snap.histograms[0].p999, snap.histograms[0].p99);
}

TEST(LatencyHistogram, ResetZeroesEveryBucket) {
  LatencyHistogram h;
  h.record(0);
  h.record(1500);
  h.record(~0ull);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(h.bucket_count(b), 0u) << "bucket " << b;
  }
  h.record(4);  // usable again after a reset
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(MetricsRegistry, HandsOutStableReferences) {
  MetricsRegistry reg;
  LatencyHistogram& a = reg.histogram("x");
  // A burst of other registrations must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    reg.histogram("h" + std::to_string(i));
  }
  LatencyHistogram& b = reg.histogram("x");
  EXPECT_EQ(&a, &b);
  a.record(7);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.sum(), 7u);
}

TEST(MetricsRegistry, SnapshotSummarizesHistogramsSortedByName) {
  MetricsRegistry reg;
  reg.histogram("b.lat").record(100);
  reg.histogram("a.lat").record(4);
  reg.histogram("a.lat").record(12);
  (void)reg.histogram("c.empty");

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 3u);
  EXPECT_EQ(snap.histograms[0].name, "a.lat");
  EXPECT_EQ(snap.histograms[1].name, "b.lat");
  EXPECT_EQ(snap.histograms[2].name, "c.empty");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].sum, 16u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean, 8.0);
  EXPECT_EQ(snap.histograms[0].p50, reg.histogram("a.lat").quantile(0.5));
  EXPECT_EQ(snap.histograms[1].count, 1u);
  EXPECT_EQ(snap.histograms[1].sum, 100u);
  EXPECT_EQ(snap.histograms[2].count, 0u);
  EXPECT_EQ(snap.histograms[2].p99, 0u);
}

// ---- ONFI sequences through the one tracer --------------------------------

// §5's practicality claim (hiding needs only PROGRAM, then RESET midway) stays
// observable without an opcode-level tracer: each OnfiDevice convenience
// sequence lands on the chip as exactly one nand.* span, addressed and costed
// like any other FlashChip operation.

struct OnfiSequence {
  const char* name;
  trace::Stage stage;
  trace::Op op;
  std::uint32_t bytes;  // bus bytes the span reports (256 per full page)
  double nand::OpCosts::*cost_us;
  std::uint32_t block;
  std::uint32_t page;
  util::Status (*run)(nand::OnfiDevice&, std::uint32_t, std::uint32_t);
};

const OnfiSequence kOnfiSequences[] = {
    {"program_page", trace::Stage::kNandProgram, trace::Op::kWrite, 256,
     &nand::OpCosts::program_us, 2, 0,
     [](nand::OnfiDevice& dev, std::uint32_t b, std::uint32_t p) {
       const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0xA5);
       return dev.program_page(b, p, bytes);
     }},
    {"partial_program_page", trace::Stage::kNandPartialProgram,
     trace::Op::kWrite, 0, &nand::OpCosts::partial_program_us, 2, 3,
     [](nand::OnfiDevice& dev, std::uint32_t b, std::uint32_t p) {
       const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0x00);
       return dev.partial_program_page(b, p, bytes, 0.5);
     }},
    {"read_page", trace::Stage::kNandRead, trace::Op::kRead, 256,
     &nand::OpCosts::read_us, 1, 0,
     [](nand::OnfiDevice& dev, std::uint32_t b, std::uint32_t p) {
       return dev.read_page(b, p).size() == dev.page_bytes()
                  ? util::Status::ok()
                  : util::Status{util::ErrorCode::kCorrupted, "short read"};
     }},
    {"erase_block", trace::Stage::kNandErase, trace::Op::kErase, 0,
     &nand::OpCosts::erase_us, 1, 0,
     [](nand::OnfiDevice& dev, std::uint32_t b, std::uint32_t) {
       return dev.erase_block(b);
     }},
};

void PrintTo(const OnfiSequence& seq, std::ostream* os) { *os << seq.name; }

const trace::TraceContext kRequestRoot =
    trace::make_root(1, trace::Stage::kDevRequest, trace::Op::kNone, 0);

struct TracedRun {
  util::Status status = util::Status::ok();
  std::vector<trace::SpanRecord> spans;
};

// Run one sequence on a fresh chip with the tracer on in virtual-clock mode,
// inside kRequestRoot when `in_request`, and return what the tracer saw.
TracedRun run_traced(const OnfiSequence& seq, bool in_request) {
  nand::Geometry geom = nand::Geometry::tiny();
  geom.cells_per_page = 2048;  // divisible by 8: 256 bus bytes per page
  nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), 7);
  nand::OnfiDevice dev(chip);
  // Untraced setup: give the read and erase cases a programmed page.
  const std::vector<std::uint8_t> setup(dev.page_bytes(), 0x3C);
  EXPECT_TRUE(dev.program_page(1, 0, setup).is_ok());

  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  TracedRun out;
  {
    const trace::ContextGuard guard(in_request ? kRequestRoot
                                               : trace::TraceContext{});
    out.status = seq.run(dev, seq.block, seq.page);
  }
  tracer.disable();
  out.spans = tracer.collect();
  tracer.clear();
  return out;
}

class OnfiSpan : public ::testing::TestWithParam<OnfiSequence> {};

TEST_P(OnfiSpan, SequenceEmitsOneNandSpan) {
  const OnfiSequence& seq = GetParam();
  const TracedRun run = run_traced(seq, /*in_request=*/true);

  ASSERT_TRUE(run.status.is_ok()) << run.status.message();
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_EQ(run.spans[0].stage, seq.stage);
  EXPECT_EQ(run.spans[0].key,
            (static_cast<std::uint64_t>(seq.block) << 32) | seq.page);
  EXPECT_EQ(run.spans[0].dur_ns,
            static_cast<std::uint64_t>(nand::OpCosts{}.*seq.cost_us * 1e3 +
                                       0.5));
  EXPECT_EQ(run.spans[0].status, 0);
}

// The span is attributed to the request that issued the sequence: same
// trace, parented directly on the request root, tagged with the operation
// class and the bus bytes it moved.
TEST_P(OnfiSpan, SpanNestsUnderIssuingRequest) {
  const OnfiSequence& seq = GetParam();
  const TracedRun run = run_traced(seq, /*in_request=*/true);

  ASSERT_TRUE(run.status.is_ok()) << run.status.message();
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_EQ(run.spans[0].trace_id, kRequestRoot.trace_id);
  EXPECT_EQ(run.spans[0].parent_id, kRequestRoot.span_id);
  EXPECT_NE(run.spans[0].span_id, kRequestRoot.span_id);
  EXPECT_EQ(run.spans[0].op, seq.op);
  EXPECT_EQ(run.spans[0].bytes, seq.bytes);
}

// NAND traffic issued outside any sampled request (setup, background GC,
// recovery) records nothing, even while the tracer is collecting.
TEST_P(OnfiSpan, SequenceOutsideARequestEmitsNothing) {
  const OnfiSequence& seq = GetParam();
  const TracedRun run = run_traced(seq, /*in_request=*/false);

  ASSERT_TRUE(run.status.is_ok()) << run.status.message();
  EXPECT_TRUE(run.spans.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSequences, OnfiSpan, ::testing::ValuesIn(kOnfiSequences),
    [](const ::testing::TestParamInfo<OnfiSequence>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace stash::telemetry
