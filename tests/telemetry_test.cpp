// Tests for stash::telemetry: the metrics registry's stable instrument
// references, plus the visibility of each ONFI command
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

TEST(MetricsRegistry, HandsOutStableReferences) {
  MetricsRegistry reg;
  LatencyHistogram& a = reg.histogram("x");
  // A burst of other registrations must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    // Two steps: at -O3, GCC 12 reports a false -Wrestrict on
    // "h" + std::to_string(i).
    std::string name = "h";
    name += std::to_string(i);
    reg.histogram(name);
  }
  LatencyHistogram& b = reg.histogram("x");
  EXPECT_EQ(&a, &b);
  a.record(7);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.sum(), 7u);
}

TEST(LatencyHistogram, CountsEverySampleAndSumsTheirValues) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  h.record(0);  // a zero-length sample still counts
  h.record(1);
  h.record(1024);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1030u);
}

TEST(MetricsRegistry, DistinctNamesGetIndependentInstruments) {
  MetricsRegistry reg;
  LatencyHistogram& a = reg.histogram("a.lat");
  LatencyHistogram& b = reg.histogram("b.lat");
  EXPECT_NE(&a, &b);
  a.record(4);
  a.record(12);
  b.record(100);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 16u);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.sum(), 100u);
  // A private registry shares nothing with the process-wide one.
  EXPECT_NE(&reg.histogram("dev.flush_latency_ns"),
            &MetricsRegistry::global().histogram("dev.flush_latency_ns"));
}

// StashDevice caches its flush instrument at construction and perfbench
// looks it up by name later: both must land on the one global instrument.
TEST(MetricsRegistry, GlobalHandsOutOneInstrumentPerName) {
  MetricsRegistry& global = MetricsRegistry::global();
  EXPECT_EQ(&global, &MetricsRegistry::global());
  LatencyHistogram& cached = global.histogram("dev.flush_latency_ns");
  const std::uint64_t count = cached.count();
  const std::uint64_t sum = cached.sum();
  cached.record(250);
  const LatencyHistogram& looked_up =
      MetricsRegistry::global().histogram("dev.flush_latency_ns");
  EXPECT_EQ(&looked_up, &cached);
  EXPECT_EQ(looked_up.count(), count + 1);
  EXPECT_EQ(looked_up.sum(), sum + 250);
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
