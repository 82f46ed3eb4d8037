#pragma once
// stash::trace — causal request tracing across the device pipeline.
//
// A TraceContext (trace id + current span id) is allocated when a request
// enters StashDevice and carried through the layers it touches: the QoS
// queue, the read cache / write-back buffer, PageMappedFtl batch calls,
// VthiChannel embed/extract, and FlashChip operation boundaries.  Each
// instrumented region opens a ScopedSpan, which records one SpanRecord
// (stage, op, duration, key, bytes, outcome) into a per-thread lock-free
// buffer when it closes.  Context propagates across thread handoff
// explicitly: par::ThreadPool::parallel_for runs every iteration under the
// caller's context, so child spans keep their causal parent no matter which
// worker runs them.
//
// Two clocks:
//   * ClockMode::kWall — spans carry steady_clock begin/duration (ns since
//     the tracer was enabled).  For profiling real runs.
//   * ClockMode::kVirtual — spans never read a wall clock.  Durations are
//     simulated-time costs (integer nanoseconds from the NAND cost model)
//     set explicitly by the instrumentation; spans without an explicit cost
//     get the sum of their children at export time.  Output is
//     byte-identical run-to-run at any thread count, which is what the
//     deterministic bench and CI trace-smoke legs diff.
//
// Span ids are content-derived (FNV-1a over parent id, stage, op, key and a
// per-parent sibling sequence), not allocated from a shared counter, so ids
// are stable across thread counts too.
//
// Cost model: when the tracer is disabled (the default), every call site
// pays one relaxed atomic load — no TLS access, no allocation.

#include <atomic>
#include <cstdint>
#include <vector>

namespace stash::trace {

/// Pipeline stage a span measures.  Enum order is the canonical sibling
/// order used by the deterministic exporter, so dev.queue_wait always lays
/// out before ftl.service under a request root.
enum class Stage : std::uint8_t {
  kDevRequest = 0,      // per-request root: enqueue -> completion
  kDevDispatch,         // one scheduler dispatch round
  kDevQueueWait,        // request root child: enqueue -> dispatch pickup
  kFtlService,          // request root child: dispatch pickup -> completion
  kDevCache,            // read-cache / write-buffer consultation
  kDevBuffer,           // write-back buffer admission
  kDevFlush,            // write-back flush (sync or backpressure)
  kDevHidden,           // hidden-volume store/load machinery
  kFtlReadBatch,        // PageMappedFtl::read_batch per-chip slice
  kFtlWrite,            // PageMappedFtl::write
  kFtlGc,               // PageMappedFtl::run_gc
  kVthiEmbed,           // VthiChannel::embed
  kVthiExtract,         // VthiChannel::extract
  kNandRead,            // FlashChip::read_page / read_page_into
  kNandProgram,         // FlashChip::program_page
  kNandErase,           // FlashChip::erase_block
  kNandPartialProgram,  // FlashChip::partial_program
  kNandProbe,           // FlashChip::probe_voltages
  kNandFineProgram,     // FlashChip::fine_program
  kEccDecode,           // VthiCodec::reveal_at BCH decode_batch sweep
  kCount,
};

/// Operation class carried alongside the stage (what kind of request the
/// span serves, not where it runs).
enum class Op : std::uint8_t {
  kNone = 0,
  kRead,
  kWrite,
  kTrim,
  kFlush,
  kStoreHidden,
  kLoadHidden,
  kGc,
  kErase,
  kProbe,
  kEmbed,
  kExtract,
  kCount,
};

[[nodiscard]] const char* stage_name(Stage s) noexcept;
[[nodiscard]] const char* op_name(Op o) noexcept;

enum class ClockMode : std::uint8_t { kWall = 0, kVirtual = 1 };

/// One completed span.  56 bytes, trivially copyable; the per-thread
/// buffers store these raw.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 => root
  /// Wall mode: ns since the tracer was enabled.  Virtual mode: 0 in
  /// recorded spans; the exporter synthesizes a canonical timeline.
  std::uint64_t begin_ns = 0;
  /// Wall mode: measured ns.  Virtual mode: explicit simulated-time cost,
  /// or 0 meaning "sum of children" (resolved at export time).
  std::uint64_t dur_ns = 0;
  /// Stage-dependent address: LPN for dev/ftl spans, (block << 32) | page
  /// for vthi/nand spans.
  std::uint64_t key = 0;
  std::uint32_t bytes = 0;
  Stage stage = Stage::kDevRequest;
  Op op = Op::kNone;
  /// util::ErrorCode of the outcome (0 == ok).
  std::uint8_t status = 0;
  std::uint8_t reserved = 0;

  bool operator==(const SpanRecord&) const = default;
};

/// Causal position: which trace we are in and which span is the parent of
/// anything opened next.  trace_id == 0 means "not tracing".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

namespace detail {

/// Hot-path flag: one relaxed load decides whether any call site does work.
extern std::atomic<std::uint8_t> g_enabled;

struct Frame {
  TraceContext ctx;
  std::uint32_t child_seq = 0;
  Frame* prev = nullptr;
};

[[nodiscard]] Frame* tls_top() noexcept;
void tls_push(Frame* f) noexcept;
void tls_pop(Frame* f) noexcept;
[[nodiscard]] std::uint64_t wall_now_ns() noexcept;

/// FNV-1a fold of one 64-bit word.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                              std::uint64_t v) noexcept {
  h ^= v;
  return h * 1099511628211ull;
}

[[nodiscard]] constexpr std::uint64_t derive_span_id(
    std::uint64_t trace_id, std::uint64_t parent_id, Stage stage, Op op,
    std::uint64_t key, std::uint32_t sibling_seq) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv_mix(h, trace_id);
  h = fnv_mix(h, parent_id);
  h = fnv_mix(h, static_cast<std::uint64_t>(stage));
  h = fnv_mix(h, static_cast<std::uint64_t>(op));
  h = fnv_mix(h, key);
  h = fnv_mix(h, sibling_seq);
  return h == 0 ? 1 : h;
}

}  // namespace detail

/// True while tracing is collecting.  One relaxed atomic load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed) != 0;
}

/// Process-wide span collector.  Records go to per-thread chunked buffers:
/// the owning thread writes a slot and release-publishes a per-chunk count;
/// collect() acquires the counts under a mutex that only guards chunk-list
/// growth.  Recording is lock-free in the steady state.
class Tracer {
 public:
  /// The collector every instrumentation point uses (leaked, like
  /// MetricsRegistry::global(), so atexit-time emission is safe).
  static Tracer& global();

  /// Start collecting every span emitted under a trace context.  Resets
  /// the wall epoch.
  void enable(ClockMode mode);
  void disable();

  [[nodiscard]] ClockMode clock_mode() const noexcept;

  /// Append one finished span (no-op when disabled).
  void emit(const SpanRecord& rec) noexcept;

  /// Snapshot every recorded span, in no particular order (exporters
  /// canonicalize).  Safe concurrently with emit().
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Spans recorded since enable()/clear().
  [[nodiscard]] std::size_t span_count() const;

  /// Drop all recorded spans.  Callers must ensure no thread is emitting
  /// (quiescent point between runs); concurrent emit() is undefined.
  void clear();

 private:
  Tracer();
  ~Tracer();
  struct Impl;
  Impl* impl_;
};

/// The current causal position on this thread ({0,0} when not tracing).
[[nodiscard]] TraceContext current() noexcept;

/// Derive the root context for a fresh trace.  The caller emits the root
/// SpanRecord itself once its bounds are known (see StashDevice) and uses
/// the returned context to parent children in the meantime.
[[nodiscard]] inline TraceContext make_root(std::uint64_t trace_id,
                                            Stage stage, Op op,
                                            std::uint64_t key) noexcept {
  return {trace_id, detail::derive_span_id(trace_id, 0, stage, op, key, 0)};
}

/// RAII span.  Inert (single flag test) unless the tracer is enabled AND a
/// trace context is installed on this thread — spans only exist beneath a
/// root.  While alive it is the parent of anything opened inside.
class ScopedSpan {
 public:
  ScopedSpan(Stage stage, Op op, std::uint64_t key = 0,
             std::uint64_t bytes = 0) noexcept {
    if (!enabled()) return;
    detail::Frame* parent = detail::tls_top();
    if (parent == nullptr || !parent->ctx.active()) return;
    active_ = true;
    rec_.trace_id = parent->ctx.trace_id;
    rec_.parent_id = parent->ctx.span_id;
    rec_.stage = stage;
    rec_.op = op;
    rec_.key = key;
    rec_.bytes = static_cast<std::uint32_t>(bytes);
    rec_.span_id = detail::derive_span_id(rec_.trace_id, rec_.parent_id,
                                          stage, op, key, parent->child_seq++);
    frame_.ctx = {rec_.trace_id, rec_.span_id};
    detail::tls_push(&frame_);
    wall_ = Tracer::global().clock_mode() == ClockMode::kWall;
    if (wall_) begin_ = detail::wall_now_ns();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!active_) return;
    detail::tls_pop(&frame_);
    if (wall_) {
      rec_.begin_ns = begin_;
      const std::uint64_t end = detail::wall_now_ns();
      rec_.dur_ns = end > begin_ ? end - begin_ : 0;
    } else {
      rec_.begin_ns = 0;
      rec_.dur_ns = cost_;
    }
    Tracer::global().emit(rec_);
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Simulated-time duration for virtual-clock mode (ignored in wall mode).
  void set_cost_ns(std::uint64_t ns) noexcept { cost_ = ns; }
  /// Convenience: the NAND cost model speaks microseconds.
  void set_cost_us(double us) noexcept {
    cost_ = us > 0.0 ? static_cast<std::uint64_t>(us * 1e3 + 0.5) : 0;
  }
  void set_status(std::uint8_t code) noexcept { rec_.status = code; }
  void set_bytes(std::uint64_t bytes) noexcept {
    rec_.bytes = static_cast<std::uint32_t>(bytes);
  }

 private:
  SpanRecord rec_;
  detail::Frame frame_;
  std::uint64_t begin_ = 0;
  std::uint64_t cost_ = 0;
  bool active_ = false;
  bool wall_ = false;
};

/// Installs a captured context as current for the scope — the cross-thread
/// propagation primitive (pool tasks) and the way a request context is
/// re-entered inside shared dispatch machinery.  Emits nothing itself.
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx) noexcept {
    if (!enabled() || !ctx.active()) return;
    active_ = true;
    frame_.ctx = ctx;
    detail::tls_push(&frame_);
  }

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

  ~ContextGuard() {
    if (active_) detail::tls_pop(&frame_);
  }

 private:
  detail::Frame frame_;
  bool active_ = false;
};

}  // namespace stash::trace
