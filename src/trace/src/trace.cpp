#include "stash/trace/trace.hpp"

#include <chrono>
#include <memory>
#include <mutex>

namespace stash::trace {

namespace {

constexpr const char* kStageNames[] = {
    "dev.request",  "dev.dispatch", "dev.queue_wait",       "ftl.service",
    "dev.cache",    "dev.buffer",   "dev.flush",            "dev.hidden",
    "ftl.read_batch", "ftl.write",  "ftl.gc",               "vthi.embed",
    "vthi.extract", "nand.read",    "nand.program",         "nand.erase",
    "nand.partial_program", "nand.probe", "nand.fine_program",
    "ecc.decode",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) ==
              static_cast<std::size_t>(Stage::kCount));

constexpr const char* kOpNames[] = {
    "none",  "read",  "write", "trim",  "flush",   "store_hidden",
    "load_hidden", "gc", "erase", "probe", "embed", "extract",
};
static_assert(sizeof(kOpNames) / sizeof(kOpNames[0]) ==
              static_cast<std::size_t>(Op::kCount));

}  // namespace

const char* stage_name(Stage s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < static_cast<std::size_t>(Stage::kCount) ? kStageNames[i]
                                                     : "unknown";
}

const char* op_name(Op o) noexcept {
  const auto i = static_cast<std::size_t>(o);
  return i < static_cast<std::size_t>(Op::kCount) ? kOpNames[i] : "unknown";
}

namespace detail {

std::atomic<std::uint8_t> g_enabled{0};

namespace {
thread_local Frame* t_top = nullptr;
}  // namespace

Frame* tls_top() noexcept { return t_top; }

void tls_push(Frame* f) noexcept {
  f->prev = t_top;
  f->child_seq = 0;
  t_top = f;
}

void tls_pop(Frame* f) noexcept {
  // Frames are strictly LIFO per thread (ScopedSpan/ContextGuard are stack
  // objects), so f is always the top.
  t_top = f->prev;
}

std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

namespace {

constexpr std::size_t kChunkCap = 1024;

struct Chunk {
  // Owner writes spans[used] then release-stores used+1; a collector that
  // acquire-loads used sees every slot below it fully written.
  std::atomic<std::uint32_t> used{0};
  SpanRecord spans[kChunkCap];
};

struct ThreadBuf {
  // Guards the chunk list (growth by the owner, traversal by collectors).
  // The steady-state emit path touches only `cur` and the chunk atomics.
  std::mutex mu;
  std::vector<std::unique_ptr<Chunk>> chunks;
  Chunk* cur = nullptr;  // owner-thread only
};

thread_local ThreadBuf* t_buf = nullptr;

}  // namespace

struct Tracer::Impl {
  mutable std::mutex mu;  // guards bufs and config
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::atomic<std::uint8_t> clock{static_cast<std::uint8_t>(ClockMode::kWall)};
  std::uint64_t epoch_ns = 0;

  ThreadBuf* this_thread_buf() {
    ThreadBuf* buf = t_buf;
    if (buf == nullptr) {
      auto owned = std::make_unique<ThreadBuf>();
      buf = owned.get();
      {
        const std::lock_guard<std::mutex> lock(mu);
        bufs.push_back(std::move(owned));
      }
      t_buf = buf;
    }
    return buf;
  }
};

Tracer::Tracer() : impl_(new Impl) {}
Tracer::~Tracer() { delete impl_; }

Tracer& Tracer::global() {
  // Leaked for the same reason as MetricsRegistry::global(): emit sites and
  // atexit exporters may outlive any function-local static's destructor.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::enable(ClockMode mode) {
  impl_->clock.store(static_cast<std::uint8_t>(mode),
                     std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->epoch_ns = detail::wall_now_ns();
  }
  detail::g_enabled.store(1, std::memory_order_release);
}

void Tracer::disable() {
  detail::g_enabled.store(0, std::memory_order_release);
}

ClockMode Tracer::clock_mode() const noexcept {
  return static_cast<ClockMode>(impl_->clock.load(std::memory_order_relaxed));
}

void Tracer::emit(const SpanRecord& rec) noexcept {
  if (!enabled()) return;
  ThreadBuf* buf = impl_->this_thread_buf();
  Chunk* cur = buf->cur;
  std::uint32_t idx =
      cur != nullptr ? cur->used.load(std::memory_order_relaxed) : kChunkCap;
  if (idx >= kChunkCap) {
    auto chunk = std::make_unique<Chunk>();
    cur = chunk.get();
    {
      const std::lock_guard<std::mutex> lock(buf->mu);
      buf->chunks.push_back(std::move(chunk));
    }
    buf->cur = cur;
    idx = 0;
  }
  SpanRecord out = rec;
  if (clock_mode() == ClockMode::kWall && out.begin_ns >= impl_->epoch_ns) {
    // ScopedSpan records absolute steady_clock ns; rebase onto the enable()
    // epoch so exports are small, positive offsets.
    out.begin_ns -= impl_->epoch_ns;
  }
  cur->spans[idx] = out;
  cur->used.store(idx + 1, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& buf : impl_->bufs) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const auto& chunk : buf->chunks) {
      const std::uint32_t n = chunk->used.load(std::memory_order_acquire);
      out.insert(out.end(), chunk->spans, chunk->spans + n);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& buf : impl_->bufs) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const auto& chunk : buf->chunks) {
      n += chunk->used.load(std::memory_order_acquire);
    }
  }
  return n;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& buf : impl_->bufs) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->chunks.clear();
    // Quiescence contract: the owning thread is not inside emit(), so
    // resetting its cursor from here is safe.
    buf->cur = nullptr;
  }
}

TraceContext current() noexcept {
  detail::Frame* top = detail::tls_top();
  return top != nullptr ? top->ctx : TraceContext{};
}

}  // namespace stash::trace
