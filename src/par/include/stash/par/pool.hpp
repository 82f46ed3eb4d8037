#pragma once
// stash::par::ThreadPool — a fork-join pool for indexed fan-out.
//
// The pool runs one job at a time: parallel_for(n, fn) publishes n, fn and
// an atomic cursor; the calling thread and every worker claim indices from
// the cursor until the range is exhausted, and the call returns once all of
// them have left the job.  Determinism comes from how the callers use it:
//
//   * parallel_for(n, fn) / map<T>(n, fn): an *indexed* fan-out.  fn(i) may
//     run on any thread in any order, but result i lands in slot i, so a
//     caller that reduces the slots in index order produces output that is
//     byte-identical for any thread count — provided fn(i) itself is
//     deterministic and the iterations are independent (stash's benches get
//     this from per-trial chips and FlashChip's per-block RNG streams).
//   * ThreadPool(threads) runs fn on `threads` threads counting the caller,
//     so it starts threads − 1 workers.  threads <= 1 starts none, and
//     parallel_for is then exactly the serial loop on the caller, not a
//     one-worker approximation of it.  A range of one index runs inline too.
//
// Concurrent parallel_for calls from different threads serialize on the
// pool.  Precondition: an iteration must not call parallel_for on its own
// pool (it would wait for the job it is part of).
//
// Exceptions thrown by fn propagate: the first one (in completion order) is
// rethrown from parallel_for()/map() after all iterations finish.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "stash/trace/trace.hpp"

namespace stash::par {

class ThreadPool {
 public:
  /// Runs parallel_for on `threads` threads counting the caller; 0 or 1
  /// means inline mode (no workers).
  explicit ThreadPool(unsigned threads = hardware_threads());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops and joins the workers.  No parallel_for may be in flight.
  ~ThreadPool();

  [[nodiscard]] static unsigned hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

  /// Run fn(i) for every i in [0, n), blocking until all complete.  The
  /// calling thread participates.  Iterations must be independent.
  ///
  /// Trace propagation: the caller's TraceContext is captured once and every
  /// iteration runs under its own ContextGuard — including on the inline
  /// path — so span identity inside fn(i) never depends on which thread (or
  /// how many) ran the iteration.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    const trace::TraceContext ctx = trace::current();
    auto run = [&fn, ctx](std::size_t i) {
      const trace::ContextGuard guard(ctx);
      fn(i);
    };
    if (workers_.empty() || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) run(i);
      return;
    }
    run_job(n, &run, [](const void* body, std::size_t i) {
      (*static_cast<const decltype(run)*>(body))(i);
    });
  }

  /// Indexed map: returns {fn(0), ..., fn(n-1)} with result i in slot i.
  /// T must be default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Job;  // one parallel_for call (pool.cpp)

  void run_job(std::size_t n, const void* body,
               void (*call)(const void*, std::size_t));
  /// Claim and run indices until the cursor passes n.
  void drain(Job& job);
  void worker_loop();

  std::mutex caller_mu_;  // one job at a time
  std::mutex mu_;
  std::condition_variable work_cv_;  // a job was published, or stop_
  std::condition_variable done_cv_;  // a participant left the job
  Job* job_ = nullptr;               // the published job, if any
  std::uint64_t generation_ = 0;     // bumped per published job
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: joins before the rest dies
};

}  // namespace stash::par
