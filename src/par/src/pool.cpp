#include "stash/par/pool.hpp"

#include <atomic>
#include <exception>

namespace stash::par {

/// One parallel_for call.  Lives on the caller's stack; `active` and `err`
/// are guarded by mu_.
struct ThreadPool::Job {
  std::size_t n = 0;
  const void* body = nullptr;
  void (*call)(const void* body, std::size_t i) = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t active = 0;  // participants still claiming indices
  std::exception_ptr err;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads <= 1) return;  // inline mode: parallel_for is the serial loop
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_job(std::size_t n, const void* body,
                         void (*call)(const void*, std::size_t)) {
  const std::lock_guard<std::mutex> serial(caller_mu_);
  Job job;
  job.n = n;
  job.body = body;
  job.call = call;
  job.active = 1;  // the caller
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();
  drain(job);
  std::unique_lock<std::mutex> lock(mu_);
  // Unpublish first so no worker joins after the caller starts waiting;
  // the ones that already joined hold `active` up until they leave.
  job_ = nullptr;
  --job.active;
  done_cv_.wait(lock, [&] { return job.active == 0; });
  if (job.err) std::rethrow_exception(job.err);
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.call(job.body, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!job.err) job.err = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // generation of the last job this worker joined
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return stop_ || (job_ && generation_ != seen); });
    if (stop_) return;
    seen = generation_;
    Job& job = *job_;
    ++job.active;
    lock.unlock();
    drain(job);
    lock.lock();
    if (--job.active == 0) done_cv_.notify_one();
  }
}

}  // namespace stash::par
