#include "stash/dev/device.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "stash/pack/pack.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/wire.hpp"

namespace stash::dev {

using util::ErrorCode;
using F = DeviceStats::Field;

namespace {

// The one process-wide flush-time sum; every count lives in the
// per-instance CounterTable, and each request's latency in its dev.request
// span.
telemetry::LatencyHistogram& flush_latency() {
  static telemetry::LatencyHistogram& h =
      telemetry::MetricsRegistry::global().histogram("dev.flush_latency_ns");
  return h;
}

/// Wall-clock nanoseconds since `start`.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Uniform config contract: reject an invalid DeviceConfig before any
/// member (pool, chips) is built from it.
const DeviceConfig& validated(const DeviceConfig& config) {
  if (const Status valid = config.validate(); !valid.is_ok()) {
    throw std::invalid_argument(valid.to_string());
  }
  return config;
}

/// Context for the ftl.service child of a request root.  Derived (not
/// recorded yet): deep spans parent to it while it is installed, and
/// emit_request_trace later emits the matching record with the same id.
trace::TraceContext service_ctx(const trace::TraceContext& root, trace::Op op,
                                std::uint64_t key) noexcept {
  if (!root.active()) return {};
  return {root.trace_id,
          trace::detail::derive_span_id(root.trace_id, root.span_id,
                                        trace::Stage::kFtlService, op, key, 0)};
}

/// Every chip's volume, in chip order: the span one hidden object covers.
std::vector<stego::StegoVolume*> hidden_volumes(
    const std::vector<std::unique_ptr<stego::StegoVolume>>& volumes) {
  std::vector<stego::StegoVolume*> out;
  out.reserve(volumes.size());
  for (const auto& volume : volumes) out.push_back(volume.get());
  return out;
}

/// The stored pack container, reassembled from every chip's chunks.  The
/// splice into one contiguous buffer is the one real copy on the hidden
/// load path; charge it so bytes_copied stays an honest ledger.
Result<std::vector<std::uint8_t>> hidden_container(
    const std::vector<std::unique_ptr<stego::StegoVolume>>& volumes,
    telemetry::CounterTable<DeviceStats>& counters) {
  auto container = stego::load_hidden(hidden_volumes(volumes));
  if (container.is_ok()) counters.add(F::bytes_copied, container.value().size());
  return container;
}

/// Pack `data` and make the container the hidden object.
Status store_packed(
    const std::vector<std::unique_ptr<stego::StegoVolume>>& volumes,
    std::span<const std::uint8_t> data, const pack::PackConfig& config,
    telemetry::CounterTable<DeviceStats>& counters) {
  // Dedup + compress first (stash::pack): the voltage channel embeds the
  // container, not the raw payload.  A container that fails to beat raw is
  // still embedded (pack stores incompressible payloads verbatim inside
  // the container at near-zero overhead).
  pack::PackStats pstats;
  auto packed = pack::pack(data, config, &pstats);
  if (!packed.is_ok()) return packed.status();
  STASH_RETURN_IF_ERROR(
      stego::store_hidden(hidden_volumes(volumes), packed.value()));
  counters.add(F::hidden_stores);
  counters.add(F::pack_logical_bytes, pstats.logical_bytes);
  counters.add(F::pack_packed_bytes, packed.value().size());
  return Status::ok();
}

}  // namespace

StashDevice::StashDevice(const DeviceConfig& config,
                         const crypto::HidingKey& key)
    : config_(validated(config)),
      pool_(config.threads),
      // Slabs to cover a full LRU plus a batch's worth of in-flight reads,
      // faulted in at construction so cold misses never page-fault inside
      // a latency-measured dispatch round.
      arena_(config.geometry.cells_per_page, 4096,
             config.read_cache_pages + kBatchPages),
      cache_(config.read_cache_pages) {
  chips_.reserve(config_.chips);
  volumes_.reserve(config_.chips);
  for (std::uint32_t c = 0; c < config_.chips; ++c) {
    chips_.push_back(std::make_unique<nand::FlashChip>(
        config_.geometry, nand::NoiseModel{},
        util::hash_words(config_.seed, 0xC417A55AULL, c), config_.costs));
    volumes_.push_back(std::make_unique<stego::StegoVolume>(
        *chips_.back(), key, stego::StegoConfig{config_.ftl, config_.vthi}));
  }
}

StashDevice::~StashDevice() {
  drain();
  (void)flush();  // best effort; a dark device keeps its volatile loss
}

std::uint64_t StashDevice::logical_pages() const noexcept {
  return volumes_.front()->public_pages() * volumes_.size();
}

std::uint32_t StashDevice::page_bits() const noexcept {
  return volumes_.front()->page_bits();
}

nand::CostLedger StashDevice::ledger() const {
  nand::CostLedger total{};
  const auto add = [](std::string_view, std::uint64_t& sum, std::uint64_t v) {
    sum += v;
  };
  for (const auto& chip : chips_) {
    nand::CostLedger::for_each(total, add, chip->ledger());
  }
  return total;
}

// ---- Tracing ---------------------------------------------------------------

std::uint64_t StashDevice::trace_now() const noexcept {
  // Chips only advance inside dispatch rounds, so ledger reads at serial
  // points (under mu_) are exact.
  if (trace::Tracer::global().clock_mode() == trace::ClockMode::kVirtual) {
    return ledger().time_ns;
  }
  return trace::detail::wall_now_ns();
}

trace::TraceContext StashDevice::new_request_trace(trace::Op op,
                                                   std::uint64_t key) {
  // The sequence advances for every request whether or not the tracer is
  // on, so a mid-run enable gives a request the trace id a from-the-start
  // run would.
  const std::uint64_t s = trace_seq_++;
  if (!trace::enabled()) return {};
  return trace::make_root((std::uint64_t{1} << 56) | s,
                          trace::Stage::kDevRequest, op, key);
}

void StashDevice::emit_request_trace(const trace::TraceContext& root,
                                     std::uint64_t enq, trace::Op op,
                                     std::uint64_t key, std::uint64_t t0,
                                     std::uint64_t t1, std::uint8_t status) {
  if (!root.active() || !trace::enabled()) return;
  auto& tracer = trace::Tracer::global();
  const bool wall = tracer.clock_mode() == trace::ClockMode::kWall;
  // Three clock reads, two child durations, and a root that is exactly
  // their sum — the attribution invariant the bench asserts.
  const std::uint64_t d_wait = t0 > enq ? t0 - enq : 0;
  const std::uint64_t d_service = t1 > t0 ? t1 - t0 : 0;

  trace::SpanRecord wait;
  wait.trace_id = root.trace_id;
  wait.parent_id = root.span_id;
  wait.stage = trace::Stage::kDevQueueWait;
  wait.op = op;
  wait.key = key;
  wait.span_id = trace::detail::derive_span_id(
      wait.trace_id, wait.parent_id, wait.stage, op, key, 0);
  wait.dur_ns = d_wait;

  trace::SpanRecord service = wait;
  service.stage = trace::Stage::kFtlService;
  service.span_id = trace::detail::derive_span_id(
      service.trace_id, service.parent_id, service.stage, op, key, 0);
  service.dur_ns = d_service;
  service.status = status;

  trace::SpanRecord top;
  top.trace_id = root.trace_id;
  top.span_id = root.span_id;
  top.parent_id = 0;
  top.stage = trace::Stage::kDevRequest;
  top.op = op;
  top.key = key;
  top.dur_ns = d_wait + d_service;
  top.status = status;

  if (wall) {
    wait.begin_ns = enq;
    service.begin_ns = t0;
    top.begin_ns = enq;
  }
  tracer.emit(wait);
  tracer.emit(service);
  tracer.emit(top);
}

// ---- Submission ------------------------------------------------------------

void StashDevice::enqueue(Request req, std::unique_lock<std::mutex>& lock) {
  req.seq = next_seq_++;
  req.trace = new_request_trace(req.op, req.lpn);
  if (req.trace.active()) req.enqueue_now = trace_now();
  auto& queued = req.op == trace::Op::kRead ? reads_ : background_;
  queued.push_back(std::move(req));
  if (reads_.size() + background_.size() >= kBatchPages) dispatch(lock);
}

std::future<Result<PageRef>> StashDevice::submit_read(std::uint64_t lpn) {
  Request req;
  req.lpn = lpn;
  auto fut = req.value_promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  enqueue(std::move(req), lock);
  return fut;
}

Status StashDevice::stage(trace::Op op, std::uint64_t lpn,
                          std::vector<std::uint8_t> bits) {
  const bool trim = op == trace::Op::kTrim;
  const std::lock_guard<std::mutex> lock(mu_);
  // Staging runs inline (no queue wait): the trace root, service start and
  // enqueue stamp coincide.
  const trace::TraceContext root = new_request_trace(op, lpn);
  const std::uint64_t t0 = root.active() ? trace_now() : 0;
  Status st = Status::ok();
  {
    const trace::ContextGuard service_guard(service_ctx(root, op, lpn));
    if (lpn >= logical_pages()) {
      st = Status{ErrorCode::kOutOfBounds, "lpn beyond device capacity"};
    } else if (!trim && bits.size() != page_bits()) {
      st = Status{ErrorCode::kInvalidArgument, "write size != page size"};
    } else {
      cache_.invalidate(lpn);
      {
        const trace::ScopedSpan buffer_span(trace::Stage::kDevBuffer, op, lpn,
                                            bits.size() / 8);
        if (trim) {
          buffer_.put_trim(lpn);
          counters_.add(F::trims);
        } else {
          // Adopt, not copy: the staged PageRef feeds buffer-hit readers
          // and the flush path from the same storage.
          if (buffer_.put(lpn, PageRef::adopt(std::move(bits)))) {
            counters_.add(F::coalesced_writes);
          }
          counters_.add(F::writes);
        }
      }
      if (buffer_.size() >= config_.write_back_pages) {
        // Backpressure flush.  The staged data survives a failure (it stays
        // buffered); the triggering request carries the health report.
        st = flush_locked();
      }
    }
  }
  if (root.active()) {
    emit_request_trace(root, t0, op, lpn, t0, trace_now(),
                       static_cast<std::uint8_t>(st.code()));
  }
  return st;
}

std::future<Status> StashDevice::submit_store_hidden(
    std::vector<std::uint8_t> data) {
  Request req;
  req.op = trace::Op::kStoreHidden;
  req.data = std::move(data);
  auto fut = req.status_promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  enqueue(std::move(req), lock);
  return fut;
}

std::future<Result<PageRef>> StashDevice::submit_load_hidden() {
  Request req;
  req.op = trace::Op::kLoadHidden;
  auto fut = req.value_promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  enqueue(std::move(req), lock);
  return fut;
}

std::future<Status> StashDevice::submit_gc() {
  Request req;
  req.op = trace::Op::kGc;
  auto fut = req.status_promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  enqueue(std::move(req), lock);
  return fut;
}

// ---- Dispatch --------------------------------------------------------------

void StashDevice::dispatch(std::unique_lock<std::mutex>& lock) {
  (void)lock;  // held throughout: dispatch is the serial scheduler heart
  if (reads_.empty() && background_.empty()) return;
  counters_.add(F::dispatches);

  // Dispatch-round trace: the shared execution machinery (batched reads,
  // their FTL/NAND fan-out) hangs here; per-request work re-enters its own
  // request context on top of this one.
  const std::uint64_t round_seq = dispatch_seq_++;
  trace::TraceContext round{};
  std::uint64_t round_t0 = 0;
  if (trace::enabled()) {
    round = trace::make_root((std::uint64_t{2} << 56) | round_seq,
                             trace::Stage::kDevDispatch, trace::Op::kNone, 0);
    round_t0 = trace_now();
  }
  const trace::ContextGuard round_guard(round);

  // The request kind is the schedule: the reads run first as one batch
  // (the queue never holds more than kBatchPages), then the background
  // requests singly in submission order — a deterministic function of the
  // submission order alone.
  std::vector<Request> reads = std::exchange(reads_, {});
  std::vector<Request> background = std::exchange(background_, {});
  last_dispatch_.clear();
  for (const Request& req : reads) {
    last_dispatch_.push_back(ExecutedOp{req.op, req.seq});
  }
  for (const Request& req : background) {
    last_dispatch_.push_back(ExecutedOp{req.op, req.seq});
  }

  if (!reads.empty()) execute_reads(reads);
  for (Request& req : background) {
    const trace::Op op = req.op;
    const std::uint64_t t0 = req.trace.active() ? trace_now() : 0;
    std::uint8_t code = 0;
    {
      const trace::ContextGuard service_guard(
          service_ctx(req.trace, op, req.lpn));
      switch (op) {
        case trace::Op::kStoreHidden: {
          trace::ScopedSpan span(trace::Stage::kDevHidden, op, 0,
                                 req.data.size() / 8);
          Status st =
              store_packed(volumes_, req.data, config_.pack, counters_);
          code = static_cast<std::uint8_t>(st.code());
          span.set_status(code);
          req.status_promise.set_value(std::move(st));
          break;
        }
        case trace::Op::kLoadHidden: {
          trace::ScopedSpan span(trace::Stage::kDevHidden, op);
          auto container = hidden_container(volumes_, counters_);
          auto loaded = container.is_ok() ? pack::unpack(container.value())
                                          : container;
          if (loaded.is_ok()) counters_.add(F::hidden_loads);
          code = static_cast<std::uint8_t>(loaded.status().code());
          span.set_status(code);
          if (loaded.is_ok()) {
            span.set_bytes(loaded.value().size());
            req.value_promise.set_value(
                Result<PageRef>{PageRef::adopt(std::move(loaded).take())});
          } else {
            req.value_promise.set_value(loaded.status());
          }
          break;
        }
        case trace::Op::kGc: {
          Status st = execute_gc();
          code = static_cast<std::uint8_t>(st.code());
          req.status_promise.set_value(std::move(st));
          break;
        }
        default:
          break;  // unreachable: only the three kinds above are background
      }
    }
    if (req.trace.active()) {
      emit_request_trace(req.trace, req.enqueue_now, op, req.lpn, t0,
                         trace_now(), code);
    }
  }

  if (round.active()) {
    // The round root: virtual duration is the sum of its children
    // (resolved at export); wall duration is measured here.
    trace::SpanRecord rec;
    rec.trace_id = round.trace_id;
    rec.span_id = round.span_id;
    rec.parent_id = 0;
    rec.stage = trace::Stage::kDevDispatch;
    rec.op = trace::Op::kNone;
    rec.key = 0;
    rec.bytes = static_cast<std::uint32_t>(last_dispatch_.size());
    if (trace::Tracer::global().clock_mode() == trace::ClockMode::kWall) {
      rec.begin_ns = round_t0;
      const std::uint64_t end = trace_now();
      rec.dur_ns = end > round_t0 ? end - round_t0 : 0;
    }
    trace::Tracer::global().emit(rec);
  }
}

void StashDevice::execute_reads(std::vector<Request>& reads) {
  const std::uint64_t t0 = trace::enabled() ? trace_now() : 0;
  // Emit a traced read's trace: a dev.cache marker under its service span
  // when the request resolved without flash, then the request skeleton.
  const auto finish_trace = [&](const Request& req, bool from_cache,
                                std::uint8_t code) {
    if (!req.trace.active()) return;
    const trace::TraceContext svc =
        service_ctx(req.trace, trace::Op::kRead, req.lpn);
    if (from_cache) {
      const trace::ContextGuard guard(svc);
      trace::ScopedSpan span(trace::Stage::kDevCache, trace::Op::kRead,
                             req.lpn, page_bits() / 8);
      span.set_status(code);
    }
    emit_request_trace(req.trace, req.enqueue_now, trace::Op::kRead, req.lpn,
                       t0, trace_now(), code);
  };
  // Resolve what never needs flash: bounds errors, write-back buffer hits,
  // cache hits.  Collect the rest as unique (chip, local-lpn) misses.
  // Misses are capped at kBatchPages per round, so repeat-lpn coalescing is
  // a linear scan and the common one-requester case allocates nothing: the
  // first requester rides in the Miss, repeats land in one shared side list.
  struct Miss {
    std::uint64_t lpn = 0;
    std::size_t first = 0;  // index into `reads`
  };
  std::vector<Miss> misses;  // first-appearance order
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // (miss, reader)
  misses.reserve(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const std::uint64_t lpn = reads[r].lpn;
    if (lpn >= logical_pages()) {
      reads[r].value_promise.set_value(
          Status{ErrorCode::kOutOfBounds, "lpn beyond device capacity"});
      finish_trace(reads[r], false,
                   static_cast<std::uint8_t>(ErrorCode::kOutOfBounds));
      continue;
    }
    if (const WriteBackBuffer::Entry* staged = buffer_.find(lpn)) {
      counters_.add(F::buffer_hits);
      std::uint8_t code = 0;
      if (staged->trim) {
        code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
        reads[r].value_promise.set_value(
            Status{ErrorCode::kNotFound, "logical page trimmed"});
      } else {
        // Refcount bump on the staged page, not a copy.
        reads[r].value_promise.set_value(Result<PageRef>{staged->bits});
      }
      counters_.add(F::reads);
      finish_trace(reads[r], true, code);
      continue;
    }
    // Coalesce before consulting the cache: a repeat of an lpn already
    // destined for flash this round is one physical miss, not N — probing
    // the cache again would count it twice.
    std::size_t m = 0;
    while (m < misses.size() && misses[m].lpn != lpn) ++m;
    if (m < misses.size()) {
      counters_.add(F::coalesced_reads);
      repeats.emplace_back(m, r);
      continue;
    }
    // The one cache lookup site, so the only place hits and misses are
    // counted; a disabled cache is never probed and counts neither.
    if (auto cached = cache_.lookup(lpn)) {
      counters_.add(F::reads);
      counters_.add(F::cache_hits);
      reads[r].value_promise.set_value(std::move(*cached));
      finish_trace(reads[r], true, 0);
      continue;
    }
    if (cache_.enabled()) counters_.add(F::cache_misses);
    misses.push_back(Miss{lpn, r});
  }

  // One read_batch per chip over that chip's unique misses, in chip order;
  // within a chip the FTL groups same-block reads and fans out on the
  // pool, deterministically for any thread count.  Each unique miss
  // thresholds straight into its own arena slab; the sealed PageRef is
  // then shared by the LRU and every requester's future — the page bits
  // are never copied after the NAND writes them.
  std::vector<BufferArena::Lease> leases;
  leases.reserve(misses.size());
  for (std::size_t m = 0; m < misses.size(); ++m) {
    leases.push_back(arena_.acquire());
  }
  std::vector<std::vector<std::uint64_t>> chip_lpns(volumes_.size());
  std::vector<std::vector<std::size_t>> chip_miss(volumes_.size());
  for (std::size_t m = 0; m < misses.size(); ++m) {
    const std::uint32_t c = chip_of(misses[m].lpn);
    chip_lpns[c].push_back(local_lpn(misses[m].lpn));
    chip_miss[c].push_back(m);
  }
  std::vector<std::span<std::uint8_t>> dests;
  dests.reserve(misses.size());
  for (std::uint32_t c = 0; c < volumes_.size(); ++c) {
    if (chip_lpns[c].empty()) continue;
    dests.clear();
    for (const std::size_t m : chip_miss[c]) dests.push_back(leases[m].span());
    auto results =
        volumes_[c]->ftl().read_batch_into(chip_lpns[c], pool_, dests);
    for (std::size_t k = 0; k < results.size(); ++k) {
      const std::size_t mi = chip_miss[c][k];
      Miss& miss = misses[mi];
      Result<PageRef> outcome =
          results[k].is_ok()
              ? Result<PageRef>{std::move(leases[mi]).seal(results[k].value())}
              : Result<PageRef>{results[k].status()};
      if (outcome.is_ok()) {
        cache_.insert(miss.lpn, outcome.value());
      }
      const auto resolve = [&](std::size_t r) {
        counters_.add(F::reads);
        reads[r].value_promise.set_value(outcome);
        // Serial point after this chip's batch: the miss's service span
        // covers the whole chip round it rode on.  The FTL/NAND fan-out
        // spans themselves live under the dispatch-round trace.
        finish_trace(reads[r], false,
                     static_cast<std::uint8_t>(results[k].status().code()));
      };
      resolve(miss.first);
      for (const auto& [rm, r] : repeats) {
        if (rm == mi) resolve(r);
      }
    }
  }
}

// ---- GC --------------------------------------------------------------------

Status StashDevice::execute_gc() {
  counters_.add(F::gc_runs);
  util::BatchStatus results;
  results.reserve(volumes_.size());
  for (auto& volume : volumes_) {
    results.push_back(volume->ftl().run_gc());
  }
  return util::first_error(results);
}

// ---- Durability ------------------------------------------------------------

Status StashDevice::flush_locked() {
  if (buffer_.empty()) return Status::ok();
  const auto start = std::chrono::steady_clock::now();
  counters_.add(F::flushes);
  // Child of whichever context triggered the drain (a backpressured write's
  // service span, or nothing for a bare flush()).  Virtual duration = sum
  // of the per-page FTL/NAND work underneath.
  trace::ScopedSpan flush_span(trace::Stage::kDevFlush, trace::Op::kFlush, 0,
                               buffer_.size());

  // Snapshot per chip in staging order; chips drain concurrently (each
  // chip's volume is independent), entries within a chip in order.
  struct Item {
    const WriteBackBuffer::Entry* entry = nullptr;
    Status status;
  };
  std::vector<std::vector<Item>> per_chip(volumes_.size());
  for (const WriteBackBuffer::Entry& entry : buffer_.entries()) {
    per_chip[chip_of(entry.lpn)].push_back(Item{&entry, Status::ok()});
  }
  pool_.parallel_for(per_chip.size(), [&](std::size_t c) {
    for (Item& item : per_chip[c]) {
      const std::uint64_t local = local_lpn(item.entry->lpn);
      item.status = item.entry->trim
                        ? volumes_[c]->ftl().trim(local)
                        : volumes_[c]->write_public(local,
                                                    item.entry->bits.span());
    }
  });

  Status first = Status::ok();
  std::vector<std::uint64_t> flushed;
  for (const auto& chip_items : per_chip) {
    for (const Item& item : chip_items) {
      if (item.status.is_ok()) {
        flushed.push_back(item.entry->lpn);
        counters_.add(F::flushed_pages);
      } else if (first.is_ok()) {
        first = item.status;
      }
    }
  }
  for (const std::uint64_t lpn : flushed) buffer_.erase(lpn);
  flush_span.set_status(static_cast<std::uint8_t>(first.code()));
  flush_span.set_bytes(flushed.size());
  flush_latency().record(elapsed_ns(start));
  return first;
}

Status StashDevice::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  return flush_locked();
}

void StashDevice::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  dispatch(lock);
}

// ---- Fault integration -----------------------------------------------------

void StashDevice::set_fault_injector(nand::FaultInjector* injector) noexcept {
  for (const auto& chip : chips_) chip->set_fault_injector(injector);
}

Status StashDevice::power_cycle() {
  std::unique_lock<std::mutex> lock(mu_);
  // RAM dies with the power: queued requests, the read cache, and the
  // write-back buffer are gone.  Acked-unflushed writes become *reported*
  // losses — the honest contract of a write-back device.
  const Status lost{ErrorCode::kPowerLoss, "request lost to power cut"};
  for (std::vector<Request>* queued : {&reads_, &background_}) {
    for (Request& req : *queued) {
      if (req.op == trace::Op::kRead || req.op == trace::Op::kLoadHidden) {
        req.value_promise.set_value(lost);
      } else {
        req.status_promise.set_value(lost);
      }
      if (req.trace.active()) {
        // Never serviced: all queue wait, zero service.
        const std::uint64_t now = trace_now();
        emit_request_trace(req.trace, req.enqueue_now, req.op, req.lpn, now,
                           now,
                           static_cast<std::uint8_t>(ErrorCode::kPowerLoss));
      }
    }
    queued->clear();
  }
  cache_.clear();
  for (const WriteBackBuffer::Entry& entry : buffer_.drop_all()) {
    if (entry.trim) continue;
    lost_writes_.push_back(entry.lpn);
    counters_.add(F::lost_writes);
  }
  // The carrier set and the rescued chunks awaiting a home were RAM too.
  // The carriers are found by key again; the rescued chunks are lost.
  for (auto& volume : volumes_) volume->forget_carriers(true);
  return Status::ok();
}

// ---- Persistence -----------------------------------------------------------

namespace {

/// Chunk names of the snapshot layout.  Versioned implicitly through the
/// store header; renames are format changes.
std::string chip_meta_name(std::uint32_t c) {
  return "chip" + std::to_string(c) + "/meta";
}
std::string chip_block_prefix(std::uint32_t c) {
  return "chip" + std::to_string(c) + "/block/";
}
std::string ftl_name(std::uint32_t c) { return "ftl" + std::to_string(c); }

}  // namespace

std::uint64_t StashDevice::snapshot_config_hash() const noexcept {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter w(bytes);
  const nand::Geometry& geom = config_.geometry;
  w.u32(geom.blocks);
  w.u32(geom.pages_per_block);
  w.u32(geom.cells_per_page);
  w.u32(geom.pec_limit);
  w.u8(1);  // program order is always enforced; kept so older snapshots load
  w.u64(config_.seed);
  w.u32(config_.chips);
  w.u32(static_cast<std::uint32_t>(nand::NoiseModel::kVersion));
  // NoiseModel is all doubles (no padding): its object representation is a
  // well-defined function of the parameter values.
  static_assert(std::is_trivially_copyable_v<nand::NoiseModel>);
  static_assert(sizeof(nand::NoiseModel) % sizeof(double) == 0);
  const nand::NoiseModel noise{};
  const auto* noise_bytes = reinterpret_cast<const std::uint8_t*>(&noise);
  w.raw({noise_bytes, sizeof(nand::NoiseModel)});
  return util::fnv1a(bytes);
}

std::vector<store::Chunk> StashDevice::snapshot_chunks() const {
  std::vector<store::Chunk> chunks;
  {
    store::Chunk meta;
    meta.name = "dev/meta";
    util::ByteWriter w(meta.bytes);
    w.u32(static_cast<std::uint32_t>(volumes_.size()));
    w.u64(logical_pages());
    w.u64(lost_writes_.size());
    for (const std::uint64_t lpn : lost_writes_) w.u64(lpn);
    chunks.push_back(std::move(meta));
  }
  for (std::uint32_t c = 0; c < volumes_.size(); ++c) {
    const nand::FlashChip& chip = *chips_[c];
    store::Chunk meta;
    meta.name = chip_meta_name(c);
    chip.serialize_meta(meta.bytes);
    chunks.push_back(std::move(meta));
    for (std::uint32_t b = 0; b < chip.geometry().blocks; ++b) {
      if (!chip.block_allocated(b)) continue;
      store::Chunk blk;
      blk.name = chip_block_prefix(c) + std::to_string(b);
      // Serialization only fails for bad/unallocated addresses, both
      // excluded above.
      (void)chip.serialize_block(b, blk.bytes);
      chunks.push_back(std::move(blk));
    }
    store::Chunk ftl;
    ftl.name = ftl_name(c);
    volumes_[c]->ftl().serialize_state(ftl.bytes);
    chunks.push_back(std::move(ftl));
  }
  return chunks;
}

std::uint64_t StashDevice::state_checksum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const store::Chunk& chunk : snapshot_chunks()) {
    h = util::fnv1a({reinterpret_cast<const std::uint8_t*>(chunk.name.data()),
                     chunk.name.size()},
                    h);
    h = util::fnv1a(chunk.bytes, h);
  }
  return h;
}

Result<store::SaveInfo> StashDevice::save_snapshot(
    const std::string& dir, store::FileFaultInjector* injector) {
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce: everything queued executes (against the state being saved),
  // and every acknowledged write becomes durable in flash before the chips
  // are serialized — a restored snapshot owes nothing to volatile state.
  dispatch(lock);
  STASH_RETURN_IF_ERROR(flush_locked());
  // A rescued chunk lives only in RAM, and a snapshot holds nothing that
  // names the hidden volume: home every one in the voltages, or refuse.
  for (auto& volume : volumes_) {
    STASH_RETURN_IF_ERROR(volume->reembed_pending());
    if (volume->pending_chunks() != 0) {
      return Status{ErrorCode::kNoSpace,
                    "rescued hidden chunks have no carrier block"};
    }
  }
  store::SnapshotStore snapshots(dir);
  return snapshots.save(snapshot_config_hash(), snapshot_chunks(), injector);
}

Status StashDevice::load_snapshot(const std::string& dir) {
  std::unique_lock<std::mutex> lock(mu_);
  // Resolve anything still queued against the pre-restore state; futures
  // must never dangle across a wholesale state replacement.
  dispatch(lock);
  const store::SnapshotStore snapshots(dir);
  auto loaded = snapshots.load_latest();
  if (!loaded.is_ok()) return loaded.status();
  return apply_snapshot(loaded.value());
}

Status StashDevice::apply_snapshot(const store::SnapshotData& snap) {
  if (snap.config_hash != snapshot_config_hash()) {
    return {ErrorCode::kInvalidArgument,
            "snapshot was written by a different device configuration"};
  }
  const std::vector<std::uint8_t>* meta = snap.find("dev/meta");
  if (!meta) return {ErrorCode::kCorrupted, "snapshot lacks dev/meta"};
  util::ByteReader r({meta->data(), meta->size()});
  std::uint32_t chip_count = 0;
  std::uint64_t logical = 0;
  std::uint64_t lost_count = 0;
  STASH_RETURN_IF_ERROR(r.u32(chip_count));
  STASH_RETURN_IF_ERROR(r.u64(logical));
  STASH_RETURN_IF_ERROR(r.u64(lost_count));
  if (chip_count != volumes_.size() || logical != logical_pages()) {
    return {ErrorCode::kCorrupted, "snapshot shape mismatch"};
  }
  if (lost_count > logical) {
    return {ErrorCode::kCorrupted, "lost-write ledger implausibly long"};
  }
  std::vector<std::uint64_t> lost(lost_count);
  for (auto& lpn : lost) STASH_RETURN_IF_ERROR(r.u64(lpn));
  STASH_RETURN_IF_ERROR(r.expect_exhausted());
  // Every per-chip record must be present before any state is replaced.
  // An older build's per-chip stego record is ignored.
  for (std::uint32_t c = 0; c < volumes_.size(); ++c) {
    if (!snap.find(chip_meta_name(c)) || !snap.find(ftl_name(c))) {
      return {ErrorCode::kCorrupted, "snapshot lacks per-chip records"};
    }
  }

  for (std::uint32_t c = 0; c < volumes_.size(); ++c) {
    nand::FlashChip& chip = *chips_[c];
    chip.drop_all_blocks();
    // The carriers are found by key when next needed, not scanned here:
    // the scan's probes would land in the restored ledger.
    volumes_[c]->forget_carriers(false);
    const std::vector<std::uint8_t>* chip_meta = snap.find(chip_meta_name(c));
    STASH_RETURN_IF_ERROR(
        chip.deserialize_meta({chip_meta->data(), chip_meta->size()}));
    const std::string prefix = chip_block_prefix(c);
    for (const store::Chunk& chunk : snap.chunks) {
      if (chunk.name.compare(0, prefix.size(), prefix) != 0) continue;
      std::uint32_t block = 0;
      try {
        block = static_cast<std::uint32_t>(
            std::stoul(chunk.name.substr(prefix.size())));
      } catch (const std::exception&) {
        return {ErrorCode::kCorrupted, "bad block chunk name: " + chunk.name};
      }
      STASH_RETURN_IF_ERROR(chip.deserialize_block(
          block, {chunk.bytes.data(), chunk.bytes.size()}));
    }
    const std::vector<std::uint8_t>* ftl = snap.find(ftl_name(c));
    STASH_RETURN_IF_ERROR(
        volumes_[c]->ftl().deserialize_state({ftl->data(), ftl->size()}));
  }
  lost_writes_ = std::move(lost);

  // Roll volatile state back with everything else: a stale cached page or
  // a buffered post-snapshot write must not survive the restore.  The
  // dropped buffer entries (and rescued chunks, above) are *undone*, not
  // lost — the restore rewinds the acknowledged history itself — so they
  // are not added to lost_writes() (or lost_chunks).
  cache_.clear();
  (void)buffer_.drop_all();
  return Status::ok();
}

// ---- Synchronous convenience ----------------------------------------------

Result<PageRef> StashDevice::read(std::uint64_t lpn) {
  auto fut = submit_read(lpn);
  drain();
  return fut.get();
}

Status StashDevice::write(std::uint64_t lpn, std::vector<std::uint8_t> bits) {
  return stage(trace::Op::kWrite, lpn, std::move(bits));
}

Status StashDevice::trim(std::uint64_t lpn) {
  return stage(trace::Op::kTrim, lpn, {});
}

Status StashDevice::store_hidden(std::span<const std::uint8_t> data) {
  auto fut = submit_store_hidden(
      std::vector<std::uint8_t>(data.begin(), data.end()));
  drain();
  return fut.get();
}

Result<PageRef> StashDevice::load_hidden() {
  auto fut = submit_load_hidden();
  drain();
  return fut.get();
}

Result<HiddenInfo> StashDevice::hidden_info() {
  // Like flush()/stats: a direct query, not a queued op — but it dispatches
  // anything queued first so it describes the committed generation.
  std::unique_lock<std::mutex> lock(mu_);
  dispatch(lock);
  auto container = hidden_container(volumes_, counters_);
  if (!container.is_ok()) return container.status();
  // Unpack, not just inspect: only the container's digest check tells a
  // damaged payload (kCorrupted) from an intact one.
  STASH_RETURN_IF_ERROR(pack::unpack(container.value()).status());
  auto stats = pack::inspect(container.value());
  if (!stats.is_ok()) return stats.status();

  HiddenInfo info;
  info.format = pack::kFormatVersion;
  info.logical_bytes = stats.value().logical_bytes;
  info.packed_bytes = stats.value().packed_bytes;
  info.chunks = stats.value().chunks;
  info.unique_chunks = stats.value().unique_chunks;
  info.dedup_ratio = stats.value().dedup_ratio();
  // Headroom of a replacement store: the new generation lands beside the
  // current one, so only blocks that carry no chunk now count.
  info.remaining_capacity_bytes =
      stego::hidden_capacity_bytes(hidden_volumes(volumes_));
  return info;
}

BatchResult<PageRef> StashDevice::read_batch(
    std::span<const std::uint64_t> lpns) {
  std::vector<std::future<Result<PageRef>>> futures;
  futures.reserve(lpns.size());
  for (const std::uint64_t lpn : lpns) futures.push_back(submit_read(lpn));
  drain();
  BatchResult<PageRef> out;
  out.reserve(futures.size());
  for (auto& fut : futures) out.push_back(fut.get());
  return out;
}

DeviceStats StashDevice::stats_snapshot() const noexcept {
  return counters_.snapshot();
}

std::string StashDevice::stats_json() const {
  std::string out = "{";
  telemetry::append_counters_json(stats_snapshot(), out);
  out += '}';
  return out;
}

}  // namespace stash::dev
