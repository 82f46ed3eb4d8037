#pragma once
// stash::dev::StashDevice — the asynchronous serving frontend of the stack.
//
// Callers used to juggle FlashChip, PageMappedFtl, VthiCodec and StegoVolume
// directly; StashDevice is the one block-device-shaped surface over all of
// them (the role PEARL's deniable FTL and Copycat's request frontend play in
// their systems).  It owns N FlashChips, one StegoVolume (public FTL +
// hidden VT-HI channel) per chip, and a deterministic request scheduler in
// front:
//
//   * Asynchronous submission: submit_read / submit_store_hidden /
//     submit_load_hidden / submit_gc return futures that resolve in a
//     dispatch round.  write() and trim() stage into the write-back buffer
//     and return their status at once.
//   * One dispatch rule: a round runs when kBatchPages (16) requests are
//     queued (inline on the submitting caller, so the producer pays for
//     the drain) or when a caller drains.  Same-block
//     reads of a round coalesce into PageMappedFtl::read_batch_into
//     (duplicate-lpn reads collapse to one physical read).  There is no
//     clock: the schedule is a pure function of the submit/drain sequence.
//   * The request kind is the schedule: a round runs its reads first, as
//     one batch, then the background requests (hidden-volume ops and GC)
//     in submission order — foreground reads overtake queued background
//     work, and the order stays a pure function of the submission order.
//   * One read LRU (ReadCache) and a write-back buffer
//     (WriteBackBuffer) with an explicit flush().  A write is acknowledged
//     when buffered and durable when flush() returns OK; under a
//     stash::fault power cut, everything a successful flush() covered
//     survives, and power_cycle() reports the acked-unflushed remainder as
//     lost (never corrupted — the FTL remaps only after a program
//     completes, so torn writes leave the old version readable).
//
// Determinism: all flash-touching work happens inside dispatch rounds,
// driven from the submitting thread; fan-out goes through one
// par::ThreadPool (PageMappedFtl::read_batch_into groups same-block reads;
// per-chip work is independent by FlashChip's per-block RNG streams).  For
// a fixed submission sequence the device state, every result, and the
// cost-ledger totals are byte-identical for any DeviceConfig::threads.
//
// Concurrency: the public API is thread-safe (one internal mutex); the
// scheduler executes one dispatch round at a time.  Addressing stripes the
// device LPN space across chips: lpn -> (chip = lpn % chips,
// local = lpn / chips).

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "stash/dev/arena.hpp"
#include "stash/dev/cache.hpp"
#include "stash/dev/config.hpp"
#include "stash/crypto/drbg.hpp"
#include "stash/nand/fault_injector.hpp"
#include "stash/par/pool.hpp"
#include "stash/stego/volume.hpp"
#include "stash/store/snapshot.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/batch.hpp"
#include "stash/util/status.hpp"

namespace stash::dev {

using util::BatchResult;
using util::Result;
using util::Status;

/// The hidden object, described: what the versioned hidden-object API
/// (hidden_info) reports instead of the old anonymous-blob view.  All
/// byte counts are exact; ratios are derived.
struct HiddenInfo {
  /// Payload bytes the hiding user stored (after unpacking).
  std::uint64_t logical_bytes = 0;
  /// Container bytes actually embedded in the voltage channel.
  std::uint64_t packed_bytes = 0;
  /// CDC chunks in the payload / distinct chunks after dedup.
  std::uint64_t chunks = 0;
  std::uint64_t unique_chunks = 0;
  /// Format of the stored generation: its pack container version
  /// (pack::kFormatVersion, the only one a load accepts).
  std::uint16_t format = 0;
  /// Logical bytes per deduped byte.
  double dedup_ratio = 1.0;
  /// Packed bytes a replacement store could take right now: the chunk
  /// capacity of every chip's blocks that could carry a chunk beside the
  /// stored generation (stego::hidden_capacity_bytes).
  std::uint64_t remaining_capacity_bytes = 0;

  /// Effective hidden-capacity multiplier of the stored generation.
  [[nodiscard]] double multiplier() const noexcept {
    return packed_bytes ? static_cast<double>(logical_bytes) /
                              static_cast<double>(packed_bytes)
                        : 1.0;
  }
};

/// The device's counters, named once.  DeviceStats, the per-instance
/// table, stats_json() and the net stats payload are all generated from
/// this list (stash/telemetry/
/// counter_table.hpp), so a new counter is one entry here plus its
/// increment site.
#define STASH_DEV_COUNTERS(X)                                               \
  X(reads)               /* read requests completed */                     \
  X(writes)              /* write requests acknowledged */                 \
  X(trims)                                                                 \
  X(cache_hits)          /* reads served from the LRU */                   \
  X(cache_misses)        /* LRU probes that missed (cache enabled only) */ \
  X(buffer_hits)         /* reads served from the write-back buffer */     \
  X(coalesced_writes)    /* buffered lpn overwritten before flush */       \
  X(coalesced_reads)     /* duplicate lpns collapsed in a batch */         \
  X(dispatches)          /* dispatch rounds executed */                    \
  X(flushes)             /* flush() calls that drained something */        \
  X(flushed_pages)       /* buffer entries made durable */                 \
  X(lost_writes)         /* acked-unflushed entries lost to a cut */       \
  X(gc_runs)             /* background GC rounds executed */               \
  X(hidden_stores)       /* store_hidden requests that succeeded */        \
  X(hidden_loads)        /* load_hidden requests that succeeded */         \
  /* Cumulative pack pipeline totals over all successful hidden stores:    \
     payload bytes in vs container bytes embedded. */                      \
  X(pack_logical_bytes)                                                    \
  X(pack_packed_bytes)                                                     \
  /* Page-payload bytes the device memcpy'd while serving requests.  The   \
     zero-copy read path (BufferArena slabs + PageRef sharing) keeps this  \
     at 0 for steady-state reads; the residual copy still charged here is  \
     the splice of every chip's hidden chunks into one container on        \
     load_hidden and hidden_info. */                                       \
  X(bytes_copied)

/// Point-in-time device statistics (StashDevice::stats_snapshot).
struct DeviceStats {
  STASH_COUNTER_FIELDS("dev", STASH_DEV_COUNTERS)

  [[nodiscard]] double cache_hit_ratio() const noexcept {
    const std::uint64_t total = cache_hits + cache_misses;
    return total ? static_cast<double>(cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class StashDevice {
 public:
  /// One executed queue entry, in execution order (test/debug
  /// introspection of the schedule).
  struct ExecutedOp {
    trace::Op op;
    std::uint64_t seq;
  };

  StashDevice(const DeviceConfig& config, const crypto::HidingKey& key);
  StashDevice(const StashDevice&) = delete;
  StashDevice& operator=(const StashDevice&) = delete;
  /// Drains the queue and flushes the write-back buffer (best effort; a
  /// dark device simply keeps its volatile state lost).
  ~StashDevice();

  // ---- Geometry -----------------------------------------------------------
  [[nodiscard]] std::uint64_t logical_pages() const noexcept;
  [[nodiscard]] std::uint32_t page_bits() const noexcept;
  [[nodiscard]] std::uint32_t chips() const noexcept {
    return static_cast<std::uint32_t>(chips_.size());
  }
  [[nodiscard]] const DeviceConfig& config() const noexcept { return config_; }

  // ---- Asynchronous frontend ---------------------------------------------
  /// Queue a read; the future resolves at dispatch with a shared,
  /// zero-copy reference to the page data (the same buffer the read LRU
  /// holds).
  std::future<Result<PageRef>> submit_read(std::uint64_t lpn);
  /// Queue hidden-volume ops and GC as background work: a round runs them
  /// after its reads.
  std::future<Status> submit_store_hidden(std::vector<std::uint8_t> data);
  std::future<Result<PageRef>> submit_load_hidden();
  /// One GC pass on every chip's FTL.
  std::future<Status> submit_gc();

  // ---- Synchronous surface -----------------------------------------------
  Result<PageRef> read(std::uint64_t lpn);
  /// Stage a write, adopting `bits` (no copy).  OK once the data is
  /// buffered; durable after flush() (or the backpressure flush a full
  /// buffer forces, whose status the triggering write returns).
  Status write(std::uint64_t lpn, std::vector<std::uint8_t> bits);
  /// Stage a trim tombstone, like write().
  Status trim(std::uint64_t lpn);
  /// Store (replace) the hidden object.  The payload goes through the
  /// dedup + compression pipeline (DeviceConfig::pack) first, and the
  /// container is embedded as one chunk set across the chips
  /// (stego::store_hidden); load transparently reverses both.  Load is
  /// kNotFound without a hidden object under this key, kCorrupted for
  /// chunks that do not form one intact container, and kUnsupported for a
  /// container version this build does not write.
  Status store_hidden(std::span<const std::uint8_t> data);
  Result<PageRef> load_hidden();

  // ---- Hidden-object introspection ---------------------------------------
  /// Describe the stored hidden object: logical vs embedded bytes, dedup
  /// ratio, container format, and remaining hidden headroom.  Queries the
  /// voltage channel like load_hidden (dispatching anything queued first),
  /// so it reflects the committed generation, with load_hidden's errors.
  Result<HiddenInfo> hidden_info();

  // ---- Batch entry points (util::BatchResult convention) ------------------
  /// Read many pages in one dispatch round; result i <-> lpns[i].
  BatchResult<PageRef> read_batch(std::span<const std::uint64_t> lpns);

  // ---- Durability ---------------------------------------------------------
  /// Drain the write-back buffer to flash in staging order.  On OK, every
  /// write acknowledged before this call is durable.  On failure (e.g. a
  /// power cut mid-drain) the un-persisted entries stay buffered.
  Status flush();
  /// Dispatch everything queued (does not flush): afterwards every
  /// future handed out so far is ready.
  void drain();

  // ---- Fault integration --------------------------------------------------
  /// Attach `injector` to every chip of the array (nullptr detaches).
  void set_fault_injector(nand::FaultInjector* injector) noexcept;
  /// Simulated reboot after a power cut: volatile state (write-back
  /// buffer, read cache, queued requests, each volume's carrier set and
  /// rescued hidden chunks) is gone.  Queued requests resolve with
  /// kPowerLoss; acked-unflushed writes are recorded in lost_writes() and
  /// rescued chunks that had no new carrier yet in the volume's
  /// lost_chunks — reported lost, never silently dropped.  The next hidden
  /// operation (or GC) finds the carriers by key.  Call after restoring
  /// power on the fault plan.
  Status power_cycle();
  /// LPNs of acknowledged writes lost to power cuts, in staging order.
  [[nodiscard]] const std::vector<std::uint64_t>& lost_writes()
      const noexcept {
    return lost_writes_;
  }

  // ---- Persistence (stash::store) -----------------------------------------
  /// Quiesce the queue, flush the write-back buffer, re-embed every
  /// rescued hidden chunk, and atomically commit the device's persistent
  /// state — every chip's cells/epochs/ledger and each FTL's maps — as a
  /// new snapshot generation under `dir`.  Nothing in it names the hidden
  /// volume: the carriers are found by key after a restore.  kNoSpace,
  /// before any file is touched, when a rescued chunk finds no carrier.  A
  /// crash at any syscall of the save (torn write, failed fsync/rename;
  /// injectable via `injector`) leaves the previous generation loadable.
  /// Returns what was committed (path, generation, commit_seq, byte
  /// size).
  Result<store::SaveInfo> save_snapshot(
      const std::string& dir, store::FileFaultInjector* injector = nullptr);
  /// Restore the device from the newest loadable generation under `dir`.
  /// Resolves anything still queued against the pre-restore state first,
  /// then replaces chips and FTLs wholesale.  Volatile state is rolled back
  /// with everything else: the read cache is invalidated, the write-back
  /// buffer discarded and each volume's carrier set and rescued chunks
  /// forgotten (post-snapshot history is undone by the restore, so none of
  /// it is counted as lost).  The next hidden operation (or GC) finds the
  /// carriers by key.  A directory written by an older build loads too;
  /// its hidden-volume record is ignored.  kNotFound when `dir`
  /// holds no snapshot; kCorrupted when no generation validates; on a
  /// config-mismatched snapshot, kInvalidArgument.  The device is
  /// unchanged on any pre-apply failure.
  Status load_snapshot(const std::string& dir);
  /// FNV-1a digest of the canonical serialization of the device's full
  /// persistent state (exactly what save_snapshot writes: chips + FTL maps
  /// + lost-write ledger; the volatile queue/cache/buffer and carrier set
  /// are not state).  Bit-exact restore <=> equal checksums — the gate the
  /// snapshot tests, the soak harness, and CI's determinism diff assert.
  [[nodiscard]] std::uint64_t state_checksum() const;

  // ---- Introspection ------------------------------------------------------
  [[nodiscard]] DeviceStats stats_snapshot() const noexcept;
  /// Canonical JSON of stats_snapshot(): fixed key order, integers only —
  /// byte-identical across runs whenever the event counts are.
  [[nodiscard]] std::string stats_json() const;
  /// Aggregate cost ledger across all chips (exact fixed-point totals).
  [[nodiscard]] nand::CostLedger ledger() const;
  /// Execution order of the most recent dispatch round.
  [[nodiscard]] const std::vector<ExecutedOp>& last_dispatch_order()
      const noexcept {
    return last_dispatch_;
  }
  /// Direct access to a chip's volume (expert escape hatch; do not
  /// interleave with queued traffic).
  [[nodiscard]] stego::StegoVolume& volume(std::uint32_t chip) {
    return *volumes_.at(chip);
  }
  /// Direct access to one chip (per-chip fault injection in tests).
  [[nodiscard]] nand::FlashChip& chip(std::uint32_t index) {
    return *chips_.at(index);
  }

 private:
  struct Request {
    trace::Op op = trace::Op::kRead;  // kRead, kStoreHidden, kLoadHidden, kGc
    std::uint64_t seq = 0;
    std::uint64_t lpn = 0;
    std::vector<std::uint8_t> data;  // store_hidden payload
    std::promise<Result<PageRef>> value_promise;
    std::promise<Status> status_promise;
    /// Root span of this request's trace (inactive when tracing is off).
    /// The dev.request root is the request's one latency record: it spans
    /// enqueue to resolution.
    trace::TraceContext trace{};
    /// Device clock (trace_now) at enqueue; queue-wait = service start
    /// minus this.
    std::uint64_t enqueue_now = 0;
  };

  [[nodiscard]] std::uint32_t chip_of(std::uint64_t lpn) const noexcept {
    return static_cast<std::uint32_t>(lpn % chips_.size());
  }
  [[nodiscard]] std::uint64_t local_lpn(std::uint64_t lpn) const noexcept {
    return lpn / chips_.size();
  }

  /// Enqueue under lock; a full batch dispatches inline.
  void enqueue(Request req, std::unique_lock<std::mutex>& lock);
  /// Stage a write (`op` kWrite, `bits` one page) or a trim tombstone
  /// (`op` kTrim) into the write-back buffer.
  Status stage(trace::Op op, std::uint64_t lpn,
               std::vector<std::uint8_t> bits);
  /// Execute every queued request: the reads as one batch, then the
  /// background requests in submission order.  Called with the lock held;
  /// the lock stays held throughout (dispatch is the single-threaded heart
  /// of the deterministic schedule).
  void dispatch(std::unique_lock<std::mutex>& lock);
  void execute_reads(std::vector<Request>& reads);
  Status execute_gc();
  /// Flush body; requires the lock.
  Status flush_locked();

  // ---- Persistence helpers (all called under mu_) -------------------------
  /// Identity of the substrate a snapshot is only valid against: geometry,
  /// chip count, seed, and the noise model (the per-cell RNG is keyed on
  /// all of them, so restoring into a different one would silently break
  /// the determinism contract).
  [[nodiscard]] std::uint64_t snapshot_config_hash() const noexcept;
  /// The device's persistent state as named snapshot chunks, in canonical
  /// order (dev/meta, then per chip: meta, blocks ascending, ftl).
  [[nodiscard]] std::vector<store::Chunk> snapshot_chunks() const;
  Status apply_snapshot(const store::SnapshotData& snap);

  // ---- Tracing helpers (all called under mu_) -----------------------------
  /// Wall or simulated nanoseconds depending on the tracer's clock mode.
  /// Simulated time is the device ledger's time_ns: exact and thread-count
  /// independent, so deterministic traces read it instead of the wall clock.
  [[nodiscard]] std::uint64_t trace_now() const noexcept;
  /// Allocate a (possibly inactive) root context for a new request.
  [[nodiscard]] trace::TraceContext new_request_trace(trace::Op op,
                                                      std::uint64_t key);
  /// Emit the request skeleton: dev.request root with dev.queue_wait and
  /// ftl.service children, from three clock reads (enqueue, service start,
  /// service end) — so root duration == queue_wait + service exactly.
  void emit_request_trace(const trace::TraceContext& root, std::uint64_t enq,
                          trace::Op op, std::uint64_t key, std::uint64_t t0,
                          std::uint64_t t1, std::uint8_t status);

  DeviceConfig config_;
  par::ThreadPool pool_;
  /// Chip i is seeded from (config.seed, i), so one root seed and the
  /// geometry reproduce every chip exactly.
  std::vector<std::unique_ptr<nand::FlashChip>> chips_;
  std::vector<std::unique_ptr<stego::StegoVolume>> volumes_;

  mutable std::mutex mu_;
  /// Queued requests by class, each in submission order.
  std::vector<Request> reads_;
  std::vector<Request> background_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t trace_seq_ = 0;     // request trace ids
  std::uint64_t dispatch_seq_ = 0;  // dispatch-round trace ids
  /// Slab pool behind every read result: misses threshold straight into
  /// an arena lease, and the sealed PageRef is shared by the LRU, the
  /// futures, and net responses.
  BufferArena arena_;
  WriteBackBuffer buffer_;
  ReadCache cache_;
  std::vector<std::uint64_t> lost_writes_;
  std::vector<ExecutedOp> last_dispatch_;

  telemetry::CounterTable<DeviceStats> counters_;
};

}  // namespace stash::dev
