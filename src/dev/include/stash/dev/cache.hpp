#pragma once
// Caching building blocks of the StashDevice frontend.
//
// ReadCache — a sharded LRU over logical pages.  Shard = lpn % shards, each
// shard its own mutex + LRU list, so concurrent lookups on different shards
// never contend.  Capacity is distributed exactly: base capacity/shards
// pages per shard plus one of the remainder to the first capacity%shards
// shards, so the per-shard budgets always sum to the configured total (a
// shard can have zero pages when capacity < shards; its lookups simply
// always miss).
//
// WriteBackBuffer — the volatile staging area of acknowledged writes.  One
// entry per lpn in first-touch order; rewriting a buffered lpn coalesces in
// place (the flash never sees the overwritten version).  trim() buffers a
// tombstone the same way.  The buffer IS the acked-but-not-durable set: a
// power cut wipes it, which is exactly the data the device must then report
// lost (see StashDevice::power_cycle).

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "stash/dev/arena.hpp"

namespace stash::dev {

class ReadCache {
 public:
  /// capacity_pages == 0 disables the cache (lookups miss, inserts drop).
  ReadCache(std::size_t capacity_pages, std::uint32_t shards);

  /// A hit is a refcount bump on the cached PageRef — the page bits are
  /// shared with whoever inserted them, never copied out.
  [[nodiscard]] std::optional<PageRef> lookup(std::uint64_t lpn);
  void insert(std::uint64_t lpn, PageRef bits);
  void invalidate(std::uint64_t lpn);
  void clear();

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  /// Total configured capacity (the exact sum of the per-shard budgets).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Capacity assigned to one shard (test introspection).
  [[nodiscard]] std::size_t shard_capacity(std::size_t shard) const {
    return shards_.at(shard).capacity;
  }
  [[nodiscard]] std::size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, PageRef>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
    std::size_t capacity = 0;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t lpn) {
    return shards_[lpn % shards_.size()];
  }

  std::size_t capacity_;
  std::vector<Shard> shards_;
};

class WriteBackBuffer {
 public:
  struct Entry {
    std::uint64_t lpn = 0;
    PageRef bits;  // empty for a trim tombstone
    bool trim = false;
  };

  /// Stage a write; returns true when it coalesced into an existing entry.
  /// The staged PageRef is shared with buffer-hit readers until flushed.
  bool put(std::uint64_t lpn, PageRef bits);
  /// Stage a trim tombstone for `lpn`.
  bool put_trim(std::uint64_t lpn);

  /// Buffered data for `lpn`: the staged bits, an engaged-but-empty vector
  /// meaning "trimmed", or nullopt when the lpn is not buffered.
  [[nodiscard]] const Entry* find(std::uint64_t lpn) const;

  /// Entries in first-touch order (the flush order).
  [[nodiscard]] const std::list<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Remove one flushed entry.
  void erase(std::uint64_t lpn);
  /// Drop everything (power loss); returns the dropped entries so the
  /// caller can account for them.
  std::list<Entry> drop_all();

 private:
  std::list<Entry> entries_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace stash::dev
