#pragma once
// Caching building blocks of the StashDevice frontend.
//
// ReadCache — one LRU over logical pages behind one mutex.  The whole
// capacity is one budget, so a hot set of any shape competes for every page
// (splitting it by lpn would evict hot pages from one part while another
// has room).  StashDevice calls it under its own mutex; the cache's mutex
// keeps it safe on its own.
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

#include "stash/dev/arena.hpp"

namespace stash::dev {

class ReadCache {
 public:
  /// capacity_pages == 0 disables the cache (lookups miss, inserts drop).
  explicit ReadCache(std::size_t capacity_pages);

  /// A hit is a refcount bump on the cached PageRef — the page bits are
  /// shared with whoever inserted them, never copied out.
  [[nodiscard]] std::optional<PageRef> lookup(std::uint64_t lpn);
  void insert(std::uint64_t lpn, PageRef bits);
  void invalidate(std::uint64_t lpn);
  void clear();

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<std::pair<std::uint64_t, PageRef>> lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_;
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
