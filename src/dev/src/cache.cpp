#include "stash/dev/cache.hpp"

#include <algorithm>
#include <utility>

namespace stash::dev {

ReadCache::ReadCache(std::size_t capacity_pages, std::uint32_t shards)
    : capacity_(capacity_pages), shards_(std::max<std::uint32_t>(1, shards)) {
  // Exact distribution: flooring capacity/shards would silently shrink the
  // cache (100/16 -> 96) and rounding every shard up to one page would
  // inflate tiny ones (4/16 -> 16); hand the remainder out one page at a
  // time instead so the shard budgets sum to capacity_pages exactly.
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i].capacity =
        capacity_pages / n + (i < capacity_pages % n ? 1 : 0);
  }
}

std::optional<PageRef> ReadCache::lookup(std::uint64_t lpn) {
  if (!enabled()) return std::nullopt;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(lpn);
  if (it == s.index.end()) return std::nullopt;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
  return it->second->second;
}

void ReadCache::insert(std::uint64_t lpn, PageRef bits) {
  if (!enabled()) return;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.capacity == 0) return;  // this shard got no pages
  if (const auto it = s.index.find(lpn); it != s.index.end()) {
    it->second->second = std::move(bits);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(lpn, std::move(bits));
  s.index.emplace(lpn, s.lru.begin());
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
  }
}

void ReadCache::invalidate(std::uint64_t lpn) {
  if (!enabled()) return;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.index.find(lpn); it != s.index.end()) {
    s.lru.erase(it->second);
    s.index.erase(it);
  }
}

void ReadCache::clear() {
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.index.clear();
  }
}

std::size_t ReadCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    n += s.lru.size();
  }
  return n;
}

bool WriteBackBuffer::put(std::uint64_t lpn, PageRef bits) {
  if (const auto it = index_.find(lpn); it != index_.end()) {
    it->second->bits = std::move(bits);
    it->second->trim = false;
    return true;
  }
  entries_.push_back(Entry{lpn, std::move(bits), false});
  index_.emplace(lpn, std::prev(entries_.end()));
  return false;
}

bool WriteBackBuffer::put_trim(std::uint64_t lpn) {
  if (const auto it = index_.find(lpn); it != index_.end()) {
    it->second->bits = PageRef{};
    it->second->trim = true;
    return true;
  }
  entries_.push_back(Entry{lpn, {}, true});
  index_.emplace(lpn, std::prev(entries_.end()));
  return false;
}

const WriteBackBuffer::Entry* WriteBackBuffer::find(std::uint64_t lpn) const {
  const auto it = index_.find(lpn);
  return it == index_.end() ? nullptr : &*it->second;
}

void WriteBackBuffer::erase(std::uint64_t lpn) {
  if (const auto it = index_.find(lpn); it != index_.end()) {
    entries_.erase(it->second);
    index_.erase(it);
  }
}

std::list<WriteBackBuffer::Entry> WriteBackBuffer::drop_all() {
  index_.clear();
  return std::exchange(entries_, {});
}

}  // namespace stash::dev
