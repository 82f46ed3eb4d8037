#include "stash/dev/cache.hpp"

#include <utility>

namespace stash::dev {

ReadCache::ReadCache(std::size_t capacity_pages)
    : capacity_(capacity_pages) {}

std::optional<PageRef> ReadCache::lookup(std::uint64_t lpn) {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(lpn);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->second;
}

void ReadCache::insert(std::uint64_t lpn, PageRef bits) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(lpn); it != index_.end()) {
    it->second->second = std::move(bits);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(lpn, std::move(bits));
  index_.emplace(lpn, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void ReadCache::invalidate(std::uint64_t lpn) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(lpn); it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
}

void ReadCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

std::size_t ReadCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
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
