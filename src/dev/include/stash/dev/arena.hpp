#pragma once
// Zero-copy page buffers for the StashDevice read path.
//
// PageRef — an immutable, ref-counted view of one page's bits.  The read
// LRU, the write-back buffer, every pending read future, and a stash::net
// response can all reference the same underlying buffer; handing a page to
// one more consumer is a refcount bump, never a memcpy.  A PageRef either
// shares an arena slab or adopts a caller vector (also zero-copy: the
// vector moves into the owner).
//
// BufferArena — a page-aligned slab allocator those buffers come from.
// acquire() hands out one writable page-sized Lease; the FTL/NAND read
// path thresholds cells straight into it, and seal() freezes it into a
// PageRef.  Released slabs (last PageRef dropped, or a lease abandoned on
// a failed read) return to a freelist, so the steady-state read loop
// allocates nothing.  The freelist state is held by shared_ptr: slabs
// still referenced when the arena dies are returned to the surviving
// state and freed with it.
//
// The residual copy this design leaves in the device, splicing the hidden
// chunks into one container, is charged to the dev.bytes_copied counter — see
// StashDevice — so "the copies are gone" is a measured claim, not a
// code-review one.  The wire copies (one per frame on each side, see
// stash/net/protocol.hpp) happen in stash::net and are not charged.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace stash::dev {

namespace detail {
struct ArenaState;  // shared freelist (arena.cpp)
}  // namespace detail

/// Immutable shared view of one page's bits.  Copying shares (refcount
/// bump); the storage lives until the last PageRef drops.  An empty ref
/// (size() == 0) plays the role the empty vector played before: the
/// "fault interrupted this read" observable.
class PageRef {
 public:
  PageRef() = default;

  /// Wrap a vector without copying it (the vector moves into the owner).
  [[nodiscard]] static PageRef adopt(std::vector<std::uint8_t> bytes) {
    if (bytes.empty()) return {};
    auto owner = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    const std::uint8_t* data = owner->data();
    const std::size_t size = owner->size();
    return PageRef{std::shared_ptr<const void>(std::move(owner)), data, size};
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data_; }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data_, size_};
  }
  /// Materialize a private copy (legacy callers; this IS a copy).
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {data_, data_ + size_};
  }

  friend bool operator==(const PageRef& a, const PageRef& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const PageRef& a,
                         const std::vector<std::uint8_t>& b) noexcept {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<std::uint8_t>& a,
                         const PageRef& b) noexcept {
    return b == a;
  }

 private:
  friend class BufferArena;
  PageRef(std::shared_ptr<const void> owner, const std::uint8_t* data,
          std::size_t size) noexcept
      : owner_(std::move(owner)), data_(data), size_(size) {}

  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Page-aligned slab pool.  Thread-compatible with the device's locking:
/// acquire()/release run under a freelist mutex, so leases may be sealed
/// and refs dropped from any thread.
class BufferArena {
 public:
  /// `page_bytes` is the fixed slab payload size (one page's bits);
  /// `alignment` defaults to a 4 KiB OS page.  `prefault` slabs are
  /// allocated and touched up front: without it, every cold miss in a
  /// fresh device pays its slab's soft page faults inside the latency-
  /// measured dispatch round (the read-tail warmup is exactly the p99).
  explicit BufferArena(std::size_t page_bytes, std::size_t alignment = 4096,
                       std::size_t prefault = 0);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;
  ~BufferArena();

  /// One writable page-sized buffer, freelist-recycled.  Destroying an
  /// unsealed lease returns the slab (the failed-read path).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      state_ = std::move(other.state_);
      slab_ = other.slab_;
      other.slab_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] std::span<std::uint8_t> span() noexcept;

    /// Freeze the first `used` bytes into a shared PageRef and give up the
    /// lease.  used == 0 releases the slab immediately and returns an
    /// empty ref (the fault observable).
    [[nodiscard]] PageRef seal(std::size_t used) &&;

   private:
    friend class BufferArena;
    Lease(std::shared_ptr<detail::ArenaState> state,
          std::uint8_t* slab) noexcept
        : state_(std::move(state)), slab_(slab) {}
    void release() noexcept;

    std::shared_ptr<detail::ArenaState> state_;
    std::uint8_t* slab_ = nullptr;
  };

  [[nodiscard]] Lease acquire();

 private:
  std::shared_ptr<detail::ArenaState> state_;
};

}  // namespace stash::dev
