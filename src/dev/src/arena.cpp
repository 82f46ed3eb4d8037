#include "stash/dev/arena.hpp"

#include <new>

namespace stash::dev {

/// Shared freelist.  Outstanding PageRefs keep it alive past the arena via
/// shared_ptr, so a slab released after the arena's death still has a
/// freelist to return to (and is freed when the last reference to the
/// state itself drops).
namespace detail {
struct ArenaState {
  std::size_t page_bytes = 0;
  std::size_t alignment = 0;
  std::mutex mu;
  std::vector<std::uint8_t*> free;

  ~ArenaState() {
    for (std::uint8_t* slab : free) {
      ::operator delete(slab, std::align_val_t{alignment});
    }
  }

  std::uint8_t* take() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!free.empty()) {
        std::uint8_t* slab = free.back();
        free.pop_back();
        return slab;
      }
    }
    return static_cast<std::uint8_t*>(
        ::operator new(page_bytes, std::align_val_t{alignment}));
  }

  void give_back(std::uint8_t* slab) {
    const std::lock_guard<std::mutex> lock(mu);
    free.push_back(slab);
  }
};
}  // namespace detail

namespace {

/// Owner object behind a sealed slab's PageRef: returns the slab to the
/// (still shared) freelist when the last reference drops.
struct SlabOwner {
  std::shared_ptr<detail::ArenaState> state;
  std::uint8_t* slab = nullptr;
  ~SlabOwner() {
    if (slab) state->give_back(slab);
  }
};

}  // namespace

std::span<std::uint8_t> BufferArena::Lease::span() noexcept {
  return {slab_, state_ ? state_->page_bytes : 0};
}

PageRef BufferArena::Lease::seal(std::size_t used) && {
  if (!slab_) return {};
  if (used == 0) {
    release();
    return {};
  }
  auto owner = std::make_shared<SlabOwner>();
  owner->state = std::move(state_);
  owner->slab = slab_;
  const std::uint8_t* data = slab_;
  slab_ = nullptr;
  return PageRef{std::shared_ptr<const void>(std::move(owner)), data, used};
}

void BufferArena::Lease::release() noexcept {
  if (slab_ && state_) state_->give_back(slab_);
  slab_ = nullptr;
  state_.reset();
}

BufferArena::BufferArena(std::size_t page_bytes, std::size_t alignment,
                         std::size_t prefault)
    : state_(std::make_shared<detail::ArenaState>()) {
  state_->page_bytes = page_bytes;
  state_->alignment = alignment;
  if (prefault) {
    std::vector<std::uint8_t*> slabs;
    slabs.reserve(prefault);
    for (std::size_t i = 0; i < prefault; ++i) {
      std::uint8_t* slab = state_->take();
      std::fill_n(slab, page_bytes, std::uint8_t{0});  // fault pages in now
      slabs.push_back(slab);
    }
    for (std::uint8_t* slab : slabs) state_->give_back(slab);
  }
}

BufferArena::~BufferArena() = default;

BufferArena::Lease BufferArena::acquire() {
  return Lease{state_, state_->take()};
}

}  // namespace stash::dev
