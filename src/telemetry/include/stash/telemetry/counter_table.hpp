#pragma once
// stash::telemetry::CounterTable — one layer's event counters, named once.
//
// A layer lists its counters in a single X-macro,
//
//   #define STASH_DEV_COUNTERS(X) X(reads) X(writes) ... X(bytes_copied)
//
// and its public stats struct expands that list with STASH_COUNTER_FIELDS:
//
//   struct DeviceStats {
//     STASH_COUNTER_FIELDS("dev", STASH_DEV_COUNTERS)
//   };
//
// which declares one std::uint64_t field per counter, the Field index enum,
// the names in list order (kNames), and for_each(), the walk every derived
// view uses: snapshot(), append_counters_json(), and the stash::net stats
// payload.  CounterTable<Stats> is the per-instance storage: add(Field) is
// one relaxed atomic add on the instance, and snapshot() copies the counts
// into a Stats value.  These per-instance tables are the stack's only event
// counts; nothing is mirrored process-wide.  Adding a counter is therefore
// one list entry plus its add() site.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#define STASH_COUNTER_FIELD_(name) std::uint64_t name = 0;
#define STASH_COUNTER_ENUM_(name) name,
#define STASH_COUNTER_NAME_(name) std::string_view{#name},
#define STASH_COUNTER_VISIT_(name) fn(std::string_view{#name}, self.name);

/// Expands, inside a stats struct, to the fields and schema of the counter
/// list `LIST` of layer `layer` (see the header comment).
#define STASH_COUNTER_FIELDS(layer, LIST)                          \
  LIST(STASH_COUNTER_FIELD_)                                       \
  enum class Field : std::size_t { LIST(STASH_COUNTER_ENUM_) };    \
  static constexpr std::string_view kLayer = layer;                \
  static constexpr std::array kNames{LIST(STASH_COUNTER_NAME_)};   \
  /* Calls fn(name, field) for every counter, in list order. */    \
  template <typename Self, typename Fn>                            \
  static void for_each(Self& self, Fn&& fn) {                      \
    LIST(STASH_COUNTER_VISIT_)                                     \
  }

namespace stash::telemetry {

template <typename Stats>
class CounterTable {
 public:
  using Field = typename Stats::Field;
  static constexpr std::size_t kSize = Stats::kNames.size();

  /// Count one event (or `delta` units) on this instance.
  void add(Field field, std::uint64_t delta = 1) noexcept {
    counts_[static_cast<std::size_t>(field)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  [[nodiscard]] Stats snapshot() const noexcept {
    Stats s;
    std::size_t i = 0;
    Stats::for_each(s, [&](std::string_view, std::uint64_t& v) {
      v = counts_[i++].load(std::memory_order_relaxed);
    });
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kSize> counts_{};
};

/// `"name":value` for every counter of `stats`, comma-separated, in list
/// order: the body of a layer's canonical stats_json().
template <typename Stats>
void append_counters_json(const Stats& stats, std::string& out) {
  const char* sep = "";
  Stats::for_each(stats, [&](std::string_view name, std::uint64_t v) {
    out += sep;
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(v);
    sep = ",";
  });
}

}  // namespace stash::telemetry
