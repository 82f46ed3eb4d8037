#include "stash/telemetry/metrics.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace stash::telemetry {

std::uint64_t LatencyHistogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket =
        buckets_[b].load(std::memory_order_relaxed);
    if (seen + in_bucket >= target && in_bucket > 0) {
      // Bucket b holds values in [2^(b-1), 2^b); bucket 0 is the literal
      // value 0.  Interpolate linearly by the target's rank within the
      // bucket — assuming samples spread uniformly across the bucket is a
      // far smaller distortion than quoting a fixed point of a 2x-wide bin.
      if (b == 0) return 0;
      const double lo = std::exp2(static_cast<double>(b) - 1.0);
      const double frac = static_cast<double>(target - seen) /
                          static_cast<double>(in_bucket);
      return static_cast<std::uint64_t>(lo + lo * frac);
    }
    seen += in_bucket;
  }
  return 0;
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map keeps snapshot output deterministically sorted and never
  // invalidates element addresses, so handed-out references stay stable.
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: instrumentation call sites cache references into
  // the registry, and those may outlive any function-local static's
  // destructor under the unsequenced static-destruction order.  An immortal
  // registry makes every phase of shutdown safe.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    snap.histograms.push_back({name, h->count(), h->sum(), h->mean(),
                               h->quantile(0.5), h->quantile(0.99),
                               h->quantile(0.999)});
  }
  return snap;
}

}  // namespace stash::telemetry
