#include "stash/telemetry/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace stash::telemetry {

struct MetricsRegistry::Impl {
  std::mutex mu;
  // std::map never invalidates element addresses, so handed-out references
  // stay stable.
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

}  // namespace stash::telemetry
