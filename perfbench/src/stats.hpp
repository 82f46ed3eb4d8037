#pragma once
// Exact order statistics over raw samples (no histogram buckets).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A bag of samples with nearest-rank percentiles.  A percentile is only
/// reported when at least kMinTail samples lie strictly beyond its rank;
/// otherwise it is unsupported and quantile() returns nullopt.
class Samples {
 public:
  static constexpr std::size_t kMinTail = 10;

  void add(double v) {
    xs_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& other) {
    xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] double sum() const noexcept {
    double s = 0.0;
    for (const double x : xs_) s += x;
    return s;
  }
  [[nodiscard]] double mean() const noexcept {
    return xs_.empty() ? 0.0 : sum() / static_cast<double>(xs_.size());
  }

  /// Nearest-rank q-quantile (q in (0, 1]).
  [[nodiscard]] std::optional<double> quantile(double q) {
    const std::size_t n = xs_.size();
    if (n == 0) return std::nullopt;
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    if (n - std::min(rank, n) < kMinTail) return std::nullopt;
    if (!sorted_) {
      std::sort(xs_.begin(), xs_.end());
      sorted_ = true;
    }
    return xs_[rank - 1];
  }

 private:
  std::vector<double> xs_;
  bool sorted_ = true;
};

}  // namespace perfbench
