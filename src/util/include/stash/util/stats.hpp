#pragma once
// Small descriptive-statistics helpers used by the simulator calibration
// tests, the SVM feature extractors, and the benchmark harnesses.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace stash::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  /// Smallest sample seen, or quiet NaN when no sample was added.  NaN (not
  /// 0.0) so that an empty accumulator cannot be mistaken for one that saw
  /// a legitimate zero; callers must check count() or std::isnan().
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  /// Largest sample seen, or quiet NaN when no sample was added (see min()).
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  void merge(const RunningStats& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) *
               static_cast<double>(other.n_) / total;
    mean_ += delta * static_cast<double>(other.n_) / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double variance(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Nearest-rank q-th quantile of the ascending `sorted`: its ceil(q*n)-th
/// smallest value, with q clamped to [0, 1] (q = 0 gives the minimum).
/// 0 when empty.
[[nodiscard]] std::uint64_t quantile(std::span<const std::uint64_t> sorted,
                                     double q) noexcept;

/// Pearson correlation coefficient; 0 for degenerate inputs.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys) noexcept;

}  // namespace stash::util
