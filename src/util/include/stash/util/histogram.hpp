#pragma once
// Fixed-width-bin histogram over a closed numeric range.  This is the shape
// of data the paper's tester reports (per-level cell counts) and what the
// SVM detectability analysis consumes as its feature vector.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stash::util {

class Histogram {
 public:
  /// Bins cover [lo, hi); values outside are clamped into the edge bins so
  /// no observation is ever silently dropped, and tallied as
  /// underflow()/overflow() so the clamping is never silent either.
  /// Throws std::invalid_argument unless bins > 0 and hi > lo.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Observations below lo / at-or-above hi.  They are still counted into
  /// the edge bins (and into total()), but these tallies let a consumer
  /// report clamped tail mass honestly instead of mistaking it for real
  /// edge-bin population.
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] double bin_center(std::size_t bin) const noexcept {
    return lo_ + (static_cast<double>(bin) + 0.5) * width_;
  }

  /// Fraction of all observations in each bin; empty histogram -> all zeros.
  [[nodiscard]] std::vector<double> normalized() const;

  /// Fraction of observations at or above x.
  [[nodiscard]] double fraction_at_or_above(double x) const noexcept;

  /// Merge another histogram with identical binning.  Throws otherwise.
  void merge(const Histogram& other);

 private:
  [[nodiscard]] std::size_t bin_of(double x) const noexcept;

  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace stash::util
