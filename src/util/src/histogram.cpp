#include "stash/util/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace stash::util {
namespace {

/// Validates the constructor arguments before any arithmetic touches them:
/// the width division must never see bins == 0 or hi <= lo (a pre-throw
/// inf/NaN would escape into the member before the guard fired).
double checked_width(double lo, double hi, std::size_t bins) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  return (hi - lo) / static_cast<double>(bins);
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_(checked_width(lo, hi, bins)), counts_(bins, 0) {}

std::size_t Histogram::bin_of(double x) const noexcept {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  auto b = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(b, counts_.size() - 1);
}

void Histogram::add(double x) noexcept {
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  }
  ++counts_[bin_of(x)];
  ++total_;
}

void Histogram::add(std::span<const double> xs) noexcept {
  for (double x : xs) add(x);
}

std::vector<double> Histogram::normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

double Histogram::fraction_at_or_above(double x) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t above = 0;
  const std::size_t start = bin_of(x);
  for (std::size_t i = start; i < counts_.size(); ++i) above += counts_[i];
  return static_cast<double>(above) / static_cast<double>(total_);
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("Histogram::merge: incompatible binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

}  // namespace stash::util
