#include "stash/util/stats.hpp"

#include <cmath>
#include <limits>

namespace stash::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

std::uint64_t quantile(std::span<const std::uint64_t> sorted,
                       double q) noexcept {
  if (sorted.empty()) return 0;
  const double rank =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  const double denom = std::sqrt(sxx * syy);
  if (denom <= std::numeric_limits<double>::min()) return 0.0;
  return sxy / denom;
}

}  // namespace stash::util
