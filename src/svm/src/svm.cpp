#include "stash/svm/svm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stash/util/rng.hpp"

namespace stash::svm {
namespace {

double kernel_eval(const KernelParams& k, std::span<const double> a,
                   std::span<const double> b) {
  switch (k.type) {
    case KernelType::kLinear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return dot;
    }
    case KernelType::kRbf: {
      double d2 = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        d2 += d * d;
      }
      return std::exp(-k.gamma * d2);
    }
  }
  return 0.0;
}

}  // namespace

void StandardScaler::fit(const std::vector<std::vector<double>>& x) {
  if (x.empty()) throw std::invalid_argument("StandardScaler: empty input");
  const std::size_t dim = x.front().size();
  mean_.assign(dim, 0.0);
  inv_std_.assign(dim, 1.0);
  for (const auto& row : x) {
    for (std::size_t j = 0; j < dim; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(x.size());
  std::vector<double> var(dim, 0.0);
  for (const auto& row : x) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = row[j] - mean_[j];
      var[j] += d * d;
    }
  }
  for (std::size_t j = 0; j < dim; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(x.size()));
    inv_std_[j] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }
}

std::vector<double> StandardScaler::transform(std::span<const double> v) const {
  std::vector<double> out(v.size());
  for (std::size_t j = 0; j < v.size() && j < mean_.size(); ++j) {
    out[j] = (v[j] - mean_[j]) * inv_std_[j];
  }
  return out;
}

void StandardScaler::transform_in_place(
    std::vector<std::vector<double>>& x) const {
  for (auto& row : x) {
    for (std::size_t j = 0; j < row.size() && j < mean_.size(); ++j) {
      row[j] = (row[j] - mean_[j]) * inv_std_[j];
    }
  }
}

SvmModel SvmModel::train(const Dataset& data, const SvmConfig& config) {
  const std::size_t n = data.size();
  if (n == 0) throw std::invalid_argument("SvmModel::train: empty dataset");
  for (int label : data.y) {
    if (label != 1 && label != -1) {
      throw std::invalid_argument("SvmModel::train: labels must be +/-1");
    }
  }

  // Precompute the kernel matrix; detectability datasets are a few hundred
  // samples, so O(n^2) memory is fine.
  std::vector<std::vector<double>> k(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      k[i][j] = k[j][i] = kernel_eval(config.kernel, data.x[i], data.x[j]);
    }
  }

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  util::Xoshiro256 rng(config.seed);

  auto f = [&](std::size_t i) {
    double s = b;
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] > 0.0) s += alpha[j] * data.y[j] * k[i][j];
    }
    return s;
  };

  // Simplified SMO (Platt 1998 as in the Stanford CS229 formulation).
  int passes = 0;
  const double c = config.c;
  const double tol = config.tol;
  while (passes < config.max_passes) {
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = f(i) - data.y[i];
      const bool violates = (data.y[i] * ei < -tol && alpha[i] < c) ||
                            (data.y[i] * ei > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.below(n - 1);
      if (j >= i) ++j;
      const double ej = f(j) - data.y[j];

      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo, hi;
      if (data.y[i] != data.y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
      if (eta >= 0.0) continue;

      double aj = aj_old - data.y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-5) continue;

      const double ai = ai_old + data.y[i] * data.y[j] * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;

      const double b1 = b - ei - data.y[i] * (ai - ai_old) * k[i][i] -
                        data.y[j] * (aj - aj_old) * k[i][j];
      const double b2 = b - ej - data.y[i] * (ai - ai_old) * k[i][j] -
                        data.y[j] * (aj - aj_old) * k[j][j];
      if (ai > 0.0 && ai < c) {
        b = b1;
      } else if (aj > 0.0 && aj < c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  SvmModel model;
  model.kernel_ = config.kernel;
  model.bias_ = b;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-8) {
      model.support_.push_back(data.x[i]);
      model.coeff_.push_back(alpha[i] * data.y[i]);
    }
  }
  return model;
}

double SvmModel::decision(std::span<const double> v) const {
  double s = bias_;
  for (std::size_t i = 0; i < support_.size(); ++i) {
    s += coeff_[i] * kernel_eval(kernel_, support_[i], v);
  }
  return s;
}

double SvmModel::accuracy(const Dataset& data) const {
  if (data.size() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += predict(data.x[i]) == data.y[i];
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double cross_validate(const Dataset& data, const SvmConfig& config, int folds,
                      std::uint64_t seed) {
  const std::size_t n = data.size();
  if (n < static_cast<std::size_t>(folds) || folds < 2) return 0.0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }

  double acc_sum = 0.0;
  for (int fold = 0; fold < folds; ++fold) {
    Dataset train, test;
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::size_t i = order[idx];
      if (static_cast<int>(idx % static_cast<std::size_t>(folds)) == fold) {
        test.add(data.x[i], data.y[i]);
      } else {
        train.add(data.x[i], data.y[i]);
      }
    }
    if (train.size() == 0 || test.size() == 0) continue;
    const SvmModel model = SvmModel::train(train, config);
    acc_sum += model.accuracy(test);
  }
  return acc_sum / folds;
}

GridSearchResult grid_search(const Dataset& data, KernelType kernel, int folds,
                             std::uint64_t seed) {
  GridSearchResult result;
  const std::size_t dim = data.size() ? data.x.front().size() : 1;
  const double gamma_scale = 1.0 / static_cast<double>(dim);

  const double c_grid[] = {0.1, 1.0, 10.0, 100.0};
  const double gamma_grid[] = {0.1 * gamma_scale, gamma_scale,
                               10.0 * gamma_scale};

  for (double c : c_grid) {
    if (kernel == KernelType::kLinear) {
      SvmConfig cfg;
      cfg.c = c;
      cfg.kernel = {KernelType::kLinear, 0.0};
      const double acc = cross_validate(data, cfg, folds, seed);
      if (acc > result.best_cv_accuracy) {
        result.best_cv_accuracy = acc;
        result.best = cfg;
      }
    } else {
      for (double gamma : gamma_grid) {
        SvmConfig cfg;
        cfg.c = c;
        cfg.kernel = {KernelType::kRbf, gamma};
        const double acc = cross_validate(data, cfg, folds, seed);
        if (acc > result.best_cv_accuracy) {
          result.best_cv_accuracy = acc;
          result.best = cfg;
        }
      }
    }
  }
  return result;
}

}  // namespace stash::svm
