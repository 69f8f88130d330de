#include "ml/svr.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/gram.h"

namespace poiprivacy::ml {

namespace {

double soft_threshold(double z, double t) noexcept {
  if (z > t) return z - t;
  if (z < -t) return z + t;
  return 0.0;
}

}  // namespace

void Svr::train(const Matrix& x, std::span<const double> targets,
                common::Rng& rng) {
  const std::size_t n = x.rows();
  assert(targets.size() == n);
  gamma_ = effective_gamma(config_.kernel, x.cols());
  if (n == 0) {
    sv_ = Matrix(0, 0);
    sv_coef_.clear();
    return;
  }
  const GramMatrix gram(x, config_.kernel);
  const std::vector<double>& k = gram.values();

  std::vector<double> beta(n, 0.0);
  std::vector<double> f(n, 0.0);  // f_i = sum_j beta_j k'(x_j, x_i)
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double max_step = 0.0;
    for (const std::size_t i : order) {
      const double kii = k[i * n + i];
      // Partial residual without beta_i's own contribution.
      const double g = f[i] - beta[i] * kii - targets[i];
      const double next = std::clamp(soft_threshold(-g, config_.epsilon) / kii,
                                     -config_.c, config_.c);
      const double delta = next - beta[i];
      if (delta == 0.0) continue;
      max_step = std::max(max_step, std::abs(delta));
      beta[i] = next;
      const double* row = &k[i * n];
      for (std::size_t j = 0; j < n; ++j) f[j] += delta * row[j];
    }
    if (max_step < config_.tolerance) break;
  }

  sv_ = Matrix(0, 0);
  sv_coef_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(beta[i]) > 1e-12) {
      sv_.push_row(x.row(i));
      sv_coef_.push_back(beta[i]);
    }
  }
}

double Svr::predict(std::span<const double> row) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < sv_.rows(); ++i) {
    acc += sv_coef_[i] *
           (kernel_value(config_.kernel, gamma_, sv_.row(i), row) + 1.0);
  }
  return acc;
}

std::vector<double> Svr::predict(const Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
  return out;
}

}  // namespace poiprivacy::ml
