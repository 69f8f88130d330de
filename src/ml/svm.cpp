#include "ml/svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::ml {

// The `f += scaled * row` update below is training's hot loop; GCC 12
// vectorizes it into a body just over 32 bytes. Aligned only to 32, it
// straddles a 64-byte line or not depending on how much code precedes it
// in the link, which swung recovery-training time by ~20% across edits
// to unrelated modules. Cache-line-aligned loops keep it inside one line
// whatever the layout.
[[gnu::optimize("align-loops=64")]]
void BinarySvm::train(const GramMatrix& gram, std::span<const int> labels,
                      const SvmConfig& config, common::Rng& rng) {
  if (config.kernel != gram.basis().params()) {
    throw std::invalid_argument("svm: Gram matrix built for another kernel");
  }
  const std::size_t n = gram.size();
  assert(labels.size() == n);
  basis_ = gram.basis();
  const std::vector<double>& k = gram.values();

  std::vector<double> alpha(n, 0.0);
  std::vector<double> f(n, 0.0);  // f_i = sum_j alpha_j y_j k'(x_j, x_i)
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    rng.shuffle(order);
    double max_violation = 0.0;
    for (const std::size_t i : order) {
      const double y = labels[i];
      const double grad = y * f[i] - 1.0;  // dD/dalpha_i
      // Projected-gradient KKT violation.
      double violation = 0.0;
      if (alpha[i] <= 0.0) {
        violation = std::max(0.0, -grad);
      } else if (alpha[i] >= config.c) {
        violation = std::max(0.0, grad);
      } else {
        violation = std::abs(grad);
      }
      max_violation = std::max(max_violation, violation);
      if (violation < config.tolerance) continue;
      const double kii = k[i * n + i];
      const double next =
          std::clamp(alpha[i] - grad / kii, 0.0, config.c);
      const double delta = next - alpha[i];
      if (delta == 0.0) continue;
      alpha[i] = next;
      const double* row = &k[i * n];
      const double scaled = delta * y;
      for (std::size_t j = 0; j < n; ++j) f[j] += scaled * row[j];
    }
    if (max_violation < config.tolerance) break;
  }

  sv_index_.clear();
  sv_coef_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-12) {
      sv_index_.push_back(i);
      sv_coef_.push_back(alpha[i] * labels[i]);
    }
  }
}

void BinarySvm::train(const Matrix& x, std::span<const int> labels,
                      const SvmConfig& config, common::Rng& rng) {
  train(GramMatrix(x, config.kernel), labels, config, rng);
}

double BinarySvm::decision(std::span<const double> row) const {
  std::vector<double> k_row(basis_.size());
  basis_.kernel_row(row, k_row);
  return decision_from_kernel(k_row);
}

double BinarySvm::decision_from_kernel(std::span<const double> k_row) const {
  assert(k_row.size() == basis_.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < sv_index_.size(); ++s) {
    acc += sv_coef_[s] * k_row[sv_index_[s]];
  }
  return acc;
}

void SvmClassifier::train(const GramMatrix& gram, std::span<const int> labels,
                          common::Rng& rng) {
  basis_ = gram.basis();
  classes_.assign(labels.begin(), labels.end());
  std::sort(classes_.begin(), classes_.end());
  classes_.erase(std::unique(classes_.begin(), classes_.end()),
                 classes_.end());
  machines_.clear();
  if (classes_.size() < 2) return;  // constant classifier

  // Two classes need a single machine; more use one-vs-rest.
  const std::size_t num_machines =
      classes_.size() == 2 ? 1 : classes_.size();
  std::vector<int> binary(labels.size());
  for (std::size_t m = 0; m < num_machines; ++m) {
    const int positive = classes_[m];
    for (std::size_t i = 0; i < labels.size(); ++i) {
      binary[i] = labels[i] == positive ? 1 : -1;
    }
    BinarySvm machine;
    machine.train(gram, binary, config_, rng);
    machines_.push_back(std::move(machine));
  }
}

void SvmClassifier::train(const Matrix& x, std::span<const int> labels,
                          common::Rng& rng) {
  train(GramMatrix(x, config_.kernel), labels, rng);
}

int SvmClassifier::predict(std::span<const double> row) const {
  std::vector<double> k_row;
  if (!machines_.empty()) {  // a constant classifier needs no kernel row
    k_row.resize(basis_.size());
    basis_.kernel_row(row, k_row);
  }
  return predict_from_kernel(k_row);
}

int SvmClassifier::predict_from_kernel(std::span<const double> k_row) const {
  if (classes_.empty()) return 0;
  if (classes_.size() == 1) return classes_[0];
  if (classes_.size() == 2) {
    return machines_[0].decision_from_kernel(k_row) >= 0.0 ? classes_[0]
                                                           : classes_[1];
  }
  std::size_t best = 0;
  double best_score = machines_[0].decision_from_kernel(k_row);
  for (std::size_t m = 1; m < machines_.size(); ++m) {
    const double score = machines_[m].decision_from_kernel(k_row);
    if (score > best_score) {
      best_score = score;
      best = m;
    }
  }
  return classes_[best];
}

std::vector<int> SvmClassifier::predict(const Matrix& x) const {
  std::vector<int> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
  return out;
}

}  // namespace poiprivacy::ml
