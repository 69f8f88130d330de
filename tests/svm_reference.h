// Frozen reference port of the per-machine SVM: every machine builds its
// own Gram matrix, copies its support-vector rows out of the training set
// and evaluates the kernel once per support vector at decision time. The
// shared-Gram, kernel-row implementation in src/ml/svm.cpp must reproduce
// it bit for bit; tests/ml_test.cpp and tests/attack_test.cpp compare the
// two. Do not "fix" or modernize this file: its value is that it does not
// change.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/kernel.h"
#include "ml/svm.h"

namespace poiprivacy::ml::reference {

class BinarySvm {
 public:
  void train(const Matrix& x, std::span<const int> labels,
             const SvmConfig& config, common::Rng& rng) {
    const std::size_t n = x.rows();
    kernel_ = config.kernel;
    gamma_ = effective_gamma(config.kernel, x.cols());
    std::vector<double> k(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double v =
            kernel_value(kernel_, gamma_, x.row(i), x.row(j)) + 1.0;
        k[i * n + j] = v;
        k[j * n + i] = v;
      }
    }

    std::vector<double> alpha(n, 0.0);
    std::vector<double> f(n, 0.0);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;

    for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
      rng.shuffle(order);
      double max_violation = 0.0;
      for (const std::size_t i : order) {
        const double y = labels[i];
        const double grad = y * f[i] - 1.0;
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
        const double next = std::clamp(alpha[i] - grad / kii, 0.0, config.c);
        const double delta = next - alpha[i];
        if (delta == 0.0) continue;
        alpha[i] = next;
        const double* row = &k[i * n];
        const double scaled = delta * y;
        for (std::size_t j = 0; j < n; ++j) f[j] += scaled * row[j];
      }
      if (max_violation < config.tolerance) break;
    }

    sv_ = Matrix(0, 0);
    sv_coef_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (alpha[i] > 1e-12) {
        sv_.push_row(x.row(i));
        sv_coef_.push_back(alpha[i] * labels[i]);
      }
    }
  }

  double decision(std::span<const double> row) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < sv_.rows(); ++i) {
      acc += sv_coef_[i] *
             (kernel_value(kernel_, gamma_, sv_.row(i), row) + 1.0);
    }
    return acc;
  }

  std::size_t num_support_vectors() const { return sv_.rows(); }

 private:
  Matrix sv_;
  std::vector<double> sv_coef_;
  KernelParams kernel_;
  double gamma_ = 1.0;
};

class SvmClassifier {
 public:
  explicit SvmClassifier(SvmConfig config = {}) : config_(config) {}

  void train(const Matrix& x, std::span<const int> labels, common::Rng& rng) {
    classes_.assign(labels.begin(), labels.end());
    std::sort(classes_.begin(), classes_.end());
    classes_.erase(std::unique(classes_.begin(), classes_.end()),
                   classes_.end());
    machines_.clear();
    if (classes_.size() < 2) return;
    const std::size_t num_machines =
        classes_.size() == 2 ? 1 : classes_.size();
    std::vector<int> binary(labels.size());
    for (std::size_t m = 0; m < num_machines; ++m) {
      const int positive = classes_[m];
      for (std::size_t i = 0; i < labels.size(); ++i) {
        binary[i] = labels[i] == positive ? 1 : -1;
      }
      BinarySvm machine;
      machine.train(x, binary, config_, rng);
      machines_.push_back(std::move(machine));
    }
  }

  int predict(std::span<const double> row) const {
    if (classes_.empty()) return 0;
    if (classes_.size() == 1) return classes_[0];
    if (classes_.size() == 2) {
      return machines_[0].decision(row) >= 0.0 ? classes_[0] : classes_[1];
    }
    std::size_t best = 0;
    double best_score = machines_[0].decision(row);
    for (std::size_t m = 1; m < machines_.size(); ++m) {
      const double score = machines_[m].decision(row);
      if (score > best_score) {
        best_score = score;
        best = m;
      }
    }
    return classes_[best];
  }

  const std::vector<BinarySvm>& machines() const { return machines_; }

 private:
  SvmConfig config_;
  std::vector<int> classes_;
  std::vector<BinarySvm> machines_;
};

}  // namespace poiprivacy::ml::reference
