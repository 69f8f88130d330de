// Kernel support vector machine classifier.
//
// Training solves the L1-loss SVM dual with the bias absorbed into the
// kernel (k'(a,b) = k(a,b) + 1) by coordinate descent — the standard
// dual-coordinate-descent scheme of Hsieh et al. extended to kernels via a
// precomputed Gram matrix (ml/gram.h), which one training set builds once
// and every machine trained on it shares. Multi-class problems use
// one-vs-rest, matching scikit-learn's default for the paper's recovery
// models.
//
// A trained machine stores its support vectors as training-row indices
// plus coefficients; the rows are shared through the Gram matrix's
// KernelBasis. Every decision is an indexed dot product with one kernel
// row k'(x_i, row) over the training rows, so one kernel row serves every
// machine trained on the same Gram matrix.
#pragma once

#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/gram.h"
#include "ml/kernel.h"

namespace poiprivacy::ml {

struct SvmConfig {
  KernelParams kernel;
  double c = 1.0;            ///< box constraint
  int max_epochs = 60;       ///< full passes over the training set
  double tolerance = 1e-3;   ///< stop when the largest KKT violation is below
};

/// Two-class machine over labels {-1, +1}.
class BinarySvm {
 public:
  /// Trains on the Gram matrix of standardized rows. `labels[i]` must be
  /// -1 or +1, and config.kernel must be the kernel the Gram matrix was
  /// built with (std::invalid_argument otherwise).
  void train(const GramMatrix& gram, std::span<const int> labels,
             const SvmConfig& config, common::Rng& rng);
  /// Same, building the Gram matrix of x under config.kernel.
  void train(const Matrix& x, std::span<const int> labels,
             const SvmConfig& config, common::Rng& rng);

  /// Decision value (positive => class +1).
  double decision(std::span<const double> row) const;
  /// Decision value from k_row[i] = k(x_i, row) + 1 over every training
  /// row of the Gram matrix this machine was trained on.
  double decision_from_kernel(std::span<const double> k_row) const;

  std::size_t num_support_vectors() const noexcept {
    return sv_index_.size();
  }

 private:
  KernelBasis basis_;
  std::vector<std::size_t> sv_index_;  ///< training rows with alpha_i > 0
  std::vector<double> sv_coef_;        ///< alpha_i * y_i per support vector
};

/// One-vs-rest multi-class SVM over arbitrary integer labels.
class SvmClassifier {
 public:
  explicit SvmClassifier(SvmConfig config = {}) : config_(config) {}

  /// Trains on the Gram matrix of standardized rows and integer labels.
  void train(const GramMatrix& gram, std::span<const int> labels,
             common::Rng& rng);
  /// Same, building the Gram matrix of x.
  void train(const Matrix& x, std::span<const int> labels, common::Rng& rng);

  int predict(std::span<const double> row) const;
  std::vector<int> predict(const Matrix& x) const;
  /// Prediction from k_row[i] = k(x_i, row) + 1 over every training row.
  int predict_from_kernel(std::span<const double> k_row) const;

  const std::vector<int>& classes() const noexcept { return classes_; }
  /// Trained machines: one per class, one for two classes, none for one.
  const std::vector<BinarySvm>& machines() const noexcept { return machines_; }

 private:
  SvmConfig config_;
  KernelBasis basis_;
  std::vector<int> classes_;
  std::vector<BinarySvm> machines_;  ///< empty if single-class
};

}  // namespace poiprivacy::ml
