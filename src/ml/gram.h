// Precomputed kernel matrices over one standardized training set.
//
// Every kernel machine in this library folds its bias into the kernel
// (k'(a, b) = k(a, b) + 1) and trains on the Gram matrix of k' over its
// training rows. When many machines share one training matrix — the
// sanitization-recovery attack trains one classifier per sanitized type,
// each with one machine per class, all on the same rows — the Gram matrix
// is built once and handed to every trainer.
//
// The trained machines keep only training-row indices and coefficients.
// The rows themselves live once, in a KernelBasis shared (by
// std::shared_ptr, never copied) with every machine fitted on the same
// GramMatrix. Prediction computes one kernel row k'(x_i, row) over all
// training rows and lets each machine take an indexed dot product with it.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"

namespace poiprivacy::ml {

/// Training rows plus the kernel they are compared under.
class KernelBasis {
 public:
  KernelBasis() = default;
  KernelBasis(std::shared_ptr<const Matrix> x, const KernelParams& params);

  /// Number of training rows (0 for a default-constructed basis).
  std::size_t size() const noexcept { return x_ ? x_->rows() : 0; }

  const KernelParams& params() const noexcept { return params_; }
  double gamma() const noexcept { return gamma_; }

  /// out[i] = k(x_i, row) + 1 for every training row i; `out` must hold
  /// size() entries.
  void kernel_row(std::span<const double> row, std::span<double> out) const;

 private:
  std::shared_ptr<const Matrix> x_;
  KernelParams params_;
  double gamma_ = 1.0;
};

/// k(x_i, x_j) + 1 over every pair of training rows, row-major.
class GramMatrix {
 public:
  /// Largest training set a Gram matrix is built for (n^2 doubles).
  static constexpr std::size_t kMaxSamples = 8000;

  /// Throws std::invalid_argument when x has more than kMaxSamples rows.
  GramMatrix(std::shared_ptr<const Matrix> x, const KernelParams& params);
  /// Same, over a copy of x.
  GramMatrix(const Matrix& x, const KernelParams& params);

  std::size_t size() const noexcept { return basis_.size(); }
  /// Row-major n x n entries.
  const std::vector<double>& values() const noexcept { return values_; }
  const KernelBasis& basis() const noexcept { return basis_; }

  void kernel_row(std::span<const double> row, std::span<double> out) const {
    basis_.kernel_row(row, out);
  }

 private:
  KernelBasis basis_;
  std::vector<double> values_;
};

}  // namespace poiprivacy::ml
