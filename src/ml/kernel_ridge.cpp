#include "ml/kernel_ridge.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::ml {

namespace {

/// In-place Cholesky solve of (A) x = b for symmetric positive-definite A
/// stored row-major. A is destroyed.
std::vector<double> cholesky_solve(std::vector<double>& a, std::size_t n,
                                   std::span<const double> b) {
  // Decompose A = L L^T.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= a[j * n + k] * a[j * n + k];
    if (diag <= 0.0) {
      throw std::runtime_error("kernel ridge: Gram matrix not PD");
    }
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = v / ljj;
    }
  }
  // Forward substitution L z = b.
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a[i * n + k] * z[k];
    z[i] = v / a[i * n + i];
  }
  // Back substitution L^T x = z.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= a[k * n + ii] * x[k];
    x[ii] = v / a[ii * n + ii];
  }
  return x;
}

}  // namespace

void KernelRidge::train(const Matrix& x, std::span<const double> targets) {
  const std::size_t n = x.rows();
  assert(targets.size() == n);
  if (config_.lambda <= 0.0) {
    throw std::invalid_argument("kernel ridge: lambda must be > 0");
  }
  const GramMatrix gram(x, config_.kernel);
  basis_ = gram.basis();
  std::vector<double> a = gram.values();
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += config_.lambda;
  alpha_ = cholesky_solve(a, n, targets);
}

double KernelRidge::predict(std::span<const double> row) const {
  std::vector<double> k_row(basis_.size());
  basis_.kernel_row(row, k_row);
  double acc = 0.0;
  for (std::size_t i = 0; i < k_row.size(); ++i) acc += alpha_[i] * k_row[i];
  return acc;
}

std::vector<double> KernelRidge::predict(const Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
  return out;
}

}  // namespace poiprivacy::ml
