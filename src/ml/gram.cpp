#include "ml/gram.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace poiprivacy::ml {

KernelBasis::KernelBasis(std::shared_ptr<const Matrix> x,
                         const KernelParams& params)
    : x_(std::move(x)),
      params_(params),
      gamma_(effective_gamma(params, x_->cols())) {}

void KernelBasis::kernel_row(std::span<const double> row,
                             std::span<double> out) const {
  assert(out.size() == size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = kernel_value(params_, gamma_, x_->row(i), row) + 1.0;
  }
}

GramMatrix::GramMatrix(std::shared_ptr<const Matrix> x,
                       const KernelParams& params) {
  const Matrix& rows = *x;  // kept alive by basis_
  const std::size_t n = rows.rows();
  if (n > kMaxSamples) {
    throw std::invalid_argument(
        "gram matrix: training set too large for the Gram cache");
  }
  basis_ = KernelBasis(std::move(x), params);
  const double gamma = basis_.gamma();
  values_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v =
          kernel_value(params, gamma, rows.row(i), rows.row(j)) + 1.0;
      values_[i * n + j] = v;
      values_[j * n + i] = v;
    }
  }
}

GramMatrix::GramMatrix(const Matrix& x, const KernelParams& params)
    : GramMatrix(std::make_shared<const Matrix>(x), params) {}

}  // namespace poiprivacy::ml
