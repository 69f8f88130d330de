// Kernels shared by the SVM classifier and the SVR regressor.
#pragma once

#include <span>

namespace poiprivacy::ml {

enum class KernelKind {
  kLinear,
  kRbf,
};

struct KernelParams {
  KernelKind kind = KernelKind::kRbf;
  /// RBF width. <= 0 means "scale": 1 / (n_features * feature_variance),
  /// matching scikit-learn's gamma='scale' on standardized inputs (~1/d).
  double gamma = -1.0;

  bool operator==(const KernelParams&) const = default;
};

/// Resolves gamma='scale' for the given feature dimension.
double effective_gamma(const KernelParams& params, std::size_t num_features);

/// k(a, b) for standardized rows a, b.
double kernel_value(const KernelParams& params, double gamma,
                    std::span<const double> a, std::span<const double> b);

}  // namespace poiprivacy::ml
