// Learning-based recovery of sanitized POI type frequencies
// (Section III-A, "Prediction against sanitization").
//
// The defender zeroes the entries of citywide-infrequent types. The
// attacker — who knows the POI database and which types are sanitized —
// trains one SVM classifier per sanitized type that predicts the hidden
// frequency from the visible (non-sanitized) entries, then rebuilds an
// approximate full vector and runs the baseline attack on it.
//
// Training data is what the paper uses: Freq vectors of random locations
// in the city, standardized. Because a rare type is absent from most
// random disks, we optionally enrich the sample with disks centred near
// the rare POIs themselves; the adversary can do this for free since the
// POI database is public. (DESIGN.md discusses this as the substitution
// for the paper's 10,000-sample training runs.)
//
// All models train on one shared Gram matrix of the standardized training
// rows, and recover() scores every model from one kernel row.
#pragma once

#include <span>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/gram.h"
#include "ml/svm.h"
#include "poi/database.h"

namespace poiprivacy::attack {

struct RecoveryConfig {
  std::size_t train_samples = 400;       ///< random-location samples
  std::size_t validation_samples = 150;  ///< held-out random locations
  /// Extra training disks centred near each rare POI (0 disables).
  std::size_t samples_per_rare_poi = 2;
  ml::SvmConfig svm{};  ///< default: RBF kernel, C = 1
};

class SanitizationRecovery {
 public:
  /// Trains one model per sanitized type for query radius `r`.
  SanitizationRecovery(const poi::PoiDatabase& db,
                       std::span<const poi::TypeId> sanitized_types, double r,
                       const RecoveryConfig& config, common::Rng& rng);

  /// Per-type validation accuracies, aligned with sanitized_types().
  const std::vector<double>& validation_accuracies() const noexcept {
    return accuracies_;
  }
  double mean_validation_accuracy() const;

  /// Fills the sanitized entries of a sanitized release with predictions.
  poi::FrequencyVector recover(const poi::FrequencyVector& sanitized) const;

  const std::vector<poi::TypeId>& sanitized_types() const noexcept {
    return sanitized_;
  }
  /// Trained models, aligned with sanitized_types().
  const std::vector<ml::SvmClassifier>& models() const noexcept {
    return models_;
  }

 private:
  std::vector<double> features_of(const poi::FrequencyVector& f) const;

  const poi::PoiDatabase* db_;
  std::vector<poi::TypeId> sanitized_;
  std::vector<bool> is_sanitized_;
  std::vector<poi::TypeId> visible_types_;
  ml::StandardScaler scaler_;
  ml::KernelBasis basis_;  ///< the standardized training rows
  std::vector<ml::SvmClassifier> models_;  ///< one per sanitized type
  std::vector<double> accuracies_;
};

}  // namespace poiprivacy::attack
