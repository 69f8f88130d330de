#include "attack/recovery.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "ml/gram.h"
#include "obs/metrics.h"

namespace poiprivacy::attack {

namespace {

// Wall time of whole recovery-model trainings and of single recover()
// calls, named like the other obs histograms (`<layer>.<what>_seconds`).
struct RecoveryMetrics {
  obs::Histogram& train_seconds;
  obs::Histogram& predict_seconds;

  static RecoveryMetrics& get() {
    static RecoveryMetrics* metrics = new RecoveryMetrics{
        obs::global_registry().histogram("attack.recovery.train_seconds"),
        obs::global_registry().histogram("attack.recovery.predict_seconds"),
    };
    return *metrics;
  }
};

geo::Point random_location(const geo::BBox& b, common::Rng& rng) {
  return {rng.uniform(b.min_x, b.max_x), rng.uniform(b.min_y, b.max_y)};
}

}  // namespace

SanitizationRecovery::SanitizationRecovery(
    const poi::PoiDatabase& db, std::span<const poi::TypeId> sanitized_types,
    double r, const RecoveryConfig& config, common::Rng& rng)
    : db_(&db), sanitized_(sanitized_types.begin(), sanitized_types.end()) {
  const obs::Span span(RecoveryMetrics::get().train_seconds);
  is_sanitized_.assign(db.num_types(), false);
  for (const poi::TypeId t : sanitized_) is_sanitized_[t] = true;
  for (poi::TypeId t = 0; t < db.num_types(); ++t) {
    if (!is_sanitized_[t]) visible_types_.push_back(t);
  }

  // Assemble the shared training/validation corpora of full Freq vectors.
  std::vector<poi::FrequencyVector> train_vecs;
  train_vecs.reserve(config.train_samples);
  const geo::BBox& bounds = db.bounds();
  for (std::size_t i = 0; i < config.train_samples; ++i) {
    train_vecs.push_back(db.freq(random_location(bounds, rng), r));
  }
  if (config.samples_per_rare_poi > 0) {
    for (const poi::TypeId t : sanitized_) {
      for (const poi::PoiId id : db.pois_of_type(t)) {
        for (std::size_t s = 0; s < config.samples_per_rare_poi; ++s) {
          const geo::Point jittered = bounds.clamp(
              {db.poi(id).pos.x + rng.normal(0.0, r / 2.0),
               db.poi(id).pos.y + rng.normal(0.0, r / 2.0)});
          train_vecs.push_back(db.freq(jittered, r));
        }
      }
    }
  }
  std::vector<poi::FrequencyVector> valid_vecs;
  valid_vecs.reserve(config.validation_samples);
  for (std::size_t i = 0; i < config.validation_samples; ++i) {
    valid_vecs.push_back(db.freq(random_location(bounds, rng), r));
  }

  ml::Matrix x_train(train_vecs.size(), visible_types_.size());
  for (std::size_t i = 0; i < train_vecs.size(); ++i) {
    auto row = x_train.row(i);
    for (std::size_t j = 0; j < visible_types_.size(); ++j) {
      row[j] = train_vecs[i][visible_types_[j]];
    }
  }
  auto x_train_std =
      std::make_shared<const ml::Matrix>(scaler_.fit_transform(x_train));

  ml::Matrix x_valid(valid_vecs.size(), visible_types_.size());
  for (std::size_t i = 0; i < valid_vecs.size(); ++i) {
    auto row = x_valid.row(i);
    for (std::size_t j = 0; j < visible_types_.size(); ++j) {
      row[j] = valid_vecs[i][visible_types_[j]];
    }
  }
  const ml::Matrix x_valid_std = scaler_.transform(x_valid);

  // Every type and every one-vs-rest machine trains on the one Gram
  // matrix, which is dropped once training is done.
  models_.reserve(sanitized_.size());
  {
    const ml::GramMatrix gram(std::move(x_train_std), config.svm.kernel);
    basis_ = gram.basis();
    std::vector<int> labels(train_vecs.size());
    for (const poi::TypeId t : sanitized_) {
      for (std::size_t i = 0; i < train_vecs.size(); ++i) {
        labels[i] = train_vecs[i][t];
      }
      ml::SvmClassifier model(config.svm);
      model.train(gram, labels, rng);
      models_.push_back(std::move(model));
    }
  }

  // Validation scoring: one kernel row per validation disk serves every
  // type's model.
  std::vector<std::vector<int>> predicted(
      sanitized_.size(), std::vector<int>(valid_vecs.size()));
  std::vector<double> k_row(basis_.size());
  for (std::size_t i = 0; i < valid_vecs.size(); ++i) {
    basis_.kernel_row(x_valid_std.row(i), k_row);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      predicted[m][i] = models_[m].predict_from_kernel(k_row);
    }
  }
  accuracies_.reserve(sanitized_.size());
  std::vector<int> valid_labels(valid_vecs.size());
  for (std::size_t m = 0; m < sanitized_.size(); ++m) {
    for (std::size_t i = 0; i < valid_vecs.size(); ++i) {
      valid_labels[i] = valid_vecs[i][sanitized_[m]];
    }
    accuracies_.push_back(ml::accuracy(valid_labels, predicted[m]));
  }
}

double SanitizationRecovery::mean_validation_accuracy() const {
  if (accuracies_.empty()) return 0.0;
  double acc = 0.0;
  for (const double a : accuracies_) acc += a;
  return acc / static_cast<double>(accuracies_.size());
}

std::vector<double> SanitizationRecovery::features_of(
    const poi::FrequencyVector& f) const {
  std::vector<double> row;
  row.reserve(visible_types_.size());
  for (const poi::TypeId t : visible_types_) {
    row.push_back(f[t]);
  }
  scaler_.transform_row(row);
  return row;
}

poi::FrequencyVector SanitizationRecovery::recover(
    const poi::FrequencyVector& sanitized) const {
  assert(sanitized.size() == db_->num_types());
  const obs::Span span(RecoveryMetrics::get().predict_seconds);
  std::vector<double> k_row(basis_.size());
  basis_.kernel_row(features_of(sanitized), k_row);
  poi::FrequencyVector out = sanitized;
  for (std::size_t m = 0; m < sanitized_.size(); ++m) {
    out[sanitized_[m]] = std::max(0, models_[m].predict_from_kernel(k_row));
  }
  return out;
}

}  // namespace poiprivacy::attack
