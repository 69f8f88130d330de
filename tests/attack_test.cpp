#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "attack/fine_grained.h"
#include "attack/recovery.h"
#include "attack/region_reid.h"
#include "attack/trajectory_attack.h"
#include "common/rng.h"
#include "defense/sanitizer.h"
#include "poi/city_model.h"
#include "svm_reference.h"
#include "traj/generators.h"

namespace poiprivacy::attack {
namespace {

poi::City make_city(std::uint64_t seed = 7) {
  return poi::generate_city(poi::test_preset(), seed);
}

TEST(RegionReid, EmptyVectorHasNoPivot) {
  const poi::City city = make_city();
  const RegionReidentifier reid(city.db);
  const poi::FrequencyVector empty(city.db.num_types(), 0);
  const ReidResult result = reid.infer(empty, 1.0);
  EXPECT_FALSE(result.pivot_type.has_value());
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_FALSE(result.unique());
}

TEST(RegionReid, PivotIsCitywideRarestPresentType) {
  const poi::City city = make_city();
  const RegionReidentifier reid(city.db);
  common::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const poi::FrequencyVector f = city.db.freq(l, 1.0);
    const auto pivot = reid.pivot_type(f);
    if (!pivot) continue;
    EXPECT_GT(f[*pivot], 0);
    for (poi::TypeId t = 0; t < f.size(); ++t) {
      if (f[t] > 0) {
        EXPECT_LE(city.db.city_freq()[*pivot], city.db.city_freq()[t]);
      }
    }
  }
}

// The attack's defining no-false-negative property: the true anchor (some
// pivot-type POI within r of l) always survives pruning, so the candidate
// set is never empty on an honest release.
TEST(RegionReid, NoFalseNegativesOnHonestReleases) {
  const poi::City city = make_city();
  const RegionReidentifier reid(city.db);
  common::Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.3, 1.5);
    const poi::FrequencyVector f = city.db.freq(l, r);
    const ReidResult result = reid.infer(f, r);
    if (!result.pivot_type) continue;  // nothing within range
    EXPECT_FALSE(result.candidates.empty());
    // At least one candidate is a true anchor (within r of l).
    const bool has_true_anchor = std::any_of(
        result.candidates.begin(), result.candidates.end(),
        [&](poi::PoiId id) {
          return geo::distance(city.db.poi(id).pos, l) <= r + 1e-9;
        });
    EXPECT_TRUE(has_true_anchor) << "trial " << trial;
  }
}

TEST(RegionReid, UniqueResultIsAlwaysCorrectOnHonestReleases) {
  const poi::City city = make_city();
  const RegionReidentifier reid(city.db);
  common::Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const ReidResult result = reid.infer(city.db.freq(l, r), r);
    if (result.unique()) {
      EXPECT_TRUE(attack_success(result, city.db, l, r));
    }
  }
}

TEST(RegionReid, PlantedUniquePoiIsAlwaysFound) {
  // Build a tiny hand-crafted city with one singleton type: any query disk
  // containing it must re-identify uniquely.
  poi::PoiTypeRegistry registry;
  const poi::TypeId common_t = registry.intern("common");
  const poi::TypeId rare_t = registry.intern("rare");
  std::vector<poi::Poi> pois;
  common::Rng rng(11);
  for (poi::PoiId i = 0; i < 50; ++i) {
    pois.push_back({i, common_t,
                    {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
  }
  pois.push_back({50, rare_t, {5.0, 5.0}});
  const poi::PoiDatabase db("planted", std::move(pois), std::move(registry),
                            {0.0, 0.0, 10.0, 10.0});
  const RegionReidentifier reid(db);
  const geo::Point user{5.3, 4.8};
  const double r = 1.0;
  const ReidResult result = reid.infer(db.freq(user, r), r);
  ASSERT_TRUE(result.unique());
  EXPECT_EQ(result.candidates.front(), 50u);
  EXPECT_TRUE(attack_success(result, db, user, r));
}

TEST(RegionReid, TwoCoLocatedRarePoisAreAmbiguous) {
  poi::PoiTypeRegistry registry;
  const poi::TypeId common_t = registry.intern("common");
  const poi::TypeId rare_t = registry.intern("rare");
  std::vector<poi::Poi> pois;
  common::Rng rng(13);
  for (poi::PoiId i = 0; i < 50; ++i) {
    pois.push_back({i, common_t,
                    {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
  }
  pois.push_back({50, rare_t, {5.0, 5.0}});
  pois.push_back({51, rare_t, {5.2, 5.0}});  // both within r of the user
  const poi::PoiDatabase db("ambiguous", std::move(pois), std::move(registry),
                            {0.0, 0.0, 10.0, 10.0});
  const RegionReidentifier reid(db);
  const geo::Point user{5.1, 5.0};
  const ReidResult result = reid.infer(db.freq(user, 1.0), 1.0);
  EXPECT_EQ(result.candidates.size(), 2u);
  EXPECT_FALSE(result.unique());
}

TEST(FineGrained, FailsWhenBaselineFails) {
  const poi::City city = make_city();
  const FineGrainedAttack fine(city.db);
  const poi::FrequencyVector empty(city.db.num_types(), 0);
  const FineGrainedResult result = fine.infer(empty, 1.0);
  EXPECT_FALSE(result.baseline_unique);
  EXPECT_TRUE(result.feasible_disks.empty());
  EXPECT_DOUBLE_EQ(result.area_km2, 0.0);
}

TEST(FineGrained, AreaNeverExceedsBaselineDisk) {
  const poi::City city = make_city();
  const FineGrainedAttack fine(city.db);
  common::Rng rng(17);
  int successes = 0;
  for (int trial = 0; trial < 80 && successes < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const FineGrainedResult result = fine.infer(city.db.freq(l, r), r);
    if (!result.baseline_unique) continue;
    ++successes;
    EXPECT_LE(result.area_km2, M_PI * r * r * 1.05);
    EXPECT_GT(result.area_km2, 0.0);
  }
  EXPECT_GT(successes, 0);
}

TEST(FineGrained, ExactRuleAnchorsNeverExcludeTruth) {
  // With the pruned rule disabled (max_pruned_diff = 0) every auxiliary
  // anchor comes from the exact rule and is provably within r of the true
  // location, so the anchor disks must always contain it.
  const poi::City city = make_city();
  FineGrainedConfig config;
  config.max_aux = 30;
  config.max_pruned_diff = 0;
  const FineGrainedAttack fine(city.db, config);
  common::Rng rng(19);
  int successes = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const FineGrainedResult result = fine.infer(city.db.freq(l, r), r);
    if (!result.baseline_unique) continue;
    const geo::Point anchor = city.db.poi(result.major_anchor).pos;
    if (geo::distance(anchor, l) > r) continue;
    ++successes;
    EXPECT_TRUE(geo::in_all_disks(l, result.feasible_disks))
        << "trial " << trial;
    EXPECT_EQ(result.rejected_anchors, 0u);
  }
  ASSERT_GT(successes, 5);
}

TEST(FineGrained, ConsistencyFilterKeepsRegionNonEmpty) {
  // The full attack (pruned rule enabled) may harvest false anchors, but
  // the consistency filter guarantees a nonempty feasible region.
  const poi::City city = make_city();
  const FineGrainedAttack fine(city.db);
  common::Rng rng(20);
  int successes = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const FineGrainedResult result = fine.infer(city.db.freq(l, r), r);
    if (!result.baseline_unique) continue;
    ++successes;
    EXPECT_GT(result.area_km2, 0.0);
  }
  ASSERT_GT(successes, 5);
}

TEST(FineGrained, MoreAnchorsNeverEnlargeArea) {
  const poi::City city = make_city();
  common::Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const poi::FrequencyVector f = city.db.freq(l, r);
    double prev = 1e18;
    for (const std::size_t max_aux : {0u, 2u, 5u, 10u, 20u}) {
      FineGrainedConfig config;
      config.max_aux = max_aux;
      config.area_resolution = 256;
      const FineGrainedAttack fine(city.db, config);
      const FineGrainedResult result = fine.infer(f, r);
      if (!result.baseline_unique) break;
      EXPECT_LE(result.area_km2, prev * 1.05) << "max_aux " << max_aux;
      prev = result.area_km2;
    }
  }
}

TEST(FineGrained, AnchorsAreWithinTwoROfMajorAnchor) {
  const poi::City city = make_city();
  const FineGrainedAttack fine(city.db);
  common::Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const FineGrainedResult result = fine.infer(city.db.freq(l, r), r);
    if (!result.baseline_unique) continue;
    const geo::Point major = city.db.poi(result.major_anchor).pos;
    for (const poi::PoiId aux : result.aux_anchors) {
      EXPECT_LE(geo::distance(city.db.poi(aux).pos, major), 2.0 * r + 1e-9);
      EXPECT_NE(aux, result.major_anchor);
    }
    EXPECT_LE(result.aux_anchors.size(), fine.config().max_aux);
  }
}

TEST(Recovery, LearnsToPredictSanitizedFrequencies) {
  const poi::City city = make_city();
  const defense::Sanitizer sanitizer(city.db, 10);
  ASSERT_FALSE(sanitizer.sanitized_types().empty());
  common::Rng rng(31);
  RecoveryConfig config;
  config.train_samples = 250;
  config.validation_samples = 80;
  const SanitizationRecovery recovery(
      city.db, sanitizer.sanitized_types(), 0.8, config, rng);
  // Rare types are absent from most disks, so even the zero-classifier
  // gets high accuracy; a trained model must do at least that well.
  EXPECT_GT(recovery.mean_validation_accuracy(), 0.9);
  EXPECT_EQ(recovery.validation_accuracies().size(),
            sanitizer.sanitized_types().size());
}

TEST(Recovery, RecoveredVectorFillsOnlySanitizedEntries) {
  const poi::City city = make_city();
  const defense::Sanitizer sanitizer(city.db, 10);
  common::Rng rng(37);
  RecoveryConfig config;
  config.train_samples = 150;
  config.validation_samples = 40;
  const SanitizationRecovery recovery(
      city.db, sanitizer.sanitized_types(), 0.8, config, rng);
  const geo::Point l{4.0, 4.0};
  const poi::FrequencyVector truth = city.db.freq(l, 0.8);
  const poi::FrequencyVector sanitized = sanitizer.sanitize(truth);
  const poi::FrequencyVector recovered = recovery.recover(sanitized);
  ASSERT_EQ(recovered.size(), truth.size());
  for (poi::TypeId t = 0; t < truth.size(); ++t) {
    if (!sanitizer.is_sanitized(t)) {
      EXPECT_EQ(recovered[t], sanitized[t]);
    } else {
      EXPECT_GE(recovered[t], 0);
    }
  }
}

TEST(Recovery, ImprovesAttackOverSanitizedRelease) {
  const poi::City city = make_city();
  const defense::Sanitizer sanitizer(city.db, 10);
  const RegionReidentifier reid(city.db);
  common::Rng rng(41);
  RecoveryConfig config;
  config.train_samples = 300;
  config.validation_samples = 50;
  const SanitizationRecovery recovery(
      city.db, sanitizer.sanitized_types(), 0.8, config, rng);
  int sanitized_success = 0;
  int recovered_success = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const poi::FrequencyVector sanitized =
        sanitizer.sanitize(city.db.freq(l, 0.8));
    sanitized_success +=
        attack_success(reid.infer(sanitized, 0.8), city.db, l, 0.8);
    recovered_success += attack_success(
        reid.infer(recovery.recover(sanitized), 0.8), city.db, l, 0.8);
  }
  EXPECT_GE(recovered_success, sanitized_success);
}

/// Frozen port of SanitizationRecovery before the shared Gram matrix:
/// the same corpora and scaler, but one reference classifier per type
/// whose machines each build their own Gram matrix and evaluate the
/// kernel per support vector.
class ReferenceRecovery {
 public:
  ReferenceRecovery(const poi::PoiDatabase& db,
                    std::span<const poi::TypeId> sanitized, double r,
                    const RecoveryConfig& config, common::Rng& rng)
      : sanitized_(sanitized.begin(), sanitized.end()) {
    std::vector<bool> is_sanitized(db.num_types(), false);
    for (const poi::TypeId t : sanitized_) is_sanitized[t] = true;
    for (poi::TypeId t = 0; t < db.num_types(); ++t) {
      if (!is_sanitized[t]) visible_.push_back(t);
    }
    const geo::BBox& b = db.bounds();
    const auto random_location = [&] {
      return geo::Point{rng.uniform(b.min_x, b.max_x),
                        rng.uniform(b.min_y, b.max_y)};
    };
    std::vector<poi::FrequencyVector> train;
    for (std::size_t i = 0; i < config.train_samples; ++i) {
      train.push_back(db.freq(random_location(), r));
    }
    for (const poi::TypeId t : sanitized_) {
      for (const poi::PoiId id : db.pois_of_type(t)) {
        for (std::size_t s = 0; s < config.samples_per_rare_poi; ++s) {
          const geo::Point jittered =
              b.clamp({db.poi(id).pos.x + rng.normal(0.0, r / 2.0),
                       db.poi(id).pos.y + rng.normal(0.0, r / 2.0)});
          train.push_back(db.freq(jittered, r));
        }
      }
    }
    std::vector<poi::FrequencyVector> valid;
    for (std::size_t i = 0; i < config.validation_samples; ++i) {
      valid.push_back(db.freq(random_location(), r));
    }
    const ml::Matrix x_train = scaler_.fit_transform(visible_rows(train));
    const ml::Matrix x_valid = scaler_.transform(visible_rows(valid));
    std::vector<int> labels(train.size());
    std::vector<int> valid_labels(valid.size());
    for (const poi::TypeId t : sanitized_) {
      for (std::size_t i = 0; i < train.size(); ++i) labels[i] = train[i][t];
      ml::reference::SvmClassifier model(config.svm);
      model.train(x_train, labels, rng);
      std::vector<int> predicted;
      for (std::size_t i = 0; i < valid.size(); ++i) {
        valid_labels[i] = valid[i][t];
        predicted.push_back(model.predict(x_valid.row(i)));
      }
      accuracies_.push_back(ml::accuracy(valid_labels, predicted));
      models_.push_back(std::move(model));
    }
  }

  /// The standardized visible entries the models score.
  std::vector<double> features(const poi::FrequencyVector& f) const {
    std::vector<double> row;
    for (const poi::TypeId t : visible_) row.push_back(f[t]);
    scaler_.transform_row(row);
    return row;
  }

  poi::FrequencyVector recover(const poi::FrequencyVector& sanitized) const {
    const std::vector<double> row = features(sanitized);
    poi::FrequencyVector out = sanitized;
    for (std::size_t m = 0; m < sanitized_.size(); ++m) {
      out[sanitized_[m]] = std::max(0, models_[m].predict(row));
    }
    return out;
  }

  const std::vector<double>& accuracies() const { return accuracies_; }
  const std::vector<ml::reference::SvmClassifier>& models() const {
    return models_;
  }

 private:
  ml::Matrix visible_rows(const std::vector<poi::FrequencyVector>& vecs) const {
    ml::Matrix x(vecs.size(), visible_.size());
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (std::size_t j = 0; j < visible_.size(); ++j) {
        x.at(i, j) = vecs[i][visible_[j]];
      }
    }
    return x;
  }

  std::vector<poi::TypeId> sanitized_;
  std::vector<poi::TypeId> visible_;
  ml::StandardScaler scaler_;
  std::vector<ml::reference::SvmClassifier> models_;
  std::vector<double> accuracies_;
};

/// Sanitized releases at n seeded locations.
std::vector<poi::FrequencyVector> sanitized_releases(
    const poi::City& city, const defense::Sanitizer& sanitizer, double r,
    std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<poi::FrequencyVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    out.push_back(sanitizer.sanitize(city.db.freq(l, r)));
  }
  return out;
}

TEST(Recovery, RecoverMatchesPerSupportVectorReference) {
  const poi::City city = make_city();
  const defense::Sanitizer sanitizer(city.db, 10);
  RecoveryConfig config;
  config.train_samples = 150;
  config.validation_samples = 40;
  common::Rng rng(53);
  const SanitizationRecovery recovery(
      city.db, sanitizer.sanitized_types(), 0.8, config, rng);
  common::Rng ref_rng(53);
  const ReferenceRecovery reference(
      city.db, sanitizer.sanitized_types(), 0.8, config, ref_rng);
  // Both consumed the same random stream.
  EXPECT_EQ(rng(), ref_rng());
  EXPECT_EQ(recovery.validation_accuracies(), reference.accuracies());
  std::size_t filled = 0;
  for (const poi::FrequencyVector& sanitized :
       sanitized_releases(city, sanitizer, 0.8, 200, 59)) {
    const poi::FrequencyVector recovered = recovery.recover(sanitized);
    ASSERT_EQ(recovered, reference.recover(sanitized));
    // Every machine's decision value, bit for bit.
    const std::vector<double> row = reference.features(sanitized);
    for (std::size_t m = 0; m < recovery.models().size(); ++m) {
      const auto& machines = recovery.models()[m].machines();
      const auto& ref_machines = reference.models()[m].machines();
      ASSERT_EQ(machines.size(), ref_machines.size());
      for (std::size_t j = 0; j < machines.size(); ++j) {
        ASSERT_EQ(machines[j].decision(row), ref_machines[j].decision(row));
      }
    }
    for (const poi::TypeId t : sanitizer.sanitized_types()) {
      filled += recovered[t] > 0 ? 1 : 0;
    }
  }
  // The comparison covers models that predict non-zero counts.
  EXPECT_GT(filled, 0u);
}

TEST(Recovery, CopiedAndMovedRecoveriesRecoverIdentically) {
  const poi::City city = make_city();
  const defense::Sanitizer sanitizer(city.db, 10);
  RecoveryConfig config;
  config.train_samples = 120;
  config.validation_samples = 30;
  common::Rng rng(61);
  auto original = std::make_unique<SanitizationRecovery>(
      city.db, sanitizer.sanitized_types(), 0.8, config, rng);
  const std::vector<poi::FrequencyVector> releases =
      sanitized_releases(city, sanitizer, 0.8, 50, 67);
  std::vector<poi::FrequencyVector> expected;
  for (const auto& f : releases) expected.push_back(original->recover(f));

  const SanitizationRecovery copy = *original;
  SanitizationRecovery moved_from = *original;
  const SanitizationRecovery moved = std::move(moved_from);
  original.reset();  // the copies must not depend on the original
  for (std::size_t i = 0; i < releases.size(); ++i) {
    EXPECT_EQ(copy.recover(releases[i]), expected[i]);
    EXPECT_EQ(moved.recover(releases[i]), expected[i]);
  }
}

TEST(TrajectoryAttack, RegressorLearnsDistance) {
  const poi::City city = make_city();
  common::Rng rng(43);
  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = 40;
  taxi_config.points_per_taxi = 40;
  const auto trajectories =
      traj::generate_taxi_trajectories(city, taxi_config, rng);
  const auto pairs =
      traj::extract_release_pairs(trajectories, city.db, 0.8, 600);
  ASSERT_GT(pairs.size(), 50u);
  const TrajectoryAttackConfig config;
  const TrajectoryAttack attack(city.db, pairs, 0.8, config, rng);
  // Speeds are 20..50 km/h over <= 5 min gaps => distances up to ~4 km.
  // A useful regressor should beat a 1.5 km MAE easily.
  EXPECT_LT(attack.validation_mae_km(), 1.5);
  EXPECT_GT(attack.tolerance_km(), 0.0);
}

TEST(TrajectoryAttack, FilterNeverDropsTrueAnchor) {
  const poi::City city = make_city();
  common::Rng rng(47);
  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = 40;
  taxi_config.points_per_taxi = 40;
  const auto trajectories =
      traj::generate_taxi_trajectories(city, taxi_config, rng);
  const auto pairs =
      traj::extract_release_pairs(trajectories, city.db, 0.8, 600);
  ASSERT_GT(pairs.size(), 60u);
  // Train on the first half, attack the second half.
  const std::size_t half = pairs.size() / 2;
  const std::span<const traj::ReleasePair> history(pairs.data(), half);
  const TrajectoryAttackConfig config;
  const TrajectoryAttack attack(city.db, history, 0.8, config, rng);
  int enhanced = 0;
  int baseline = 0;
  int eligible = 0;
  int kept_count = 0;
  for (std::size_t i = half; i < pairs.size(); ++i) {
    const traj::ReleasePair& pair = pairs[i];
    const PairInferenceResult result = attack.infer(
        city.db.freq(pair.first, 0.8), city.db.freq(pair.second, 0.8),
        pair.first_time, pair.second_time);
    baseline += result.baseline_unique();
    enhanced += result.enhanced_unique();
    // The filter keeps the true anchor unless the regressor erred beyond
    // its tolerance, which should be rare.
    const bool true_anchor_in_first = std::any_of(
        result.first.candidates.begin(), result.first.candidates.end(),
        [&](poi::PoiId id) {
          return geo::distance(city.db.poi(id).pos, pair.first) <= 0.8 + 1e-9;
        });
    if (true_anchor_in_first && !result.second.candidates.empty()) {
      ++eligible;
      kept_count += std::any_of(
          result.filtered_first_candidates.begin(),
          result.filtered_first_candidates.end(), [&](poi::PoiId id) {
            return geo::distance(city.db.poi(id).pos, pair.first) <=
                   0.8 + 1e-9;
          });
    }
  }
  ASSERT_GT(eligible, 0);
  EXPECT_GE(static_cast<double>(kept_count) / eligible, 0.8);
  // With the empty-filter fallback, the pair filter can only help.
  EXPECT_GE(enhanced, baseline);
}

}  // namespace
}  // namespace poiprivacy::attack
