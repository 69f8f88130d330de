#include "defense/opt_defense.h"

#include <algorithm>
#include <cmath>

#include "dp/discrete.h"

namespace poiprivacy::defense {

namespace {

/// Perturbation is restricted to the citywide-rare tail (count <= 10, the
/// sanitization threshold): common types carry almost no objective weight
/// and suppressing them would damage the Top-K utility. The cap is the
/// size of db.types_with_city_freq_at_most(10), counted in place because
/// it runs once per served release.
int rare_rank_cap(const poi::PoiDatabase& db) {
  const poi::FrequencyVector& city = db.city_freq();
  return static_cast<int>(
      std::count_if(city.begin(), city.end(),
                    [](std::int32_t n) { return n > 0 && n <= 10; }));
}

}  // namespace

poi::FrequencyVector postprocess_release(const poi::PoiDatabase& db,
                                         std::span<const double> base,
                                         double beta,
                                         std::int32_t max_injection) {
  return opt::optimize_release({.base = base,
                                .rank = db.infrequency_rank(),
                                .beta = beta,
                                .max_injection = max_injection,
                                .max_rank = rare_rank_cap(db)});
}

poi::FrequencyVector OptimizationDefense::release(
    const poi::FrequencyVector& original) const {
  const std::vector<double> base(original.begin(), original.end());
  return postprocess_release(*db_, base, beta_, max_injection_);
}

CloakAggregate fold_dummies(const poi::PoiDatabase& db,
                            std::span<const geo::Point> dummies, double r) {
  const std::size_t m = db.num_types();
  CloakAggregate aggregate;
  aggregate.k = dummies.size();
  aggregate.sum.assign(m, 0.0);
  aggregate.sensitivity.assign(m, 0.0);
  // The k dummy aggregates land in the per-thread scratch arena, so
  // steady-state releases allocate nothing for the queries. A dummy that
  // saw zero POIs (clear fingerprint) adds nothing to either fold and is
  // skipped; per type the additions run in ascending dummy order.
  poi::FreqArena& arena = poi::scratch_arena();
  db.freq_batch(dummies, r, arena);
  arena.pack_fingerprints();
  for (std::size_t d = 0; d < arena.rows(); ++d) {
    if (poi::fingerprint_empty(arena.fingerprint(d))) continue;
    const std::span<const std::int32_t> row = arena.row(d);
    for (std::size_t i = 0; i < m; ++i) {
      aggregate.sum[i] += row[i];
      aggregate.sensitivity[i] =
          std::max(aggregate.sensitivity[i], static_cast<double>(row[i]));
    }
  }
  return aggregate;
}

std::vector<double> noise_aggregate(const DpDefenseConfig& config,
                                    const CloakAggregate& aggregate,
                                    common::Rng& rng) {
  const std::size_t m = aggregate.sum.size();
  const double k = static_cast<double>(aggregate.k);
  std::vector<double> mean(m, 0.0);
  const dp::PrivacyParams params{config.epsilon, config.delta};
  // Calibrated at the first type with positive sensitivity, so a release
  // with none never checks (or throws on) the parameters.
  double gaussian_factor = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double noised = aggregate.sum[i];
    if (aggregate.sensitivity[i] > 0.0) {
      switch (config.noise) {
        case DpNoiseKind::kGaussian: {
          if (gaussian_factor == 0.0) {
            gaussian_factor = dp::GaussianMechanism::sigma_factor(params);
          }
          const double sigma =
              gaussian_factor * aggregate.sensitivity[i] / config.epsilon;
          noised += rng.normal(0.0, sigma);
          break;
        }
        case DpNoiseKind::kGeometric: {
          const dp::GeometricMechanism mech(
              config.epsilon,
              static_cast<std::int64_t>(aggregate.sensitivity[i]));
          noised = static_cast<double>(mech.perturb(
              static_cast<std::int64_t>(std::llround(noised)), rng));
          break;
        }
      }
    }
    mean[i] = noised / k;
  }
  return mean;
}

std::vector<double> DpDefense::noised_mean(geo::Point location, double r,
                                           common::Rng& rng) const {
  // The dummy draw consumes `rng` before the noise draws.
  const std::vector<geo::Point> dummies =
      cloaker_->dummy_locations(location, config_.k, rng);
  return noise_aggregate(config_, fold_dummies(*db_, dummies, r), rng);
}

poi::FrequencyVector DpDefense::release(geo::Point location, double r,
                                        common::Rng& rng) const {
  return postprocess_release(*db_, noised_mean(location, r, rng),
                             config_.beta, config_.max_injection);
}

}  // namespace poiprivacy::defense
