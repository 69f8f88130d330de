// Cross-module randomized property tests: the key invariants of the
// pipeline checked over many seeds and parameter draws (TEST_P sweeps).
#include <gtest/gtest.h>

#include "attack/fine_grained.h"
#include "attack/region_reid.h"
#include "cloak/kcloak.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "opt/distortion.h"
#include "poi/city_model.h"

namespace poiprivacy {
namespace {

class SeededCity : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  poi::City city() const {
    return poi::generate_city(poi::test_preset(), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCity,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// Invariant: the generator hits the preset's scale exactly, regardless
// of seed.
TEST_P(SeededCity, GeneratorScaleInvariants) {
  const poi::City c = city();
  const poi::CityPreset preset = poi::test_preset();
  EXPECT_EQ(c.db.pois().size(), preset.num_pois);
  EXPECT_EQ(c.db.num_types(), preset.num_types);
  EXPECT_EQ(c.db.types_with_city_freq_at_most(10).size(),
            preset.target_rare_types);
  EXPECT_EQ(poi::total(c.db.city_freq()),
            static_cast<std::int64_t>(preset.num_pois));
}

// Invariant: Freq is additive over a partition of the disk's POIs and
// consistent with Query, for arbitrary probes.
TEST_P(SeededCity, FreqQueryConsistency) {
  const poi::City c = city();
  common::Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.2, 2.5);
    const auto ids = c.db.query(l, r);
    const poi::FrequencyVector f = c.db.freq(l, r);
    EXPECT_EQ(poi::total(f), static_cast<std::int64_t>(ids.size()));
  }
}

// Invariant: the covering lemma — the attack's entire soundness argument.
TEST_P(SeededCity, CoveringLemma) {
  const poi::City c = city();
  common::Rng rng(GetParam() * 37 + 11);
  for (int trial = 0; trial < 8; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.3, 1.5);
    const poi::FrequencyVector f = c.db.freq(l, r);
    for (const poi::PoiId id : c.db.query(l, r)) {
      EXPECT_TRUE(
          poi::dominates(c.db.freq(c.db.poi(id).pos, 2.0 * r), f));
    }
  }
}

// Invariant: on honest releases the baseline attack never frames an
// innocent location — a unique candidate is always a true anchor.
TEST_P(SeededCity, UniqueImpliesCorrectOnHonestReleases) {
  const poi::City c = city();
  const attack::RegionReidentifier reid(c.db);
  common::Rng rng(GetParam() * 41 + 13);
  for (int trial = 0; trial < 25; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.4, 1.6);
    const attack::ReidResult result = reid.infer(c.db.freq(l, r), r);
    if (result.unique()) {
      EXPECT_TRUE(attack::attack_success(result, c.db, l, r));
    }
  }
}

// Invariant: sanitization is idempotent and only ever lowers entries.
TEST_P(SeededCity, SanitizerIdempotentAndMonotone) {
  const poi::City c = city();
  const defense::Sanitizer sanitizer(c.db, 10);
  common::Rng rng(GetParam() * 43 + 17);
  for (int trial = 0; trial < 10; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const poi::FrequencyVector f = c.db.freq(l, 1.0);
    const poi::FrequencyVector once = sanitizer.sanitize(f);
    EXPECT_EQ(sanitizer.sanitize(once), once);
    EXPECT_TRUE(poi::dominates(f, once));
  }
}

// Invariant: the optimization defense always emits a feasible nonnegative
// integer vector whose rare-capped perturbation respects the budget.
TEST_P(SeededCity, OptimizationDefenseFeasibility) {
  const poi::City c = city();
  common::Rng rng(GetParam() * 47 + 19);
  for (const double beta : {0.0, 0.01, 0.05}) {
    const defense::OptimizationDefense defense(c.db, beta);
    for (int trial = 0; trial < 5; ++trial) {
      const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
      const poi::FrequencyVector f = c.db.freq(l, 1.2);
      const poi::FrequencyVector released = defense.release(f);
      ASSERT_EQ(released.size(), f.size());
      std::vector<double> base(f.begin(), f.end());
      EXPECT_LE(opt::mean_relative_distortion(base, released),
                beta + 1e-9);
      for (const auto v : released) EXPECT_GE(v, 0);
    }
  }
}

// Invariant: cloaked regions nest — the region for a larger k always
// contains the region for a smaller k at the same target.
TEST_P(SeededCity, CloakRegionsNest) {
  const poi::City c = city();
  common::Rng pop_rng(GetParam() * 53 + 23);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(c.db.bounds(), 600, pop_rng), c.db.bounds());
  common::Rng rng(GetParam() * 59 + 29);
  for (int trial = 0; trial < 15; ++trial) {
    const geo::Point target{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const geo::BBox small = cloaker.cloak(target, 3).region;
    const geo::BBox large = cloaker.cloak(target, 40).region;
    EXPECT_LE(large.min_x, small.min_x);
    EXPECT_LE(large.min_y, small.min_y);
    EXPECT_GE(large.max_x, small.max_x);
    EXPECT_GE(large.max_y, small.max_y);
  }
}

// Invariant: the fine-grained feasible region is contained in the major
// anchor's disk — its area never exceeds the baseline's, and every
// feasible-disk anchor is inside 2r of the major anchor.
TEST_P(SeededCity, FineGrainedRegionContainment) {
  const poi::City c = city();
  const attack::FineGrainedAttack fine(c.db);
  common::Rng rng(GetParam() * 61 + 31);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = 0.8;
    const attack::FineGrainedResult result = fine.infer(c.db.freq(l, r), r);
    if (!result.baseline_unique) continue;
    EXPECT_GT(result.area_km2, 0.0);
    EXPECT_LE(result.area_km2, M_PI * r * r * 1.05);
    const geo::Point major = c.db.poi(result.major_anchor).pos;
    for (const geo::Circle& disk : result.feasible_disks) {
      EXPECT_LE(geo::distance(disk.center, major), 2.0 * r + 1e-9);
    }
  }
}

// Invariant: DP releases are valid frequency vectors at any epsilon.
TEST_P(SeededCity, DpReleaseValidity) {
  const poi::City c = city();
  common::Rng pop_rng(GetParam() * 67 + 37);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(c.db.bounds(), 600, pop_rng), c.db.bounds());
  common::Rng rng(GetParam() * 71 + 41);
  for (const double eps : {0.2, 2.0}) {
    defense::DpDefenseConfig config;
    config.epsilon = eps;
    const defense::DpDefense defense(c.db, cloaker, config);
    const poi::FrequencyVector released =
        defense.release({rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)}, 1.0,
                        rng);
    ASSERT_EQ(released.size(), c.db.num_types());
    for (const auto v : released) EXPECT_GE(v, 0);
  }
}

}  // namespace
}  // namespace poiprivacy
