// Smoke-regression goldens for the three figure pipelines (fig02
// sanitization recovery, fig05 k-cloaking, fig11 DP defense) and for the
// serving layer's released vectors, on a tiny fixed synthetic city. The exact numbers below were captured from a
// trusted run at seed 4242; any behavioural drift in the attack, defense,
// cloaking, sanitization or evaluation layers shows up here as a diff of
// a handful of integers, not a silent accuracy regression.
//
// Integer counters must match exactly; accumulated doubles use
// EXPECT_NEAR with 1e-9 (bit-identical in practice — the tolerance only
// hides long-double vs double platform noise).
//
// Every test builds a fresh Workbench so the anchor-cache deltas in
// AttackStats are independent of test ordering.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "attack/attack_context.h"
#include "attack/recovery.h"
#include "cloak/kcloak.h"
#include "common/parallel.h"
#include "defense/location_defenses.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "eval/datasets.h"
#include "eval/runner.h"
#include "mia/stream_serving.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr double kRangeKm = 2.0;

eval::WorkbenchConfig tiny_config() {
  eval::WorkbenchConfig config;
  config.seed = kSeed;
  config.locations_per_dataset = 40;
  config.num_taxis = 8;
  config.points_per_taxi = 15;
  config.num_checkin_users = 8;
  config.checkins_per_user = 8;
  return config;
}

TEST(GoldenRegression, Fig02SanitizationRecoveryAccuracy) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const defense::Sanitizer sanitizer(db, 10);
  ASSERT_GE(sanitizer.sanitized_types().size(), 3u);
  const std::vector<poi::TypeId> types(sanitizer.sanitized_types().begin(),
                                       sanitizer.sanitized_types().begin() + 3);

  attack::RecoveryConfig config;
  config.train_samples = 60;
  config.validation_samples = 30;
  config.samples_per_rare_poi = 1;
  common::Rng rng(kSeed + 5);
  const attack::SanitizationRecovery recovery(db, types, kRangeKm, config,
                                              rng);
  const std::vector<double>& acc = recovery.validation_accuracies();
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_NEAR(recovery.mean_validation_accuracy(), 0.9888888888888889, 1e-9);
  EXPECT_NEAR(acc[0], 0.9666666666666667, 1e-9);
  EXPECT_NEAR(acc[1], 1.0, 1e-9);
  EXPECT_NEAR(acc[2], 1.0, 1e-9);
}

TEST(GoldenRegression, Fig05BaselineAndKCloakAttack) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto& locations = bench.locations(eval::DatasetKind::kBeijingRandom);

  const eval::AttackStats base = eval::evaluate_attack(
      db, locations, kRangeKm, eval::identity_release(db));
  EXPECT_EQ(base.attempts, 40u);
  EXPECT_EQ(base.empty_releases, 0u);
  EXPECT_EQ(base.unique, 23u);
  EXPECT_EQ(base.correct, 23u);
  // Rare-type tile-envelope pruning rejects most candidates before they
  // reach the anchor cache, so far fewer lookups happen than under the
  // pre-pruning pinned values (84 hits / 412 misses). The attack outcomes
  // above are unchanged — pruning is exact, and the adaptive gate is a
  // deterministic function of the candidate sequence.
  EXPECT_EQ(base.cache_hits, 16u);
  EXPECT_EQ(base.cache_misses, 203u);
  EXPECT_TRUE(base.counters_consistent());

  common::Rng pop_rng(kSeed + 101);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 300, pop_rng), db.bounds());
  const defense::KCloakDefense defense(db, cloaker, 10);
  const eval::AttackStats cloaked = eval::evaluate_attack(
      db, locations, kRangeKm, [&defense](geo::Point l, double radius) {
        return defense.release(l, radius);
      });
  EXPECT_EQ(cloaked.attempts, 40u);
  EXPECT_EQ(cloaked.empty_releases, 0u);
  EXPECT_EQ(cloaked.unique, 27u);
  EXPECT_EQ(cloaked.correct, 5u);
  EXPECT_TRUE(cloaked.counters_consistent());
  // Cloaking must strictly weaken the attack on this workload.
  EXPECT_LT(cloaked.correct, base.correct);
}

TEST(GoldenRegression, Fig11DpDefenseAttackAndUtility) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto& locations = bench.locations(eval::DatasetKind::kBeijingRandom);

  common::Rng pop_rng(kSeed + 31);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 300, pop_rng), db.bounds());
  defense::DpDefenseConfig config;
  config.k = 12;
  config.epsilon = 1.0;
  config.delta = 0.2;
  config.beta = 0.02;
  const defense::DpDefense defense(db, cloaker, config);
  const std::uint64_t release_seed = kSeed + 1234;
  const eval::SeededReleaseFn release =
      [&](geo::Point l, double radius, common::Rng& rng) {
        return defense.release(l, radius, rng);
      };

  const eval::AttackStats attack =
      eval::evaluate_attack(db, locations, kRangeKm, release, release_seed);
  EXPECT_EQ(attack.attempts, 40u);
  EXPECT_EQ(attack.empty_releases, 0u);
  EXPECT_EQ(attack.unique, 2u);
  EXPECT_EQ(attack.correct, 0u);
  EXPECT_TRUE(attack.counters_consistent());

  const eval::UtilityStats utility =
      eval::evaluate_utility(db, locations, kRangeKm, release, release_seed);
  EXPECT_EQ(utility.samples, 40u);
  EXPECT_NEAR(utility.mean_jaccard, 0.4475048480930832, 1e-9);
}

/// FNV-1a over what a client sees of each result: the status, the
/// cache-hit flag, and every released count.
class ResultDigest {
 public:
  void add(const service::ReleaseResult& result) {
    byte(static_cast<std::uint8_t>(result.status));
    byte(result.cache_hit ? 1 : 0);
    for (const std::int32_t count : result.vector) {
      const auto bits = static_cast<std::uint32_t>(count);
      for (int shift = 0; shift < 32; shift += 8) {
        byte(static_cast<std::uint8_t>(bits >> shift));
      }
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(GoldenRegression, ServiceReleaseVectors) {
  const poi::City city = poi::generate_city(poi::test_preset(), kSeed);
  common::Rng pop_rng(kSeed + 61);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 400, pop_rng),
      city.db.bounds());
  service::ServiceConfig config;
  config.policies.push_back(
      {"gaussian", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back({"geometric",
                             {.k = 6,
                              .epsilon = 0.5,
                              .delta = 0.0,
                              .noise = defense::DpNoiseKind::kGeometric}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 4.0;
  config.delta_ceiling = 1.0;
  config.seed = kSeed;

  service::WorkloadConfig workload;
  workload.num_users = 5;
  workload.requests_per_user = 6;
  workload.seed = kSeed + 7;
  workload.radii = {0.8, 1.5};
  workload.policy_weights = {0.6, 0.4};
  const std::vector<service::ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, workload));
  ASSERT_EQ(trace.size(), 30u);

  // A whole trace through serve().
  ResultDigest served;
  {
    service::ReleaseService gsp(city.db, cloaker, config);
    for (const auto& result : gsp.serve(trace)) served.add(result);
    const service::ServiceStats stats = gsp.concurrent_stats();
    EXPECT_EQ(stats.granted, 25u);
    EXPECT_EQ(stats.degraded, 2u);
    EXPECT_EQ(stats.budget_exhausted, 3u);
    EXPECT_EQ(stats.cache_hits, 2u);
  }
  EXPECT_EQ(served.value(), 16566293950369913810ull);

  // The same trace, one serve_concurrent() call at a time.
  ResultDigest concurrent;
  {
    service::ReleaseService gsp(city.db, cloaker, config);
    for (const auto& request : trace) {
      concurrent.add(gsp.serve_concurrent(request));
    }
  }
  EXPECT_EQ(concurrent.value(), 16566293950369913810ull);

  // Continual-release stream blocks over the mia tile streams.
  mia::MobilityConfig mobility;
  mobility.num_users = 24;
  mobility.epochs = 8;
  mobility.visits_per_epoch = 3;
  mobility.profile_tiles = 3;
  const attack::AttackContext ctx(city.db);
  const mia::UserTraces traces = mia::generate_traces(ctx, mobility, kSeed);
  mia::StreamConfig stream_config;
  stream_config.window_epochs = 2;
  const mia::AggregateStreamReleaser releaser(traces, stream_config,
                                              /*roi_tiles=*/16,
                                              mobility.epochs / 2);
  std::vector<std::uint32_t> group(mobility.num_users);
  std::iota(group.begin(), group.end(), 0u);
  const mia::TileStreamSource source(releaser, std::move(group));
  ResultDigest stream;
  {
    service::ReleaseService gsp(city.db, cloaker, config);
    gsp.attach_stream_source(&source);
    for (const service::StreamRequest& request :
         {service::StreamRequest{1, 0, 0, 4, 0},
          service::StreamRequest{2, 3, 2, 8, 1},
          service::StreamRequest{3, 0, 0, 4, 1}}) {
      const service::ReleaseResult result = gsp.serve_stream(request);
      EXPECT_EQ(result.status, service::ReleaseStatus::kGranted);
      stream.add(result);
    }
  }
  EXPECT_EQ(stream.value(), 1711113489033836015ull);
}

}  // namespace
}  // namespace poiprivacy
