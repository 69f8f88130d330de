#include <gtest/gtest.h>

#include "attack/chain_attack.h"
#include "defense/opt_defense.h"
#include "dp/ledger.h"
#include "poi/city_model.h"
#include "traj/generators.h"

namespace poiprivacy {
namespace {

poi::City make_city() { return poi::generate_city(poi::test_preset(), 7); }

cloak::AdaptiveIntervalCloaker make_cloaker(const poi::PoiDatabase& db) {
  common::Rng rng(3);
  return cloak::AdaptiveIntervalCloaker(
      cloak::uniform_population(db.bounds(), 500, rng), db.bounds());
}

// A release session (examples/budget_session) is a DpDefense gated by an
// exact dp::Ledger: a release is refused when would_exceed(cost), and its
// cost is recorded after it is made. Slack 0 composes basically; a
// positive slack takes tightest-of(basic, advanced).
dp::Ledger session_ledger(double epsilon_ceiling, double delta_ceiling,
                          double advanced_slack = 0.0) {
  return dp::Ledger(dp::LedgerConfig{
      advanced_slack > 0.0 ? dp::LedgerPolicy::kAdvancedHeterogeneous
                           : dp::LedgerPolicy::kBasic,
      epsilon_ceiling, delta_ceiling, advanced_slack, dp::WindowPolicy{}});
}

/// The session's admission loop over up to `attempts` releases of
/// `cost`; returns how many were granted.
int grant_releases(dp::Ledger& ledger, dp::PrivacyParams cost,
                   int attempts) {
  int granted = 0;
  for (; granted < attempts && !ledger.would_exceed(cost); ++granted) {
    ledger.record(cost);
  }
  return granted;
}

TEST(ReleaseSession, SpendsBudgetPerRelease) {
  dp::Ledger ledger = session_ledger(3.5, 1.0);
  const dp::PrivacyParams cost{1.0, 0.05};
  EXPECT_EQ(ledger.releases(), 0u);
  EXPECT_DOUBLE_EQ(ledger.spent().epsilon, 0.0);
  // eps ceiling 3.5 with 1.0 per release -> exactly 3 releases.
  EXPECT_EQ(grant_releases(ledger, cost, 10), 3);
  EXPECT_EQ(ledger.releases(), 3u);
  EXPECT_TRUE(ledger.would_exceed(cost));
  EXPECT_NEAR(ledger.spent().epsilon, 3.0, 1e-9);
  EXPECT_NEAR(ledger.spent().delta, 0.15, 1e-9);
}

TEST(ReleaseSession, DeltaCeilingAlsoStops) {
  dp::Ledger ledger = session_ledger(100.0, 0.5);
  EXPECT_EQ(grant_releases(ledger, {0.1, 0.2}, 10), 2);  // 3 * 0.2 > 0.5
}

TEST(ReleaseSession, AdvancedCompositionGrantsMoreSmallReleases) {
  const dp::PrivacyParams cost{0.01, 1e-5};
  dp::Ledger basic = session_ledger(2.0, 1.0);
  dp::Ledger advanced = session_ledger(2.0, 1.0, 1e-6);
  const int basic_grants = grant_releases(basic, cost, 1600);
  const int advanced_grants = grant_releases(advanced, cost, 1600);
  // Basic composition caps out around ceiling / eps = 200 releases
  // (floating-point summation may shave one off); sqrt-scaling advanced
  // composition grants several times more.
  EXPECT_GE(basic_grants, 199);
  EXPECT_LE(basic_grants, 200);
  EXPECT_GT(advanced_grants, 2 * basic_grants);
}

TEST(ReleaseSession, RemainingShrinksWithSpendAndClampsAtZero) {
  dp::Ledger ledger = session_ledger(2.5, 1.0);
  EXPECT_DOUBLE_EQ(ledger.remaining().epsilon, 2.5);
  EXPECT_DOUBLE_EQ(ledger.remaining().delta, 1.0);
  ledger.record({1.0, 0.05});
  EXPECT_NEAR(ledger.remaining().epsilon, 1.5, 1e-12);
  EXPECT_NEAR(ledger.remaining().delta, 0.95, 1e-12);
  ledger.record({1.0, 0.05});
  ledger.record({1.0, 0.05});
  // Spent (3.0) exceeds the 2.5 ceiling; remaining clamps at zero.
  EXPECT_DOUBLE_EQ(ledger.remaining().epsilon, 0.0);
}

TEST(ReleaseSession, WouldExceedGatesWithoutThrowing) {
  dp::Ledger ledger = session_ledger(2.0, 1.0);
  EXPECT_FALSE(ledger.would_exceed({1.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({2.5, 0.0}));
  // A cheaper policy can still fit after the nominal one no longer does.
  ledger.record({1.0, 0.0});
  ledger.record({0.5, 0.0});
  EXPECT_TRUE(ledger.would_exceed({1.0, 0.0}));
  EXPECT_FALSE(ledger.would_exceed({0.5, 0.0}));

  // Invalid parameters are never admissible but must not throw.
  EXPECT_TRUE(ledger.would_exceed({0.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({-1.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({0.5, 1.0}));
}

TEST(ReleaseSession, ReleasesAreValidVectors) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const defense::DpDefenseConfig config;
  const defense::DpDefense defense(city.db, cloaker, config);
  dp::Ledger ledger = session_ledger(10.0, 0.5, 1e-6);
  const dp::PrivacyParams cost{config.epsilon, config.delta};
  common::Rng rng(11);
  ASSERT_FALSE(ledger.would_exceed(cost));
  const poi::FrequencyVector released = defense.release({4.0, 4.0}, 1.0, rng);
  ledger.record(cost);
  EXPECT_EQ(ledger.releases(), 1u);
  ASSERT_EQ(released.size(), city.db.num_types());
  for (const auto v : released) EXPECT_GE(v, 0);
}

class ChainAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    city_ = std::make_unique<poi::City>(make_city());
    common::Rng rng(13);
    traj::TaxiConfig config;
    config.num_taxis = 40;
    config.points_per_taxi = 50;
    trajectories_ =
        traj::generate_taxi_trajectories(*city_, config, rng);
    pairs_ = traj::extract_release_pairs(trajectories_, city_->db, r_, 600);
    ASSERT_GT(pairs_.size(), 60u);
    pairwise_ = std::make_unique<attack::TrajectoryAttack>(
        city_->db, std::span(pairs_.data(), pairs_.size() / 2), r_,
        attack::TrajectoryAttackConfig{}, rng);
  }

  std::vector<attack::TimedRelease> releases_for(const traj::Trajectory& t,
                                                 std::size_t start,
                                                 std::size_t n) const {
    std::vector<attack::TimedRelease> out;
    for (std::size_t i = start; i < start + n && i < t.points.size(); ++i) {
      out.push_back(
          {city_->db.freq(t.points[i].pos, r_), t.points[i].time});
    }
    return out;
  }

  const double r_ = 0.8;
  std::unique_ptr<poi::City> city_;
  std::vector<traj::Trajectory> trajectories_;
  std::vector<traj::ReleasePair> pairs_;
  std::unique_ptr<attack::TrajectoryAttack> pairwise_;
};

TEST_F(ChainAttackTest, EmptyChainIsUndecided) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  const attack::ChainInferenceResult result = chain.infer({});
  EXPECT_FALSE(result.unique());
  EXPECT_TRUE(result.layers.empty());
}

TEST_F(ChainAttackTest, SingleReleaseMatchesBaseline) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  const attack::RegionReidentifier reid(city_->db);
  for (std::size_t k = 0; k < 10; ++k) {
    const auto& t = trajectories_[k];
    const auto releases = releases_for(t, 0, 1);
    const attack::ChainInferenceResult result = chain.infer(releases);
    const attack::ReidResult baseline = reid.infer(releases[0].freq, r_);
    EXPECT_EQ(result.surviving_first_candidates, baseline.candidates);
  }
}

TEST_F(ChainAttackTest, SurvivorsAreSubsetOfBaselineCandidates) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  for (std::size_t k = 0; k < 15; ++k) {
    const auto releases = releases_for(trajectories_[k], 5, 4);
    if (releases.size() < 4) continue;
    const attack::ChainInferenceResult result = chain.infer(releases);
    for (const poi::PoiId id : result.surviving_first_candidates) {
      EXPECT_NE(std::find(result.layers[0].begin(), result.layers[0].end(),
                          id),
                result.layers[0].end());
    }
    EXPECT_EQ(result.estimated_step_km.size(), releases.size() - 1);
  }
}

TEST_F(ChainAttackTest, LongerChainsNeverReduceAggregateSuccess) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  std::size_t successes_1 = 0;
  std::size_t successes_3 = 0;
  std::size_t attempts = 0;
  for (const auto& t : trajectories_) {
    const auto chain3 = releases_for(t, 10, 3);
    if (chain3.size() < 3) continue;
    ++attempts;
    const auto chain1 = releases_for(t, 10, 1);
    successes_1 += chain.success(chain.infer(chain1), t.points[10].pos);
    successes_3 += chain.success(chain.infer(chain3), t.points[10].pos);
  }
  ASSERT_GT(attempts, 20u);
  // Longer chains add evidence; allow tiny regression from regressor noise.
  EXPECT_GE(successes_3 + 2, successes_1);
}

}  // namespace
}  // namespace poiprivacy
