#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"

namespace poiprivacy::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

/// uniform_int's original rejection rule (in unsigned arithmetic): the
/// limit is computed on every call. The library skips that division when
/// the draw is already below it, which must never change a returned value
/// or the number of draws consumed.
std::int64_t reference_uniform_int(Rng& rng, std::int64_t lo,
                                   std::int64_t hi) {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(rng());
  const std::uint64_t limit = Rng::max() - Rng::max() % range;
  std::uint64_t draw = rng();
  while (draw >= limit) draw = rng();
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   draw % range);
}

TEST(Rng, UniformIntMatchesRejectionReference) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {5, 5},                               // range 1
      {0, 1},                               // range 2
      {0, 550},                             // range 551 (the SVM shuffle)
      {-7, (std::int64_t{1} << 32) - 7},    // range 2^32 + 1
      {kMin, 0},                            // 2^63 + 1: ~50% rejected
      {kMin, (std::int64_t{1} << 62) - 1},  // 3 * 2^62: ~25% rejected
      {kMin, kMax},                         // the full range
  };
  for (const auto& [lo, hi] : ranges) {
    Rng rng(29);
    Rng reference(29);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
      const std::int64_t expected = reference_uniform_int(reference, lo, hi);
      if (rng.uniform_int(lo, hi) != expected) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(rng(), reference()) << "draws consumed differ for [" << lo
                                  << ", " << hi << "]";
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, LaplaceSymmetricWithCorrectScale) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.laplace(1.5));
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  // Var of Laplace(b) is 2 b^2.
  EXPECT_NEAR(stats.variance(), 2.0 * 1.5 * 1.5, 0.15);
}

TEST(Rng, Gamma2MeanIsTwoOverRate) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gamma2(4.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(37);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(43);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The child should not replay the parent's stream.
  Rng b(55);
  b();  // consume the draw fork() made
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (child() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_EQ(mean(xs), 0.0);
  EXPECT_EQ(stddev(xs), 0.0);
  EXPECT_EQ(median(xs), 0.0);
  EXPECT_EQ(quantile(xs, 0.5), 0.0);
}

TEST(Stats, MedianAndQuantiles) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(61);
  std::vector<double> xs;
  RunningStats running;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 9.0);
    xs.push_back(x);
    running.add(x);
  }
  EXPECT_NEAR(running.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(running.stddev(), stddev(xs), 1e-9);
}

TEST(Stats, EmpiricalCdfAtThresholds) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> thresholds{0.5, 2.0, 10.0};
  const auto cdf = empirical_cdf(samples, thresholds);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.0);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  Rng rng(67);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.uniform(0.0, 10.0));
  const auto cdf = empirical_cdf(samples, std::size_t{20});
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Stats, PercentilesMatchQuantiles) {
  Rng rng(71);
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(rng.uniform(0.0, 50.0));
  const Percentiles p = percentiles(xs);
  EXPECT_DOUBLE_EQ(p.p50, quantile(xs, 0.50));
  EXPECT_DOUBLE_EQ(p.p95, quantile(xs, 0.95));
  EXPECT_DOUBLE_EQ(p.p99, quantile(xs, 0.99));
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
}

TEST(Stats, PercentilesOfEmptyAreZero) {
  const Percentiles p = percentiles(std::vector<double>{});
  EXPECT_EQ(p.p50, 0.0);
  EXPECT_EQ(p.p95, 0.0);
  EXPECT_EQ(p.p99, 0.0);
}

TEST(Stats, FmtFormatsDecimals) {
  EXPECT_EQ(fmt(0.12345), "0.123");
  EXPECT_EQ(fmt(1.0, 1), "1.0");
  EXPECT_EQ(fmt(-2.5, 2), "-2.50");
}

TEST(Flags, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=0.5", "--gamma"};
  const Flags flags(5, argv);
  EXPECT_EQ(flags.get("alpha", std::int64_t{0}), 3);
  EXPECT_DOUBLE_EQ(flags.get("beta", 0.0), 0.5);
  EXPECT_TRUE(flags.get("gamma", false));
  EXPECT_FALSE(flags.get("missing", false));
  EXPECT_EQ(flags.get("missing", std::int64_t{7}), 7);
}

TEST(Flags, PositionalArguments) {
  const char* argv[] = {"prog", "input.csv", "--k", "5", "out.csv"};
  const Flags flags(5, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "out.csv");
}

TEST(Flags, UnknownFlagRejectedWhenKnownListGiven) {
  const char* argv[] = {"prog", "--oops", "1"};
  EXPECT_THROW(Flags(3, argv, {"seed"}), std::invalid_argument);
}

TEST(Flags, KnownFlagAcceptedWhenListGiven) {
  const char* argv[] = {"prog", "--seed", "9"};
  const Flags flags(3, argv, {"seed"});
  EXPECT_EQ(flags.get("seed", std::int64_t{0}), 9);
}

TEST(Flags, HelpImplicitlyKnown) {
  const char* argv[] = {"prog", "--help"};
  const Flags flags(2, argv, {"seed"});
  EXPECT_TRUE(flags.help_requested());
  const Flags no_help(1, argv, {"seed"});
  EXPECT_FALSE(no_help.help_requested());
}

TEST(Flags, UsageListsKnownFlags) {
  const char* argv[] = {"prog"};
  const Flags flags(1, argv, {"seed", "locations"});
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("usage: prog"), std::string::npos);
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("--locations"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace poiprivacy::common
