#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cloak/kcloak.h"
#include "common/rng.h"
#include "spatial/quadtree.h"

namespace poiprivacy::cloak {
namespace {

AdaptiveIntervalCloaker make_cloaker(std::size_t users, std::uint64_t seed,
                                     geo::BBox bounds = {0.0, 0.0, 16.0,
                                                         16.0}) {
  common::Rng rng(seed);
  return AdaptiveIntervalCloaker(uniform_population(bounds, users, rng),
                                 bounds);
}

TEST(UniformPopulation, StaysInBounds) {
  common::Rng rng(3);
  const geo::BBox bounds{2.0, 3.0, 10.0, 8.0};
  const auto users = uniform_population(bounds, 500, rng);
  EXPECT_EQ(users.size(), 500u);
  for (const geo::Point u : users) EXPECT_TRUE(bounds.contains(u));
}

TEST(Cloak, RegionAlwaysContainsTarget) {
  const auto cloaker = make_cloaker(2000, 7);
  common::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    for (const std::size_t k : {2u, 10u, 50u}) {
      const CloakResult result = cloaker.cloak(target, k);
      EXPECT_TRUE(result.region.contains(target))
          << "k=" << k << " trial=" << trial;
    }
  }
}

TEST(Cloak, RegionSatisfiesKAnonymity) {
  const auto cloaker = make_cloaker(2000, 13);
  common::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    for (const std::size_t k : {2u, 10u, 30u}) {
      const CloakResult result = cloaker.cloak(target, k);
      // Region users + the requester must reach k.
      EXPECT_GE(result.users_inside + 1, k);
    }
  }
}

TEST(Cloak, RegionGrowsWithK) {
  const auto cloaker = make_cloaker(3000, 19);
  common::Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    double prev_area = 0.0;
    for (const std::size_t k : {2u, 10u, 30u, 100u}) {
      const double area = cloaker.cloak(target, k).region.area();
      EXPECT_GE(area, prev_area);
      prev_area = area;
    }
  }
}

TEST(Cloak, ImpossibleKReturnsWholeCity) {
  const auto cloaker = make_cloaker(50, 29);
  const CloakResult result = cloaker.cloak({8.0, 8.0}, 10000);
  EXPECT_DOUBLE_EQ(result.region.area(), cloaker.bounds().area());
  EXPECT_EQ(result.depth, 0);
}

TEST(Cloak, TrivialKDescendsDeep) {
  const auto cloaker = make_cloaker(1000, 31);
  const CloakResult result = cloaker.cloak({8.0, 8.0}, 1);
  EXPECT_GT(result.depth, 3);
  EXPECT_LT(result.region.area(), 1.0);
}

TEST(Dummies, CorrectCountAndContainment) {
  const auto cloaker = make_cloaker(2000, 37);
  common::Rng rng(41);
  const geo::Point target{5.0, 5.0};
  const auto dummies = cloaker.dummy_locations(target, 20, rng);
  ASSERT_EQ(dummies.size(), 20u);
  EXPECT_EQ(dummies.front(), target);
  const CloakResult cloaked = cloaker.cloak(target, 20);
  for (const geo::Point d : dummies) {
    EXPECT_TRUE(cloaked.region.contains(d));
  }
}

TEST(Dummies, SparsePopulationToppedUpWithSynthetic) {
  const auto cloaker = make_cloaker(5, 43);
  common::Rng rng(47);
  const auto dummies = cloaker.dummy_locations({8.0, 8.0}, 25, rng);
  EXPECT_EQ(dummies.size(), 25u);
  for (const geo::Point d : dummies) {
    EXPECT_TRUE(cloaker.bounds().contains(d));
  }
}

TEST(Dummies, ZeroKGivesEmpty) {
  const auto cloaker = make_cloaker(100, 53);
  common::Rng rng(59);
  EXPECT_TRUE(cloaker.dummy_locations({1.0, 1.0}, 0, rng).empty());
}

/// The cloak as a chain of range counts from the quadtree root — the
/// reference the cell walk must reproduce bit for bit.
CloakResult range_count_cloak(const spatial::Quadtree& tree,
                              const geo::BBox& bounds, geo::Point target,
                              std::size_t k) {
  geo::BBox current = bounds;
  int depth = 0;
  while (depth < 20) {
    const geo::Point c = current.center();
    const geo::BBox quadrant{
        target.x < c.x ? current.min_x : c.x,
        target.y < c.y ? current.min_y : c.y,
        target.x < c.x ? c.x : current.max_x,
        target.y < c.y ? c.y : current.max_y,
    };
    if (tree.count_in_box(quadrant) + 1 < k) break;
    current = quadrant;
    ++depth;
  }
  return {current, tree.count_in_box(current), depth};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Population {
  std::string name;
  std::vector<geo::Point> users;
  bool cells_exact;  ///< whether the cell walk (not the fallback) runs
};

std::vector<Population> property_populations(const geo::BBox& b,
                                             std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Population> out;
  out.push_back({"uniform", uniform_population(b, 3000, rng), true});
  out.push_back({"uniform_small", uniform_population(b, 20, rng), true});
  // Every dyadic split line of a 16 km box carries users: the fallback.
  std::vector<geo::Point> grid;
  for (int x = 0; x <= 16; ++x) {
    for (int y = 0; y <= 16; ++y) {
      for (int copy = 0; copy < 3; ++copy) grid.push_back({x + 0.0, y + 0.0});
    }
  }
  out.push_back({"dyadic_grid", grid, false});
  // Stacks deeper than any leaf cap, off the split lines.
  std::vector<geo::Point> dup = uniform_population(b, 400, rng);
  for (int i = 0; i < 300; ++i) dup.push_back({5.3, 9.7});
  for (int i = 0; i < 100; ++i) dup.push_back({12.1, 0.9});
  out.push_back({"duplicates", dup, true});
  // Users on the outer edges and corners (not split lines).
  std::vector<geo::Point> edge = uniform_population(b, 1500, rng);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(b.min_x, b.max_x);
    edge.push_back({t, b.min_y});
    edge.push_back({t, b.max_y});
    edge.push_back({b.min_x, t});
    edge.push_back({b.max_x, t});
  }
  edge.push_back({b.min_x, b.min_y});
  edge.push_back({b.max_x, b.max_y});
  out.push_back({"bounds_edge", edge, true});
  // Users outside the bounds: the fallback, also for a single-leaf tree.
  const geo::BBox wide{b.min_x - 4.0, b.min_y - 4.0, b.max_x + 4.0,
                       b.max_y + 4.0};
  out.push_back({"out_of_bounds", uniform_population(wide, 2000, rng), false});
  std::vector<geo::Point> small_out = uniform_population(b, 10, rng);
  small_out.push_back({b.max_x + 1.0, b.max_y + 1.0});
  out.push_back({"out_of_bounds_small", small_out, false});
  return out;
}

TEST(CloakProperty, CellWalkMatchesRangeCountDescent) {
  const geo::BBox bounds{0.0, 0.0, 16.0, 16.0};
  const geo::Point c = bounds.center();
  for (const Population& pop : property_populations(bounds, 71)) {
    const spatial::Quadtree tree(pop.users, bounds);
    ASSERT_EQ(tree.cells_exact(), pop.cells_exact) << pop.name;
    const AdaptiveIntervalCloaker cloaker(pop.users, bounds);
    const std::size_t n = pop.users.size();

    std::vector<geo::Point> targets = {
        c,           {bounds.min_x, c.y}, {bounds.max_x, c.y},
        {c.x, bounds.min_y},              {c.x, bounds.max_y},
        {bounds.min_x, bounds.min_y},     {bounds.max_x, bounds.max_y},
        {4.0, 12.0}, {-3.0, 5.0},         {20.0, 20.0},
        {8.0, -1.0}, {bounds.max_x + 0.5, bounds.min_y - 0.5},
    };
    common::Rng rng(73);
    for (int i = 0; i < 150; ++i) {
      targets.push_back({rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)});
    }
    for (int i = 0; i < 40; ++i) {
      targets.push_back(pop.users[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
    }
    for (const geo::Point t : targets) {
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{16},
            std::size_t{32}, n, n + 1}) {
        const CloakResult got = cloaker.cloak(t, k);
        const CloakResult want = range_count_cloak(tree, bounds, t, k);
        const std::string where = pop.name + " target (" +
                                  std::to_string(t.x) + ", " +
                                  std::to_string(t.y) + ") k=" +
                                  std::to_string(k);
        EXPECT_TRUE(same_bits(got.region.min_x, want.region.min_x) &&
                    same_bits(got.region.min_y, want.region.min_y) &&
                    same_bits(got.region.max_x, want.region.max_x) &&
                    same_bits(got.region.max_y, want.region.max_y))
            << where;
        EXPECT_EQ(got.users_inside, want.users_inside) << where;
        EXPECT_EQ(got.depth, want.depth) << where;
      }
    }
  }
}

class CloakKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CloakKSweep, DepthDecreasesWithK) {
  const auto cloaker = make_cloaker(4000, 61);
  common::Rng rng(67);
  // Averaged over targets, larger k must not cloak deeper.
  double mean_depth = 0.0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    mean_depth += cloaker.cloak(target, GetParam()).depth;
  }
  mean_depth /= trials;
  // With 4000 users over 256 km^2 a k of 2 should cloak much deeper than
  // k of 200; spot-check monotonic envelope via bounds per k.
  if (GetParam() <= 2) {
    EXPECT_GT(mean_depth, 3.0);
  }
  if (GetParam() >= 200) {
    EXPECT_LT(mean_depth, 6.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, CloakKSweep,
                         ::testing::Values(2u, 10u, 50u, 200u));

}  // namespace
}  // namespace poiprivacy::cloak
