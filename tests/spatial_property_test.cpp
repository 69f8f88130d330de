// Property tests: every spatial index must agree with a brute-force scan
// over the same point set. Each backend gets ~200 randomized cases
// (point clouds with duplicates, degenerate and empty sets, boundary-
// grazing queries), seeded via Rng::substream so case i is reproducible
// in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geo/geometry.h"
#include "spatial/grid_index.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kCases = 200;
constexpr geo::BBox kBounds{0.0, 0.0, 10.0, 8.0};

/// Random cloud inside kBounds. Roughly a third of the points are exact
/// duplicates of earlier ones, to stress tie handling.
std::vector<geo::Point> random_points(common::Rng& rng, std::size_t n) {
  std::vector<geo::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!points.empty() && rng.bernoulli(0.3)) {
      points.push_back(points[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(points.size()) - 1))]);
    } else {
      points.push_back({rng.uniform(kBounds.min_x, kBounds.max_x),
                        rng.uniform(kBounds.min_y, kBounds.max_y)});
    }
  }
  return points;
}

/// Query centers may fall outside the indexed bounds.
geo::Point random_center(common::Rng& rng) {
  return {rng.uniform(kBounds.min_x - 2.0, kBounds.max_x + 2.0),
          rng.uniform(kBounds.min_y - 2.0, kBounds.max_y + 2.0)};
}

geo::BBox random_box(common::Rng& rng) {
  const geo::Point a = random_center(rng);
  const geo::Point b = random_center(rng);
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
          std::max(a.y, b.y)};
}

std::vector<std::uint32_t> brute_disk(const std::vector<geo::Point>& points,
                                      geo::Point center, double radius) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (geo::distance_sq(points[i], center) <= radius * radius) {
      ids.push_back(i);
    }
  }
  return ids;
}

std::vector<std::uint32_t> brute_box(const std::vector<geo::Point>& points,
                                     const geo::BBox& box) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (box.contains(points[i])) ids.push_back(i);
  }
  return ids;
}

std::vector<std::uint32_t> sorted(std::vector<std::uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Distances of `ids` to `query`, ascending — the tie-insensitive way to
/// compare nearest-neighbour answers.
std::vector<double> distances_to(const std::vector<geo::Point>& points,
                                 const std::vector<std::uint32_t>& ids,
                                 geo::Point query) {
  std::vector<double> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    out.push_back(geo::distance(points[id], query));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialProperty, GridIndexMatchesBruteForceDisk) {
  const common::Rng base(0x57A71A11u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::GridIndex index(points, kBounds,
                                   rng.uniform(0.2, 1.5));
    for (int q = 0; q < 4; ++q) {
      const geo::Point center = random_center(rng);
      const double radius = rng.uniform(0.0, 5.0);
      const auto expected = sorted(brute_disk(points, center, radius));
      EXPECT_EQ(sorted(index.query_disk(center, radius)), expected)
          << "case " << c << " query " << q;
      EXPECT_EQ(index.count_in_disk(center, radius), expected.size())
          << "case " << c << " query " << q;
    }
  }
}

TEST(SpatialProperty, QuadtreeMatchesBruteForceBox) {
  const common::Rng base(0x57A71A33u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::Quadtree tree(
        points, kBounds, static_cast<std::size_t>(rng.uniform_int(1, 8)),
        static_cast<int>(rng.uniform_int(2, 12)));
    for (int q = 0; q < 4; ++q) {
      const geo::BBox box = random_box(rng);
      const auto expected = sorted(brute_box(points, box));
      EXPECT_EQ(sorted(tree.query_box(box)), expected)
          << "case " << c << " query " << q;
      EXPECT_EQ(tree.count_in_box(box), expected.size())
          << "case " << c << " query " << q;
    }
  }
}

TEST(SpatialProperty, KdTreeNearestMatchesBruteForce) {
  const common::Rng base(0x57A71A44u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::KdTree tree(points);
    for (int q = 0; q < 4; ++q) {
      const geo::Point query = random_center(rng);
      const auto got = tree.nearest(query);
      if (points.empty()) {
        EXPECT_FALSE(got.has_value()) << "case " << c;
        continue;
      }
      ASSERT_TRUE(got.has_value()) << "case " << c;
      double best = geo::distance(points[0], query);
      for (const geo::Point& p : points) {
        best = std::min(best, geo::distance(p, query));
      }
      // Ties make the winning id ambiguous; the distance is not.
      EXPECT_DOUBLE_EQ(geo::distance(points[*got], query), best)
          << "case " << c << " query " << q;
    }
  }
}

TEST(SpatialProperty, KdTreeKNearestMatchesBruteForce) {
  const common::Rng base(0x57A71A55u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::KdTree tree(points);
    for (int q = 0; q < 4; ++q) {
      const geo::Point query = random_center(rng);
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 70));
      const auto got = tree.k_nearest(query, k);
      ASSERT_EQ(got.size(), std::min(k, points.size())) << "case " << c;
      // Closest first.
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(geo::distance(points[got[i - 1]], query),
                  geo::distance(points[got[i]], query))
            << "case " << c << " rank " << i;
      }
      // The returned distance multiset is the k smallest overall.
      std::vector<std::uint32_t> all(points.size());
      for (std::uint32_t i = 0; i < points.size(); ++i) all[i] = i;
      std::vector<double> expected = distances_to(points, all, query);
      expected.resize(got.size());
      const std::vector<double> actual = distances_to(points, got, query);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(actual[i], expected[i])
            << "case " << c << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace poiprivacy
