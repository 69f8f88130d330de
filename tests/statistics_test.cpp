#include <gtest/gtest.h>

#include "poi/city_model.h"
#include "poi/statistics.h"

namespace poiprivacy {
namespace {

TEST(Statistics, TypeCountSummaryMatchesPreset) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::TypeCountSummary summary =
      poi::summarize_type_counts(city.db);
  EXPECT_EQ(summary.rare_types, poi::test_preset().target_rare_types);
  EXPECT_GE(summary.min_count, 1);
  EXPECT_GT(summary.max_count, summary.min_count);
  EXPECT_NEAR(summary.mean_count,
              static_cast<double>(poi::test_preset().num_pois) /
                  static_cast<double>(poi::test_preset().num_types),
              1e-9);
  EXPECT_GT(summary.top_decile_mass, 0.15);
  EXPECT_LT(summary.top_decile_mass, 1.0);
}

TEST(Statistics, GeneratedCityIsClustered) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::ClusteringSummary clustering =
      poi::summarize_clustering(city.db);
  EXPECT_GT(clustering.mean_nn_km, 0.0);
  // The generator must produce a clustered pattern (Clark-Evans < 1).
  EXPECT_LT(clustering.clark_evans_ratio, 0.95);
  EXPECT_GT(clustering.mean_within_type_nn_km, 0.0);
}

TEST(Statistics, WithinTypeCoLocationIsStrong) {
  // A type's own POIs must be much closer together than the bounding box
  // scale — this is the property that calibrates the attacks.
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::ClusteringSummary clustering =
      poi::summarize_clustering(city.db);
  EXPECT_LT(clustering.mean_within_type_nn_km,
            city.db.bounds().width() / 2.0);
}

TEST(Statistics, DensityGridCountsEveryPoi) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::DensityGrid grid = poi::density_grid(city.db, 1.0);
  std::int64_t total = 0;
  for (const auto c : grid.counts) total += c;
  EXPECT_EQ(total, static_cast<std::int64_t>(city.db.pois().size()));
  EXPECT_EQ(grid.nx, 8);
  EXPECT_EQ(grid.ny, 8);
  EXPECT_GT(grid.max_count(), 0);
}

TEST(Statistics, DensityRenderingShape) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::DensityGrid grid = poi::density_grid(city.db, 1.0);
  const std::string art = poi::render_density(grid);
  std::size_t newlines = 0;
  for (const char c : art) newlines += c == '\n';
  EXPECT_EQ(newlines, static_cast<std::size_t>(grid.ny));
}

TEST(Statistics, TypeNnDistanceEdgeCases) {
  poi::PoiTypeRegistry registry;
  const poi::TypeId solo = registry.intern("solo");
  const poi::TypeId pair = registry.intern("pair");
  std::vector<poi::Poi> pois{
      {0, solo, {1.0, 1.0}},
      {1, pair, {2.0, 2.0}},
      {2, pair, {2.0, 3.0}},
  };
  const poi::PoiDatabase db("edge", std::move(pois), std::move(registry),
                            {0.0, 0.0, 4.0, 4.0});
  EXPECT_DOUBLE_EQ(poi::type_nn_distance(db, solo), 0.0);
  EXPECT_DOUBLE_EQ(poi::type_nn_distance(db, pair), 1.0);
}

}  // namespace
}  // namespace poiprivacy
