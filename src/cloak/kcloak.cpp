#include "cloak/kcloak.h"

#include <algorithm>

namespace poiprivacy::cloak {

AdaptiveIntervalCloaker::AdaptiveIntervalCloaker(std::vector<geo::Point> users,
                                                 geo::BBox bounds)
    : bounds_(bounds), users_(users), tree_(std::move(users), bounds) {}

CloakResult AdaptiveIntervalCloaker::cloak(geo::Point target,
                                           std::size_t k) const {
  // Each quadrant below is bit-identical to a quadtree cell's box. When
  // the cells are exact, the walk reads the cell's count instead of a
  // range count from the root; below a leaf, that leaf's ids are the only
  // users the quadrant can hold. Otherwise (a user on a split line or
  // outside the bounds) every count is a range count.
  const bool exact = tree_.cells_exact();
  std::int32_t cell = tree_.root();
  geo::BBox current = bounds_;
  std::size_t current_users =
      exact ? tree_.cell_count(cell) : tree_.count_in_box(current);
  int depth = 0;
  while (depth < kMaxDepth) {
    const geo::Point c = current.center();
    // Quadrant containing the target (boundary goes right/top, matching
    // the quadtree's partition rule).
    const int q = (target.y < c.y ? 0 : 2) + (target.x < c.x ? 0 : 1);
    const geo::BBox quadrant{
        target.x < c.x ? current.min_x : c.x,
        target.y < c.y ? current.min_y : c.y,
        target.x < c.x ? c.x : current.max_x,
        target.y < c.y ? c.y : current.max_y,
    };
    std::size_t inside = 0;
    if (!exact) {
      inside = tree_.count_in_box(quadrant);
    } else if (!tree_.is_leaf(cell)) {
      cell = tree_.child(cell, q);
      inside = tree_.cell_count(cell);
    } else {
      for (const std::uint32_t id : tree_.cell_ids(cell)) {
        if (quadrant.contains(tree_.point(id))) ++inside;
      }
    }
    // Requester + (k-1) registered users give k-anonymity.
    if (inside + 1 < k) break;
    current = quadrant;
    current_users = inside;
    ++depth;
  }
  return {current, current_users, depth};
}

std::vector<geo::Point> AdaptiveIntervalCloaker::dummy_locations(
    geo::Point target, std::size_t k, common::Rng& rng) const {
  std::vector<geo::Point> out;
  if (k == 0) return out;
  const CloakResult result = cloak(target, k);
  out.push_back(target);
  append_region_draws(out, result.region, k, rng);
  return out;
}

std::vector<geo::Point> AdaptiveIntervalCloaker::region_dummy_locations(
    const geo::BBox& region, std::size_t k, common::Rng& rng) const {
  std::vector<geo::Point> out;
  append_region_draws(out, region, k, rng);
  return out;
}

void AdaptiveIntervalCloaker::append_region_draws(std::vector<geo::Point>& out,
                                                  const geo::BBox& region,
                                                  std::size_t k,
                                                  common::Rng& rng) const {
  std::vector<std::uint32_t> ids = tree_.query_box(region);
  rng.shuffle(ids);
  for (const std::uint32_t id : ids) {
    if (out.size() >= k) break;
    out.push_back(tree_.point(id));
  }
  while (out.size() < k) {
    out.push_back({rng.uniform(region.min_x, region.max_x),
                   rng.uniform(region.min_y, region.max_y)});
  }
}

std::vector<geo::Point> uniform_population(const geo::BBox& bounds,
                                           std::size_t count,
                                           common::Rng& rng) {
  std::vector<geo::Point> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({rng.uniform(bounds.min_x, bounds.max_x),
                   rng.uniform(bounds.min_y, bounds.max_y)});
  }
  return out;
}

}  // namespace poiprivacy::cloak
