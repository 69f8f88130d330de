// Point-counting quadtree used by the adaptive-interval k-cloaking
// algorithm (Gruteser & Grunwald, MobiSys'03): the cloaker repeatedly
// quarters the city and needs fast "how many users are in this quadrant?"
// answers. Its quadrants are the tree's own cells — same center()
// arithmetic from the same bounds — so it walks the cells directly
// (root(), child(), cell_count(), cell_ids()) whenever cells_exact().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geometry.h"

namespace poiprivacy::spatial {

class Quadtree {
 public:
  /// Builds over a static point set. `max_leaf` bounds the points per leaf,
  /// `max_depth` bounds recursion.
  Quadtree(std::vector<geo::Point> points, geo::BBox bounds,
           std::size_t max_leaf = 32, int max_depth = 24);

  /// Number of points inside `box` (inclusive boundary).
  std::size_t count_in_box(const geo::BBox& box) const;

  /// Ids of points inside `box`.
  std::vector<std::uint32_t> query_box(const geo::BBox& box) const;

  const geo::BBox& bounds() const noexcept { return bounds_; }
  std::size_t size() const noexcept { return points_.size(); }
  const geo::Point& point(std::uint32_t id) const { return points_[id]; }

  // -- cell walk --
  // A cell is a node: its box is bounds() quartered along center() once
  // per level, child `q` = (y < c.y ? 0 : 2) + (x < c.x ? 0 : 1).

  /// True when every point lies inside bounds() and off every split line
  /// it was partitioned at. Then each cell's count equals count_in_box of
  /// its box, and a leaf's ids are the only points in any sub-box of it.
  bool cells_exact() const noexcept { return cells_exact_; }
  std::int32_t root() const noexcept { return root_; }
  bool is_leaf(std::int32_t cell) const { return node(cell).is_leaf(); }
  /// Child `quadrant` of an inner cell.
  std::int32_t child(std::int32_t cell, int quadrant) const {
    return node(cell).children[quadrant];
  }
  /// Points in the cell's subtree.
  std::size_t cell_count(std::int32_t cell) const { return node(cell).count; }
  /// A leaf's point ids (empty for an inner cell).
  std::span<const std::uint32_t> cell_ids(std::int32_t cell) const {
    return node(cell).ids;
  }

 private:
  struct Node {
    geo::BBox box;
    std::int32_t children[4] = {-1, -1, -1, -1};  ///< -1 = absent
    std::vector<std::uint32_t> ids;               ///< leaf payload
    std::size_t count = 0;                        ///< points in subtree
    bool is_leaf() const noexcept { return children[0] < 0; }
  };

  const Node& node(std::int32_t cell) const {
    return nodes_[static_cast<std::size_t>(cell)];
  }
  std::int32_t build(const geo::BBox& box, std::vector<std::uint32_t> ids,
                     int depth);
  void count_rec(std::int32_t node, const geo::BBox& box,
                 std::size_t& acc) const;
  void query_rec(std::int32_t node, const geo::BBox& box,
                 std::vector<std::uint32_t>& out) const;
  static bool box_contains(const geo::BBox& outer, const geo::BBox& inner);
  static bool box_intersects(const geo::BBox& a, const geo::BBox& b);

  std::vector<geo::Point> points_;
  geo::BBox bounds_;
  std::size_t max_leaf_;
  int max_depth_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  bool cells_exact_ = true;
};

}  // namespace poiprivacy::spatial
