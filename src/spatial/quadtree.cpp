#include "spatial/quadtree.h"

#include <utility>

namespace poiprivacy::spatial {

Quadtree::Quadtree(std::vector<geo::Point> points, geo::BBox bounds,
                   std::size_t max_leaf, int max_depth)
    : points_(std::move(points)),
      bounds_(bounds),
      max_leaf_(max_leaf),
      max_depth_(max_depth) {
  std::vector<std::uint32_t> ids(points_.size());
  for (std::uint32_t i = 0; i < points_.size(); ++i) ids[i] = i;
  root_ = build(bounds_, std::move(ids), 0);
}

std::int32_t Quadtree::build(const geo::BBox& box,
                             std::vector<std::uint32_t> ids, int depth) {
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({});
  nodes_[index].box = box;
  nodes_[index].count = ids.size();
  if (ids.size() <= max_leaf_ || depth >= max_depth_) {
    // A root leaf is never partitioned, so its bounds check happens here.
    if (depth == 0) {
      for (const std::uint32_t id : ids) {
        if (!bounds_.contains(points_[id])) cells_exact_ = false;
      }
    }
    nodes_[index].ids = std::move(ids);
    return index;
  }
  const geo::Point c = box.center();
  const geo::BBox quads[4] = {
      {box.min_x, box.min_y, c.x, c.y},
      {c.x, box.min_y, box.max_x, c.y},
      {box.min_x, c.y, c.x, box.max_y},
      {c.x, c.y, box.max_x, box.max_y},
  };
  std::vector<std::uint32_t> parts[4];
  bool exact = true;
  for (const std::uint32_t id : ids) {
    const geo::Point p = points_[id];
    // Assign boundary points to exactly one quadrant (right/top wins).
    const int qx = p.x < c.x ? 0 : 1;
    const int qy = p.y < c.y ? 0 : 1;
    parts[qy * 2 + qx].push_back(id);
    // A point on the split line also lies in a sibling's closed box; one
    // outside bounds lies in no cell's box. Either breaks cells_exact().
    exact = exact && p.x != c.x && p.y != c.y && bounds_.contains(p);
  }
  cells_exact_ = cells_exact_ && exact;
  ids.clear();
  ids.shrink_to_fit();
  for (int q = 0; q < 4; ++q) {
    // Recursive build may reallocate nodes_, so write via index afterwards.
    const std::int32_t child = build(quads[q], std::move(parts[q]), depth + 1);
    nodes_[index].children[q] = child;
  }
  return index;
}

bool Quadtree::box_contains(const geo::BBox& outer, const geo::BBox& inner) {
  return outer.min_x <= inner.min_x && outer.min_y <= inner.min_y &&
         outer.max_x >= inner.max_x && outer.max_y >= inner.max_y;
}

bool Quadtree::box_intersects(const geo::BBox& a, const geo::BBox& b) {
  return a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y &&
         b.min_y <= a.max_y;
}

void Quadtree::count_rec(std::int32_t node, const geo::BBox& box,
                         std::size_t& acc) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!box_intersects(box, n.box) || n.count == 0) return;
  if (box_contains(box, n.box)) {
    acc += n.count;
    return;
  }
  if (n.is_leaf()) {
    for (const std::uint32_t id : n.ids) {
      if (box.contains(points_[id])) ++acc;
    }
    return;
  }
  for (const std::int32_t child : n.children) count_rec(child, box, acc);
}

void Quadtree::query_rec(std::int32_t node, const geo::BBox& box,
                         std::vector<std::uint32_t>& out) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!box_intersects(box, n.box) || n.count == 0) return;
  if (n.is_leaf()) {
    for (const std::uint32_t id : n.ids) {
      if (box.contains(points_[id])) out.push_back(id);
    }
    return;
  }
  for (const std::int32_t child : n.children) query_rec(child, box, out);
}

std::size_t Quadtree::count_in_box(const geo::BBox& box) const {
  std::size_t acc = 0;
  if (root_ >= 0) count_rec(root_, box, acc);
  return acc;
}

std::vector<std::uint32_t> Quadtree::query_box(const geo::BBox& box) const {
  std::vector<std::uint32_t> out;
  if (root_ >= 0) query_rec(root_, box, out);
  return out;
}

}  // namespace poiprivacy::spatial
