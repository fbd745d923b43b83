#include "mesh/adjacency.hpp"

#include <memory>

namespace ocp::mesh {

AdjacencyTable::AdjacencyTable(const Mesh2D& m)
    : mesh_(m), node_count_(static_cast<std::size_t>(m.node_count())) {
  const std::int32_t w = m.width();
  const std::int32_t h = m.height();
  const bool torus = m.is_torus();

  dir_nbr_.resize(node_count_ * kNumDirs);
  offsets_.resize(node_count_ + 1);
  targets_.reserve(node_count_ * kNumDirs);

  // Closed-form neighbor indices in the row-major layout: East/West are
  // +/-1, North/South are +/-width; boundary nodes wrap (torus) or get the
  // ghost sentinel (open mesh). Matches `Mesh2D::neighbor` exactly (asserted
  // in tests) without its per-query coordinate math.
  const std::int32_t wrap_x = torus ? w - 1 : kGhost;
  const std::int32_t wrap_y = torus ? (h - 1) * w : kGhost;

  std::int32_t filled = 0;
  std::int32_t i = 0;
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x, ++i) {
      offsets_[static_cast<std::size_t>(i)] = filled;
      std::int32_t* row = &dir_nbr_[static_cast<std::size_t>(i) * kNumDirs];
      row[static_cast<std::size_t>(Dir::East)] =
          x + 1 < w ? i + 1 : (torus ? i - wrap_x : kGhost);
      row[static_cast<std::size_t>(Dir::West)] =
          x > 0 ? i - 1 : (torus ? i + wrap_x : kGhost);
      row[static_cast<std::size_t>(Dir::North)] =
          y + 1 < h ? i + w : (torus ? i - wrap_y : kGhost);
      row[static_cast<std::size_t>(Dir::South)] =
          y > 0 ? i - w : (torus ? i + wrap_y : kGhost);
      for (std::size_t slot = 0; slot < kNumDirs; ++slot) {
        if (row[slot] != kGhost) {
          targets_.push_back(row[slot]);
          ++filled;
        }
      }
    }
  }
  offsets_[node_count_] = filled;
}

const AdjacencyTable& AdjacencyTable::cached(const Mesh2D& m) {
  // One-entry per-thread cache: experiment sweeps run thousands of pipelines
  // on a single machine shape, and OpenMP trial workers each get their own
  // slot so no synchronization is needed.
  thread_local std::unique_ptr<AdjacencyTable> cache;
  if (!cache || !(cache->mesh() == m)) {
    cache = std::make_unique<AdjacencyTable>(m);
  }
  return *cache;
}

}  // namespace ocp::mesh
