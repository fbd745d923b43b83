#include "grid/connectivity.hpp"

#include <algorithm>
#include <utility>

namespace ocp::grid {

std::vector<Component> connected_components(BitPlane cells,
                                            Connectivity conn) {
  std::vector<Component> out;
  out.reserve(cells.run_starts());
  gather_components(
      std::move(cells), conn,
      [&out](mesh::Coord) -> Component& { return out.emplace_back(); },
      [](mesh::Coord) {});
  return out;
}

std::vector<Component> connected_components(const CellSet& cells,
                                            Connectivity conn) {
  return connected_components(cells.bits(), conn);
}

std::vector<Component> connected_components_seeded(
    const CellSet& cells, Connectivity conn,
    std::span<const mesh::Coord> candidates, ComponentScratch& scratch) {
  const mesh::Mesh2D& m = cells.topology();
  const std::size_t degree = conn == Connectivity::Four ? 4 : 8;
  // The visited plane grows zeroed and is restored to zeros on return, so
  // across calls it stays all-zero without a per-call O(mesh) clear.
  scratch.seen_.resize(static_cast<std::size_t>(m.node_count()), 0);
  scratch.touched_.clear();

  // Deduplicated member seeds in row-major index order: the same seed order
  // `connected_components` derives from its full-grid sweep.
  scratch.seeds_.clear();
  for (const mesh::Coord c : candidates) {
    if (cells.contains(c)) scratch.seeds_.push_back(m.index(c));
  }
  std::sort(scratch.seeds_.begin(), scratch.seeds_.end());
  scratch.seeds_.erase(
      std::unique(scratch.seeds_.begin(), scratch.seeds_.end()),
      scratch.seeds_.end());

  std::vector<Component> out;
  out.reserve(scratch.seeds_.size());
  // Visited cells are recorded in `touched_` so `seen_` is restored in
  // O(components) instead of O(mesh).
  const auto claim = [&](std::size_t i) {
    if (scratch.seen_[i] != 0) return false;
    scratch.seen_[i] = 1;
    scratch.touched_.push_back(i);
    return true;
  };
  const auto claim_member = [&](mesh::Coord c) {
    return cells.contains(c) && claim(m.index(c));
  };
  for (const std::size_t seed : scratch.seeds_) {
    if (!claim(seed)) continue;
    detail::gather_component(m, degree, m.coord(seed), claim_member,
                             [](mesh::Coord) {}, scratch.frontier_,
                             out.emplace_back());
  }
  for (const std::size_t i : scratch.touched_) scratch.seen_[i] = 0;
  return out;
}

std::vector<geom::Region> component_regions(const CellSet& cells,
                                            Connectivity conn) {
  std::vector<geom::Region> out;
  for (auto& comp : connected_components(cells, conn)) {
    out.push_back(std::move(comp.region));
  }
  return out;
}

}  // namespace ocp::grid
