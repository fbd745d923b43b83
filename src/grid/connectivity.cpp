#include "grid/connectivity.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace ocp::grid {

namespace {

constexpr std::array<mesh::Coord, 8> kOffsets8 = {{
    {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}};

/// The component walker. Gathers the component of `seed` (a member the
/// caller has already claimed), appending it to `out`. `claim(c)` reports
/// whether `c` is a member not yet gathered and marks it gathered; that one
/// callback is all that differs between the bit-plane and byte-set callers.
template <typename Claim>
void gather_component(
    const mesh::Mesh2D& m, std::size_t degree, mesh::Coord seed, Claim&& claim,
    std::vector<std::pair<mesh::Coord, mesh::Coord>>& frontier,
    std::vector<std::pair<mesh::Coord, mesh::Coord>>& frame_to_cell,
    std::vector<Component>& out) {
  // Gather one component by BFS, assigning unwrapped frame coordinates as
  // we go. A component that wraps all the way around a torus ring meets
  // cells it already claimed and simply stops expanding there; the frame
  // then covers each physical cell once.
  frame_to_cell.clear();
  frontier.clear();
  frontier.push_back({seed, seed});
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [cell, frame] = frontier[head];
    frame_to_cell.emplace_back(frame, cell);
    for (std::size_t i = 0; i < degree; ++i) {
      const mesh::Coord off = kOffsets8[i];
      mesh::Coord next = cell + off;
      if (m.is_torus()) {
        next = m.wrap(next);
      } else if (!m.contains(next)) {
        continue;
      }
      if (!claim(next)) continue;
      frontier.push_back({next, frame + off});
    }
  }
  // Canonical row-major order on frame coordinates, keeping the physical
  // address of each frame cell aligned with Region's internal sort.
  if (frame_to_cell.size() > 1) {
    std::sort(frame_to_cell.begin(), frame_to_cell.end(),
              [](const auto& a, const auto& b) {
                return a.first.y < b.first.y ||
                       (a.first.y == b.first.y && a.first.x < b.first.x);
              });
  }
  Component comp;
  std::vector<mesh::Coord> frame_cells;
  frame_cells.reserve(frame_to_cell.size());
  // Physical addresses are materialized only when they can differ from the
  // frame (torus); on a mesh `Component::cells()` reuses the region cells.
  if (m.is_torus()) comp.mesh_cells.reserve(frame_to_cell.size());
  for (const auto& [frame, cell] : frame_to_cell) {
    frame_cells.push_back(frame);
    if (m.is_torus()) comp.mesh_cells.push_back(cell);
  }
  comp.region = geom::Region(std::move(frame_cells));
  out.push_back(std::move(comp));
}

}  // namespace

std::vector<Component> connected_components(BitPlane cells,
                                            Connectivity conn) {
  const mesh::Mesh2D& m = cells.topology();
  const std::size_t degree = conn == Connectivity::Four ? 4 : 8;
  std::vector<Component> out;
  out.reserve(cells.count());  // upper bound: one component per cell

  // BFS scratch, reused across components: `frontier` is a flat vector with
  // a read cursor (sparse fault patterns produce many small components, and
  // a fresh std::queue would pay one deque-block allocation for each).
  std::vector<std::pair<mesh::Coord, mesh::Coord>> frontier;
  std::vector<std::pair<mesh::Coord, mesh::Coord>> frame_to_cell;

  // `cells` holds the members not yet gathered: seeds come in row-major
  // order, and gathering clears bits.
  const auto claim = [&cells](mesh::Coord c) { return cells.take(c); };
  cells.for_each([&](mesh::Coord seed) {
    if (!claim(seed)) return;  // gathered from an earlier seed in its word
    gather_component(m, degree, seed, claim, frontier, frame_to_cell, out);
  });
  return out;
}

std::vector<Component> connected_components(const CellSet& cells,
                                            Connectivity conn) {
  BitPlane plane(cells.topology());
  plane.pack(cells.data());
  return connected_components(std::move(plane), conn);
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
    return cells.contains_index(m.index(c)) && claim(m.index(c));
  };
  for (const std::size_t seed : scratch.seeds_) {
    if (!claim(seed)) continue;
    gather_component(m, degree, m.coord(seed), claim_member,
                     scratch.frontier_, scratch.frame_to_cell_, out);
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
