// Connected-component extraction over mesh node sets.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/region.hpp"
#include "grid/bit_plane.hpp"
#include "grid/cell_set.hpp"

namespace ocp::grid {

/// Adjacency notion used when grouping cells into components.
///
/// Faulty blocks use `Four` (mesh links; under Definitions 2a/2b diagonal
/// contact between unsafe sets cannot occur, so Four and Eight coincide).
/// Disabled regions use `Eight`: the paper's section 3 example — faults
/// (1,3), (2,1), (3,2) yielding the two disabled regions {(1,3)} and
/// {(2,1), (3,2)} — groups the diagonal pair (2,1)/(3,2) into one region,
/// which is exactly 8-connectivity.
using Connectivity = geom::Connectivity;

/// A connected component of a `CellSet`, described both as mesh cells and as
/// a planar region. On a torus, a component may cross wraparound links; it is
/// *unwrapped* into a planar frame (BFS from a seed, each hop shifting the
/// frame coordinate) so that rectilinear geometry applies unchanged. On a
/// mesh, frame coordinates equal mesh coordinates.
struct Component {
  /// Planar (possibly unwrapped) footprint; use for all geometry.
  geom::Region region;
  /// Physical addresses parallel to `region.cells()`, stored only when they
  /// differ from the frame (torus). Empty on a mesh — use `cells()`, which
  /// falls back to the region cells. Sparse fault patterns produce thousands
  /// of components per extraction, so not materializing the duplicate vector
  /// halves the allocation cost of the common case.
  std::vector<mesh::Coord> mesh_cells;

  /// The physical addresses of the component's cells, parallel to
  /// `region.cells()`.
  [[nodiscard]] std::span<const mesh::Coord> cells() const noexcept {
    return mesh_cells.empty() ? region.cells()
                              : std::span<const mesh::Coord>(mesh_cells);
  }
};

namespace detail {

inline constexpr std::array<mesh::Coord, 8> kOffsets8 = {{
    {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}};

/// BFS work list of (physical cell, frame cell) pairs, reused across
/// components so that a component costs no allocation beyond its own cells.
using Frontier = std::vector<std::pair<mesh::Coord, mesh::Coord>>;

/// Stores the one-cell component {seed}: no heap cell list, plus the
/// physical address on a torus (see `Component::mesh_cells`).
inline void set_single(const mesh::Mesh2D& m, mesh::Coord seed,
                       Component& out) {
  out.region = geom::Region(seed);
  if (m.is_torus()) out.mesh_cells.assign(1, seed);
}

/// True when `c` has no member of `plane` among its 4 neighbours (8 with
/// `diagonals`), decided from the three row words that hold them. Answers
/// false, meaning "walk it", when the neighbourhood crosses a word boundary
/// or a torus seam.
inline bool lone_in_word(const BitPlane& plane, mesh::Coord c,
                         bool diagonals) noexcept {
  const mesh::Mesh2D& m = plane.topology();
  const auto k = static_cast<std::size_t>(c.x) / 64;
  const auto b = static_cast<unsigned>(c.x) % 64;
  if (b == 0 || b == 63) return false;
  if (m.is_torus() &&
      (c.x == m.width() - 1 || c.y == 0 || c.y == m.height() - 1)) {
    return false;
  }
  // Columns x-1..x+1 land on bits 0..2. On a mesh, column x+1 past the
  // last column is a pad bit, which is zero.
  const std::uint64_t vertical = diagonals ? 0b111 : 0b010;
  std::uint64_t near = plane.row(c.y)[k] >> (b - 1) & 0b101;
  if (c.y > 0) near |= plane.row(c.y - 1)[k] >> (b - 1) & vertical;
  if (c.y + 1 < m.height()) {
    near |= plane.row(c.y + 1)[k] >> (b - 1) & vertical;
  }
  return near == 0;
}

/// The component walker. Gathers the component of `seed` (a member the
/// caller has already claimed) into `out`, calling `visit(cell)` with the
/// physical address of each cell as it is gathered. `claim(c)` reports
/// whether `c` is a member not yet gathered and marks it gathered; that one
/// callback is all that differs between the bit-plane and byte-set callers.
template <typename Claim, typename Visit>
void gather_component(const mesh::Mesh2D& m, std::size_t degree,
                      mesh::Coord seed, Claim&& claim, Visit&& visit,
                      Frontier& frontier, Component& out) {
  // BFS, assigning unwrapped frame coordinates as we go. A component that
  // wraps all the way around a torus ring meets cells it already claimed
  // and simply stops expanding there; the frame then covers each physical
  // cell once.
  frontier.clear();
  frontier.push_back({seed, seed});
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [cell, frame] = frontier[head];
    visit(cell);
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
  // Physical addresses are materialized only when they can differ from the
  // frame (torus); on a mesh `Component::cells()` reuses the region cells.
  if (frontier.size() == 1) {
    set_single(m, seed, out);
    return;
  }
  // The finished frontier is the cell list: sorted once into canonical
  // row-major frame order, which keeps each physical address aligned with
  // its frame cell. Frames are distinct, so the order is total.
  std::sort(frontier.begin(), frontier.end(),
            [](const auto& a, const auto& b) {
              return a.second.y < b.second.y ||
                     (a.second.y == b.second.y && a.second.x < b.second.x);
            });
  std::vector<mesh::Coord> frame_cells(frontier.size());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    frame_cells[i] = frontier[i].second;
  }
  if (m.is_torus()) {
    out.mesh_cells.resize(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      out.mesh_cells[i] = frontier[i].first;
    }
  }
  out.region = geom::Region::from_sorted(std::move(frame_cells));
}

}  // namespace detail

/// Builds every connected component of `cells` (consumed as the walker's
/// not-yet-gathered set) in place, in deterministic row-major seed order:
/// for each component, `emit(seed)` returns the `Component&` to fill, and
/// `visit(cell)` is called with each of its physical cells as the walk
/// reaches it (before the component is filled), so callers can keep
/// per-component counts without a second pass. Seeds come by
/// `countr_zero`; membership and visited are bit tests. Connectivity
/// follows the set's topology: torus components may span wraparound links.
template <typename Emit, typename Visit>
void gather_components(BitPlane cells, Connectivity conn, Emit&& emit,
                       Visit&& visit) {
  const mesh::Mesh2D& m = cells.topology();
  const std::size_t degree = conn == Connectivity::Four ? 4 : 8;
  detail::Frontier frontier;
  const auto claim = [&cells](mesh::Coord c) { return cells.take(c); };
  cells.for_each([&](mesh::Coord seed) {
    if (!claim(seed)) return;  // gathered from an earlier seed in its word
    Component& out = emit(seed);
    // Most components of a sparse plane are lone cells; a word test settles
    // those without probing the neighbours one by one.
    if (detail::lone_in_word(cells, seed, conn == Connectivity::Eight)) {
      visit(seed);
      detail::set_single(m, seed, out);
      return;
    }
    detail::gather_component(m, degree, seed, claim, visit, frontier, out);
  });
}

/// Extracts all connected components of `cells` under the given adjacency,
/// in deterministic (row-major seed) order. Connectivity follows the set's
/// topology: torus components may span wraparound links.
[[nodiscard]] std::vector<Component> connected_components(
    const CellSet& cells, Connectivity conn = Connectivity::Four);

/// The same extraction over a bit plane (`gather_components` into a vector).
[[nodiscard]] std::vector<Component> connected_components(
    BitPlane cells, Connectivity conn = Connectivity::Four);

/// Reusable state for `connected_components_seeded`: a visited plane that is
/// restored to all-zeros before each call returns, plus the BFS work
/// vectors. Lets per-event extractions over small dirty areas cost O(area)
/// instead of O(mesh) — no full-grid scan, no fresh zeroed allocation.
class ComponentScratch {
 public:
  ComponentScratch() = default;

 private:
  friend std::vector<Component> connected_components_seeded(
      const CellSet&, Connectivity, std::span<const mesh::Coord>,
      ComponentScratch&);
  std::vector<std::uint8_t> seen_;
  std::vector<std::size_t> seeds_;
  std::vector<std::size_t> touched_;
  detail::Frontier frontier_;
};

/// `connected_components` restricted to the components that contain at least
/// one of `candidates`. When `candidates` covers every member of `cells`
/// (the incremental-relabeling case: the set holds only a dirty area's
/// cells), the result is bit-identical to the full extraction — seeds are
/// deduplicated and processed in the same row-major order, and the BFS is
/// the same walker. Candidates outside the set are ignored; components are
/// still explored to their full extent within `cells`.
[[nodiscard]] std::vector<Component> connected_components_seeded(
    const CellSet& cells, Connectivity conn,
    std::span<const mesh::Coord> candidates, ComponentScratch& scratch);

/// Convenience: just the planar regions of `connected_components`.
[[nodiscard]] std::vector<geom::Region> component_regions(
    const CellSet& cells, Connectivity conn = Connectivity::Four);

}  // namespace ocp::grid
