// A finite set of lattice nodes treated as a rectilinear polygon.
//
// Faulty blocks and disabled regions (Wu, IPPS 2001) are regions in this
// sense: sets of nodes whose boundary lines are horizontal or vertical. For
// torus machines, connected components are *unwrapped* into a planar frame
// before being stored here, so all geometry below is planar.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "mesh/coord.hpp"

namespace ocp::geom {

/// Lattice adjacency notion. `Four` is mesh-link adjacency; `Eight` adds the
/// diagonals. Fault regions (disabled regions) are grouped 8-connected while
/// the enabled regions separating them are 4-connected — the usual digital
/// topology duality (see grid::connected_components).
enum class Connectivity : std::uint8_t { Four = 4, Eight = 8 };

/// An immutable set of lattice cells with O(log n) membership and a cached
/// bounding box. Cells are kept sorted by (y, x) — row-major.
///
/// Storage. A region of two or more cells keeps them in a heap vector. A
/// one-cell region keeps its cell only in the bounding box (lo == hi) and
/// `cells()` is a one-element span of `bbox_.lo`, so it costs no heap
/// allocation: sparse fault patterns extract thousands of them. The empty
/// region has no cells and an inverted bounding box (hi < lo), which is how
/// it differs from a one-cell region without a flag. A consequence: a
/// `cells()` span of a one-cell region points into the region object itself,
/// so it dangles once that object is moved or destroyed (say, by the growth
/// of a vector that holds it), where a vector's span would survive a move.
class Region {
 public:
  Region() = default;

  /// The one-cell region {c}.
  explicit Region(mesh::Coord c) noexcept : bbox_(Rect::cell(c)) {}
  /// Builds a region from arbitrary-order cells; duplicates are removed.
  explicit Region(std::vector<mesh::Coord> cells);
  Region(std::initializer_list<mesh::Coord> cells);

  /// Adopts cells that are already row-major sorted and duplicate-free,
  /// skipping the sort (the component walker sorts its cells once).
  [[nodiscard]] static Region from_sorted(std::vector<mesh::Coord> cells);

  [[nodiscard]] std::size_t size() const noexcept { return cells().size(); }
  [[nodiscard]] bool empty() const noexcept { return cells().empty(); }

  /// Row-major (y, then x) sorted cells.
  [[nodiscard]] std::span<const mesh::Coord> cells() const noexcept {
    if (!cells_.empty()) return cells_;
    return {&bbox_.lo, bbox_.lo == bbox_.hi ? 1u : 0u};
  }

  [[nodiscard]] bool contains(mesh::Coord c) const noexcept;

  /// Bounding box; valid only for non-empty regions.
  [[nodiscard]] const Rect& bounding_box() const noexcept { return bbox_; }

  /// True when the region fills its bounding box exactly (the paper's
  /// faulty-block shape).
  [[nodiscard]] bool is_rectangle() const noexcept {
    return !empty() &&
           static_cast<std::int64_t>(size()) == bbox_.area();
  }

  /// L1 diameter d(B): the maximum Manhattan distance between two cells.
  /// Computed in O(n) via the rotated-coordinate identity
  /// |dx| + |dy| = max(|d(x+y)|, |d(x-y)|).
  [[nodiscard]] std::int32_t diameter() const noexcept;

  /// True when the cells form a single connected component under `conn`.
  [[nodiscard]] bool is_connected(
      Connectivity conn = Connectivity::Four) const;

  /// Number of connected components under `conn` (0 for the empty region).
  [[nodiscard]] std::size_t component_count(
      Connectivity conn = Connectivity::Four) const;

  /// Minimum pairwise L1 distance to another region (brute force; intended
  /// for tests and small regions).
  [[nodiscard]] std::int32_t distance_to(const Region& other) const;

  /// Cells of `this` that are not in `other`.
  [[nodiscard]] Region difference(const Region& other) const;

  /// Union with another region.
  [[nodiscard]] Region united(const Region& other) const;

  friend bool operator==(const Region& a, const Region& b) {
    return std::ranges::equal(a.cells(), b.cells());
  }

  /// Multi-line ASCII raster ('#' in-region, '.' outside) over the bounding
  /// box, top row = max y. For debugging and example programs.
  [[nodiscard]] std::string to_ascii() const;

 private:
  /// Sets `bbox_` from `cells_`, moving a lone cell into it.
  void finish();

  /// Two or more cells; empty for the empty and the one-cell region.
  std::vector<mesh::Coord> cells_;
  Rect bbox_{{0, 0}, {-1, -1}};
};

std::ostream& operator<<(std::ostream& os, const Region& r);

}  // namespace ocp::geom
