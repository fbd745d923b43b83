// Connected-component extraction over mesh node sets.
#pragma once

#include <cstdint>
#include <span>
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

/// Extracts all connected components of `cells` under the given adjacency,
/// in deterministic (row-major seed) order. Connectivity follows the set's
/// topology: torus components may span wraparound links.
[[nodiscard]] std::vector<Component> connected_components(
    const CellSet& cells, Connectivity conn = Connectivity::Four);

/// The same extraction over a bit plane (consumed as the walker's
/// not-yet-gathered set): seeds by `countr_zero`, membership and visited as
/// bit tests.
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
  std::vector<std::pair<mesh::Coord, mesh::Coord>> frontier_;
  std::vector<std::pair<mesh::Coord, mesh::Coord>> frame_to_cell_;
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
