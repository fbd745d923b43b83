// Sequential reference implementations of the two labeling fixpoints.
//
// These compute the same labelings as the distributed protocols via a
// centralized worklist, in O(N) per phase. They exist to cross-validate the
// word-round evaluator (tests assert equality on random instances), and
// their seeded closures are the incremental maintenance's relabeling step
// (src/core/maintenance): the only sequential closure of Definitions 2a/2b
// and 3 in the library.
#pragma once

#include <span>
#include <vector>

#include "core/status.hpp"
#include "grid/cell_set.hpp"
#include "grid/node_grid.hpp"

namespace ocp::labeling {

/// Safe/unsafe fixpoint of Definition 2a or 2b for the given fault set.
[[nodiscard]] grid::NodeGrid<Safety> reference_safety(
    const grid::CellSet& faults, SafeUnsafeDef def);

/// Enabled/disabled fixpoint of Definition 3 on top of a safety labeling.
[[nodiscard]] grid::NodeGrid<Activation> reference_activation(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety);

/// Closes Definition 2a/2b's unsafe rule from the unsafe cells in
/// `worklist` (a chaotic iteration of a monotone rule: every cell that
/// turns unsafe is appended and its neighbors re-examined). Cells outside
/// the seeds' reach are not visited. Returns the number of cells it turned
/// unsafe.
std::size_t close_safety(const grid::CellSet& faults, SafeUnsafeDef def,
                         grid::NodeGrid<Safety>& safety,
                         std::vector<mesh::Coord>& worklist);

/// Closes Definition 3's enabling rule: fires every cell of `candidates`
/// that can enable under `act`, then re-examines the neighbors of every
/// cell it enabled until nothing fires. Only unsafe nonfaulty cells that
/// `act` holds disabled can fire. `worklist` is scratch.
void close_activation(const grid::CellSet& faults,
                      const grid::NodeGrid<Safety>& safety,
                      grid::NodeGrid<Activation>& act,
                      std::span<const mesh::Coord> candidates,
                      std::vector<mesh::Coord>& worklist);

}  // namespace ocp::labeling
