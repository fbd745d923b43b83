// Precomputed flat adjacency of a 2-D mesh / torus (CSR layout).
//
// `Mesh2D::neighbor()` answers one query with coordinate arithmetic, bounds
// checks and an `std::optional` — fine for geometry code, too slow for the
// labeling round loop that asks the same four questions for every node every
// round. An `AdjacencyTable` asks them once per node at construction and
// stores the answers as flat index arrays, so the hot loop is pure index
// arithmetic over contiguous memory:
//
//  * `dir_row(i)` — four `std::int32_t` per node in `kAllDirs` order; the
//    neighbor's dense index, or `kGhost` where the open-mesh boundary
//    substitutes a ghost node (paper, section 3).
//  * `physical_neighbors(i)` — CSR (offsets + targets) over the 2..4 real
//    links, for frontier expansion and message accounting.
//
// The table is immutable and valid for exactly the `Mesh2D` it was built
// from (which it stores by value; a `Mesh2D` is three ints).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh2d.hpp"

namespace ocp::mesh {

class AdjacencyTable {
 public:
  /// Sentinel in `dir_row`: no physical neighbor in that direction (the
  /// open-mesh ghost frame). Never appears on a torus.
  static constexpr std::int32_t kGhost = -1;

  explicit AdjacencyTable(const Mesh2D& m);

  /// Thread-local one-entry cache: returns a table for `m`, rebuilding only
  /// when the calling thread last asked for a *different* machine. The
  /// reference stays valid until this thread's next `cached()` call with
  /// another mesh — callers must not hold it across such calls.
  [[nodiscard]] static const AdjacencyTable& cached(const Mesh2D& m);

  [[nodiscard]] const Mesh2D& mesh() const noexcept { return mesh_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_count_;
  }

  /// The four per-direction entries of node `i`, in `kAllDirs` order.
  [[nodiscard]] const std::int32_t* dir_row(std::size_t i) const noexcept {
    assert(i < node_count_);
    return &dir_nbr_[i * kNumDirs];
  }

  /// Dense index of the neighbor of `i` in direction `d`, or `kGhost`.
  [[nodiscard]] std::int32_t neighbor_index(std::size_t i,
                                            Dir d) const noexcept {
    return dir_row(i)[static_cast<std::size_t>(d)];
  }

  /// Number of physical links of node `i` (2..4 on a mesh, 4 on a torus).
  [[nodiscard]] std::int32_t degree(std::size_t i) const noexcept {
    assert(i < node_count_);
    return offsets_[i + 1] - offsets_[i];
  }

  /// Dense indices of the physical neighbors of `i` (CSR slice).
  [[nodiscard]] std::span<const std::int32_t> physical_neighbors(
      std::size_t i) const noexcept {
    assert(i < node_count_);
    return {targets_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// Sum of all node degrees (= directed link count).
  [[nodiscard]] std::uint64_t total_degree() const noexcept {
    return targets_.size();
  }

 private:
  Mesh2D mesh_;
  std::size_t node_count_;
  std::vector<std::int32_t> dir_nbr_;    // node_count * kNumDirs, kGhost holes
  std::vector<std::int32_t> offsets_;    // node_count + 1
  std::vector<std::int32_t> targets_;    // total_degree()
};

}  // namespace ocp::mesh
