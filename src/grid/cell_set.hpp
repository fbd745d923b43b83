// A subset of the nodes of a 2-D mesh, stored as a dense bit grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mesh/mesh2d.hpp"

namespace ocp::grid {

/// Set of mesh nodes with O(1) membership and cheap iteration. Used for fault
/// sets, unsafe sets, disabled sets, and region rasters.
class CellSet {
 public:
  explicit CellSet(const mesh::Mesh2D& m)
      : mesh_(m), bits_(static_cast<std::size_t>(m.node_count()), 0) {}

  /// Builds a set from an explicit list of member coordinates.
  CellSet(const mesh::Mesh2D& m, std::initializer_list<mesh::Coord> cells)
      : CellSet(m) {
    for (mesh::Coord c : cells) insert(c);
  }

  [[nodiscard]] const mesh::Mesh2D& topology() const noexcept { return mesh_; }

  /// Membership; coordinates outside the mesh are never members.
  [[nodiscard]] bool contains(mesh::Coord c) const noexcept {
    return mesh_.contains(c) && bits_[mesh_.index(c)] != 0;
  }

  /// Membership by dense row-major index (no coordinate arithmetic).
  [[nodiscard]] bool contains_index(std::size_t i) const noexcept {
    return bits_[i] != 0;
  }

  /// The membership plane: one 0/1 byte per node, row-major.
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bits_.data();
  }

  void insert(mesh::Coord c) noexcept {
    if (bits_[mesh_.index(c)] == 0) {
      bits_[mesh_.index(c)] = 1;
      ++count_;
    }
  }

  /// Insertion by dense row-major index (no coordinate arithmetic).
  void insert_index(std::size_t i) noexcept {
    if (bits_[i] == 0) {
      bits_[i] = 1;
      ++count_;
    }
  }

  void erase(mesh::Coord c) noexcept {
    if (bits_[mesh_.index(c)] != 0) {
      bits_[mesh_.index(c)] = 0;
      --count_;
    }
  }

  void clear() noexcept {
    std::fill(bits_.begin(), bits_.end(), std::uint8_t{0});
    count_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Materializes the members in row-major order.
  [[nodiscard]] std::vector<mesh::Coord> to_vector() const {
    std::vector<mesh::Coord> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i] != 0) out.push_back(mesh_.coord(i));
    }
    return out;
  }

  /// Calls `fn(Coord)` for every member, row-major.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i] != 0) fn(mesh_.coord(i));
    }
  }

  /// Set union (topologies must match).
  CellSet& operator|=(const CellSet& other);
  /// Set difference (topologies must match).
  CellSet& operator-=(const CellSet& other);
  /// Set intersection (topologies must match).
  CellSet& operator&=(const CellSet& other);

  friend bool operator==(const CellSet&, const CellSet&) = default;

 private:
  mesh::Mesh2D mesh_;
  std::vector<std::uint8_t> bits_;
  std::size_t count_ = 0;
};

}  // namespace ocp::grid
