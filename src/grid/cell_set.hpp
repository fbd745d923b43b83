// A subset of the nodes of a 2-D mesh, stored one bit per node.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "grid/bit_plane.hpp"
#include "mesh/mesh2d.hpp"

namespace ocp::grid {

/// Set of mesh nodes with O(1) membership and size, iterated a word at a
/// time. Used for fault sets, unsafe sets, disabled sets, and region
/// rasters. The members are a `BitPlane` (64 nodes to a word, pad bits
/// zero), which the labeling and the component walker read directly.
class CellSet {
 public:
  explicit CellSet(const mesh::Mesh2D& m) : bits_(m) {}

  /// Takes `bits` as the members and counts them.
  explicit CellSet(BitPlane bits)
      : bits_(std::move(bits)), count_(bits_.count()) {}

  /// Builds a set from an explicit list of member coordinates.
  CellSet(const mesh::Mesh2D& m, std::initializer_list<mesh::Coord> cells)
      : CellSet(m) {
    for (mesh::Coord c : cells) insert(c);
  }

  [[nodiscard]] const mesh::Mesh2D& topology() const noexcept {
    return bits_.topology();
  }

  /// The membership plane.
  [[nodiscard]] const BitPlane& bits() const noexcept { return bits_; }

  /// Membership; coordinates outside the mesh are never members.
  [[nodiscard]] bool contains(mesh::Coord c) const noexcept {
    return topology().contains(c) && bits_.contains(c);
  }

  void insert(mesh::Coord c) noexcept {
    assert(topology().contains(c));
    if (!bits_.contains(c)) {
      bits_.insert(c);
      ++count_;
    }
  }

  void erase(mesh::Coord c) noexcept {
    assert(topology().contains(c));
    if (bits_.take(c)) --count_;
  }

  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Materializes the members in row-major order.
  [[nodiscard]] std::vector<mesh::Coord> to_vector() const {
    std::vector<mesh::Coord> out;
    out.reserve(count_);
    bits_.for_each([&out](mesh::Coord c) { out.push_back(c); });
    return out;
  }

  /// Calls `fn(Coord)` for every member, row-major.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    bits_.for_each(fn);
  }

  /// Set union (topologies must match).
  CellSet& operator|=(const CellSet& other);
  /// Set difference (topologies must match).
  CellSet& operator-=(const CellSet& other);
  /// Set intersection (topologies must match).
  CellSet& operator&=(const CellSet& other);

  friend bool operator==(const CellSet&, const CellSet&) = default;

 private:
  /// Sets every word to `op(word, other's word)` and recounts.
  template <typename Op>
  CellSet& combine(const CellSet& other, Op op);

  BitPlane bits_;
  std::size_t count_ = 0;
};

}  // namespace ocp::grid
