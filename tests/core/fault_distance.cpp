#include "fault_distance.hpp"

#include "support/node_rounds.hpp"

namespace ocp::labeling {

grid::NodeGrid<FaultDistanceVector> compute_fault_distances(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety,
    sim::RoundStats* stats) {
  const FaultDistanceProtocol proto(faults, safety);
  auto result = sim::run_nodes(faults.topology(), proto);
  if (stats) *stats = result.stats;
  grid::NodeGrid<FaultDistanceVector> out(faults.topology());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.at_index(i) = result.states.at_index(i).vector;
  }
  return out;
}

namespace {

/// Direction of the positive step from `from` toward `to` along dimension
/// `dim` (callers guarantee the coordinates differ there).
mesh::Dir toward(mesh::Coord from, mesh::Coord to, mesh::Dim dim) {
  if (dim == mesh::Dim::X) {
    return to.x > from.x ? mesh::Dir::East : mesh::Dir::West;
  }
  return to.y > from.y ? mesh::Dir::North : mesh::Dir::South;
}

}  // namespace

bool l_path_certified(const grid::NodeGrid<FaultDistanceVector>& vectors,
                      const grid::NodeGrid<Safety>& safety, mesh::Coord src,
                      mesh::Coord dst) {
  const mesh::Mesh2D& m = safety.topology();
  if (!m.contains(src) || !m.contains(dst)) return false;
  if (safety[src] == Safety::Unsafe || safety[dst] == Safety::Unsafe) {
    return false;
  }
  const std::int32_t adx = std::abs(dst.x - src.x);
  const std::int32_t ady = std::abs(dst.y - src.y);
  if (adx == 0 && ady == 0) return true;

  // Straight-line cases.
  if (ady == 0) {
    return vectors[src][toward(src, dst, mesh::Dim::X)] >= adx;
  }
  if (adx == 0) {
    return vectors[src][toward(src, dst, mesh::Dim::Y)] >= ady;
  }

  // X-first L: row run covers the corner, then the corner's column run
  // covers the destination.
  const mesh::Coord corner_x{dst.x, src.y};
  const bool x_first =
      vectors[src][toward(src, dst, mesh::Dim::X)] >= adx &&
      vectors[corner_x][toward(corner_x, dst, mesh::Dim::Y)] >= ady;
  if (x_first) return true;

  // Y-first L.
  const mesh::Coord corner_y{src.x, dst.y};
  return vectors[src][toward(src, dst, mesh::Dim::Y)] >= ady &&
         vectors[corner_y][toward(corner_y, dst, mesh::Dim::X)] >= adx;
}

}  // namespace ocp::labeling
