#include "core/reference.hpp"

namespace ocp::labeling {

namespace {

/// Safety of a (possibly out-of-mesh) coordinate: ghost nodes and torus
/// wraparound are resolved here so the rule code reads like the definitions.
Safety safety_at(const grid::NodeGrid<Safety>& g, mesh::Coord c) {
  const mesh::Mesh2D& m = g.topology();
  if (m.contains(c)) return g[c];
  if (m.is_torus()) return g[m.wrap(c)];
  return Safety::Safe;  // ghost
}

Activation activation_at(const grid::NodeGrid<Activation>& g, mesh::Coord c) {
  const mesh::Mesh2D& m = g.topology();
  if (m.contains(c)) return g[c];
  if (m.is_torus()) return g[m.wrap(c)];
  return Activation::Enabled;  // ghost
}

/// Definition 2a/2b: does the unsafe rule fire for nonfaulty node `c` under
/// the current safety labeling?
bool rule_fires(SafeUnsafeDef def, const grid::NodeGrid<Safety>& safety,
                mesh::Coord c) {
  if (def == SafeUnsafeDef::Def2a) {
    int unsafe_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (safety_at(safety, c.step(d)) == Safety::Unsafe) {
        ++unsafe_neighbors;
      }
    }
    return unsafe_neighbors >= 2;
  }
  const bool ux =
      safety_at(safety, c.step(mesh::Dir::East)) == Safety::Unsafe ||
      safety_at(safety, c.step(mesh::Dir::West)) == Safety::Unsafe;
  const bool uy =
      safety_at(safety, c.step(mesh::Dir::North)) == Safety::Unsafe ||
      safety_at(safety, c.step(mesh::Dir::South)) == Safety::Unsafe;
  return ux && uy;
}

}  // namespace

std::size_t close_safety(const grid::CellSet& faults, SafeUnsafeDef def,
                         grid::NodeGrid<Safety>& safety,
                         std::vector<mesh::Coord>& worklist) {
  const mesh::Mesh2D& m = faults.topology();
  const std::size_t seeds = worklist.size();
  // The worklist is a flat vector with a read cursor: FIFO order without a
  // deque's allocations, and what it holds past the seeds are the flips.
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    for (const mesh::Link& l : m.neighbors(worklist[head])) {
      if (safety[l.to] == Safety::Unsafe || faults.contains(l.to)) continue;
      if (rule_fires(def, safety, l.to)) {
        safety[l.to] = Safety::Unsafe;
        worklist.push_back(l.to);
      }
    }
  }
  return worklist.size() - seeds;
}

void close_activation(const grid::CellSet& faults,
                      const grid::NodeGrid<Safety>& safety,
                      grid::NodeGrid<Activation>& act,
                      std::span<const mesh::Coord> candidates,
                      std::vector<mesh::Coord>& worklist) {
  const mesh::Mesh2D& m = faults.topology();
  const auto can_enable = [&](mesh::Coord c) {
    if (faults.contains(c)) return false;
    if (safety[c] == Safety::Safe) return false;       // already enabled
    if (act[c] == Activation::Enabled) return false;   // monotone
    int enabled_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (activation_at(act, c.step(d)) == Activation::Enabled) {
        ++enabled_neighbors;
      }
    }
    return enabled_neighbors >= 2;
  };

  worklist.clear();
  for (mesh::Coord c : candidates) {
    if (can_enable(c)) {
      act[c] = Activation::Enabled;
      worklist.push_back(c);
    }
  }
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    for (const mesh::Link& l : m.neighbors(worklist[head])) {
      if (can_enable(l.to)) {
        act[l.to] = Activation::Enabled;
        worklist.push_back(l.to);
      }
    }
  }
}

grid::NodeGrid<Safety> reference_safety(const grid::CellSet& faults,
                                        SafeUnsafeDef def) {
  grid::NodeGrid<Safety> safety(faults.topology(), Safety::Safe);
  std::vector<mesh::Coord> worklist;
  worklist.reserve(faults.size());
  faults.for_each([&](mesh::Coord c) {
    safety[c] = Safety::Unsafe;
    worklist.push_back(c);
  });
  close_safety(faults, def, safety, worklist);
  return safety;
}

grid::NodeGrid<Activation> reference_activation(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety) {
  const mesh::Mesh2D& m = faults.topology();
  grid::NodeGrid<Activation> act(m, Activation::Enabled);

  // Initialization: unsafe -> disabled (faulty nodes are unsafe and stay
  // disabled forever); safe -> enabled. Only unsafe cells can fire.
  std::vector<mesh::Coord> unsafe;
  for (std::size_t i = 0; i < act.size(); ++i) {
    if (safety.at_index(i) == Safety::Unsafe) {
      act.at_index(i) = Activation::Disabled;
      unsafe.push_back(m.coord(i));
    }
  }
  std::vector<mesh::Coord> worklist;
  close_activation(faults, safety, act, unsafe, worklist);
  return act;
}

}  // namespace ocp::labeling
