// Directional fault-distance vectors — the aggregated fault information
// that limited-global-information routing schemes (Wu's extended safety
// levels [9] and successors) build on.
//
// Every nonfaulty node learns, for each of the four directions, how many
// hops its straight row/column run extends before hitting an unsafe node
// (or the machine boundary). The information is gathered the same way the
// labeling itself is: iterative message exchanges with neighbors, one hop
// of extra visibility per round. With these vectors a source can locally
// certify minimal L-shaped paths (see `l_path_certified`), which is the
// mechanism behind minimal routing with limited fault information.
//
// Only tests use it, so it is built with them and not into the library.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "core/status.hpp"
#include "grid/cell_set.hpp"
#include "grid/node_grid.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::labeling {

/// Per-direction clear-run lengths. `run[d]` counts the consecutive
/// non-unsafe nodes strictly in direction `d` before the first unsafe node;
/// runs ending at the machine boundary are clamped to `kUnbounded` (no
/// unsafe node that way at all).
struct FaultDistanceVector {
  static constexpr std::int32_t kUnbounded =
      std::numeric_limits<std::int32_t>::max() / 2;

  std::array<std::int32_t, mesh::kNumDirs> run{};

  [[nodiscard]] std::int32_t operator[](mesh::Dir d) const noexcept {
    return run[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] std::int32_t& operator[](mesh::Dir d) noexcept {
    return run[static_cast<std::size_t>(d)];
  }

  friend constexpr bool operator==(const FaultDistanceVector&,
                                   const FaultDistanceVector&) = default;
};

/// Node-local protocol computing the vectors by neighbor exchanges. State
/// values only ever decrease (they start unbounded), so the computation is
/// monotone and schedule-independent like the labeling itself.
class FaultDistanceProtocol {
 public:
  struct State {
    Safety safety = Safety::Safe;
    Health health = Health::Nonfaulty;
    FaultDistanceVector vector;

    friend constexpr bool operator==(const State&, const State&) = default;
  };
  struct Message {
    Safety safety = Safety::Safe;
    FaultDistanceVector vector;
  };

  FaultDistanceProtocol(const grid::CellSet& faults,
                        const grid::NodeGrid<Safety>& safety)
      : faults_(&faults), safety_(&safety) {}

  [[nodiscard]] State init(mesh::Coord c) const {
    State s;
    s.health = faults_->contains(c) ? Health::Faulty : Health::Nonfaulty;
    s.safety = (*safety_)[c];
    s.vector.run.fill(FaultDistanceVector::kUnbounded);
    return s;
  }

  [[nodiscard]] Message announce(const State& s) const {
    return {s.safety, s.vector};
  }

  /// Ghost nodes are safe with unbounded runs (a run reaching the mesh
  /// boundary never meets an unsafe node).
  [[nodiscard]] Message ghost_message() const {
    Message msg;
    msg.vector.run.fill(FaultDistanceVector::kUnbounded);
    return msg;
  }

  [[nodiscard]] bool participates(const State& s) const noexcept {
    return s.health == Health::Nonfaulty;
  }

  [[nodiscard]] bool update(State& s, const sim::Inbox<Message>& inbox) const {
    bool changed = false;
    for (mesh::Dir d : mesh::kAllDirs) {
      const Message& m = inbox[d];
      const std::int32_t candidate =
          m.safety == Safety::Unsafe
              ? 0
              : std::min(FaultDistanceVector::kUnbounded, m.vector[d] + 1);
      if (candidate < s.vector[d]) {
        s.vector[d] = candidate;
        changed = true;
      }
    }
    return changed;
  }

 private:
  const grid::CellSet* faults_;           // non-owning
  const grid::NodeGrid<Safety>* safety_;  // non-owning
};

static_assert(sim::SyncProtocol<FaultDistanceProtocol>);

/// Convenience: runs the protocol to quiescence and extracts the vectors
/// (faulty nodes keep all-unbounded placeholders).
[[nodiscard]] grid::NodeGrid<FaultDistanceVector> compute_fault_distances(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety,
    sim::RoundStats* stats = nullptr);

/// Certifies a minimal L-shaped path from `src` to `dst` (one dimension
/// fully corrected, then the other) using only the vectors at `src` and at
/// the turning corner. Sufficient, not necessary: a certified pair always
/// has a minimal path over non-unsafe nodes, but staircase paths are not
/// covered. This is the locally-checkable test limited-information routing
/// uses before committing to a minimal route.
[[nodiscard]] bool l_path_certified(
    const grid::NodeGrid<FaultDistanceVector>& vectors,
    const grid::NodeGrid<Safety>& safety, mesh::Coord src, mesh::Coord dst);

}  // namespace ocp::labeling
