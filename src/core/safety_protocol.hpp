// Phase one: distributed safe/unsafe labeling (Definitions 2a / 2b).
//
//   all faulty nodes are initialized to unsafe;
//   all nonfaulty nodes are initialized to safe;
//   repeat
//     doall (1) nonfaulty node u exchanges its status with its neighbors;
//           (2) change u's status to unsafe if <rule>
//     odall
//   until there is no status change
//
// where <rule> is "u has two or more unsafe neighbors" (Def 2a) or "u has an
// unsafe neighbor in both dimensions" (Def 2b). The transition is monotone
// (safe -> unsafe only), which makes the labeling well-defined and
// schedule-independent.
#pragma once

#include <span>

#include "core/status.hpp"
#include "grid/cell_set.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::labeling {

/// Node-local protocol for the simkernel runners.
class SafetyProtocol {
 public:
  struct State {
    Health health = Health::Nonfaulty;
    Safety safety = Safety::Safe;

    friend constexpr bool operator==(const State&, const State&) = default;
  };
  /// Each round a node announces its safety; faulty nodes are born unsafe
  /// and never change, so their (static) status is likewise visible to
  /// neighbors.
  using Message = Safety;

  SafetyProtocol(const grid::CellSet& faults, SafeUnsafeDef def)
      : faults_(&faults), def_(def) {}

  [[nodiscard]] SafeUnsafeDef definition() const noexcept { return def_; }

  [[nodiscard]] State init(mesh::Coord c) const {
    if (faults_->contains(c)) return {Health::Faulty, Safety::Unsafe};
    return {Health::Nonfaulty, Safety::Safe};
  }

  [[nodiscard]] Message announce(const State& s) const noexcept {
    return s.safety;
  }

  /// Ghost nodes on the open-mesh boundary frame are permanently safe.
  [[nodiscard]] Message ghost_message() const noexcept { return Safety::Safe; }

  [[nodiscard]] bool participates(const State& s) const noexcept {
    return s.health == Health::Nonfaulty;
  }

  /// Word-parallel hook (see `sim::WordProtocol`): a node's bit is 1 when
  /// it is unsafe, and nonfaulty nodes participate.
  void init_bits(grid::BitPlane& unsafe, grid::BitPlane& nonfaulty) const {
    unsafe = faults_->bits();
    nonfaulty = unsafe;
    nonfaulty.flip();
  }

  [[nodiscard]] std::uint64_t step_bits(std::uint64_t unsafe,
                                        std::uint64_t nonfaulty,
                                        std::uint64_t east, std::uint64_t west,
                                        std::uint64_t north,
                                        std::uint64_t south) const noexcept {
    const std::uint64_t rule = def_ == SafeUnsafeDef::Def2a
                                   ? sim::at_least_two(east, west, north, south)
                                   : (east | west) & (north | south);
    return unsafe | (nonfaulty & rule);
  }

  /// Only unsafe nodes differ from the value-initialized {nonfaulty, safe}.
  void states_from_bits(const grid::BitPlane& unsafe, const grid::BitPlane&,
                        std::span<State> out) const {
    const grid::BitPlane& faulty = faults_->bits();
    unsafe.for_each([&](mesh::Coord c) {
      out[unsafe.topology().index(c)] = {
          static_cast<Health>(faulty.contains(c)), Safety::Unsafe};
    });
  }

  [[nodiscard]] bool update(State& s, const sim::Inbox<Message>& inbox) const {
    if (s.safety == Safety::Unsafe) return false;  // monotone: stays unsafe
    bool becomes_unsafe = false;
    if (def_ == SafeUnsafeDef::Def2a) {
      int unsafe_neighbors = 0;
      for (mesh::Dir d : mesh::kAllDirs) {
        if (inbox[d] == Safety::Unsafe) ++unsafe_neighbors;
      }
      becomes_unsafe = unsafe_neighbors >= 2;
    } else {
      const bool unsafe_x = inbox[mesh::Dir::East] == Safety::Unsafe ||
                            inbox[mesh::Dir::West] == Safety::Unsafe;
      const bool unsafe_y = inbox[mesh::Dir::North] == Safety::Unsafe ||
                            inbox[mesh::Dir::South] == Safety::Unsafe;
      becomes_unsafe = unsafe_x && unsafe_y;
    }
    if (becomes_unsafe) {
      s.safety = Safety::Unsafe;
      return true;
    }
    return false;
  }

 private:
  const grid::CellSet* faults_;  // non-owning; outlives the run
  SafeUnsafeDef def_;
};

static_assert(sim::WordProtocol<SafetyProtocol>);

}  // namespace ocp::labeling
