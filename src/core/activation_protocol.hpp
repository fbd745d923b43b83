// Phase two: distributed enabled/disabled labeling (Definition 3, Wu's rule).
//
//   all unsafe nodes are initialized to disabled;
//   all safe nodes are initialized to enabled;
//   repeat
//     doall (1) nonfaulty but unsafe node u exchanges its status with its
//               neighbors;
//           (2) change u's status to enabled if it has two or more enabled
//               neighbors
//     odall
//   until there is no status change
//
// The transition is monotone (disabled -> enabled only) and starts from the
// all-disabled side, which resolves the double-status ambiguity of a
// recursive definition (paper, Figure 2): a nonfaulty pocket that could
// consistently be either all-enabled or all-disabled stays disabled unless
// actual enabled support reaches it from outside the block.
#pragma once

#include <cassert>
#include <span>

#include "core/status.hpp"
#include "grid/cell_set.hpp"
#include "grid/node_grid.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::labeling {

/// Node-local protocol for the simkernel runners. Consumes the phase-one
/// safety labeling (by const reference; it must outlive the run).
class ActivationProtocol {
 public:
  /// Four bytes, not three: a plane of states is read back one field at a
  /// time, and a three-byte stride does not vectorize. The fourth byte is a
  /// member, not padding, so filling a plane copies whole words.
  struct alignas(4) State {
    Health health = Health::Nonfaulty;
    Safety safety = Safety::Safe;
    Activation activation = Activation::Enabled;
    std::uint8_t pad = 0;  // always zero

    friend constexpr bool operator==(const State&, const State&) = default;
  };
  using Message = Activation;

  ActivationProtocol(const grid::CellSet& faults,
                     const grid::NodeGrid<Safety>& safety)
      : faults_(&faults), safety_(&safety) {}

  [[nodiscard]] State init(mesh::Coord c) const {
    State s;
    s.health = faults_->contains(c) ? Health::Faulty : Health::Nonfaulty;
    s.safety = (*safety_)[c];
    // Faulty -> disabled; safe -> enabled; unsafe nonfaulty starts disabled
    // and may be activated by the update rule.
    s.activation = s.safety == Safety::Unsafe ? Activation::Disabled
                                              : Activation::Enabled;
    return s;
  }

  [[nodiscard]] Message announce(const State& s) const noexcept {
    return s.activation;
  }

  /// Ghost nodes are safe and hence enabled (they are excluded from routing
  /// elsewhere; for labeling they only provide boundary support).
  [[nodiscard]] Message ghost_message() const noexcept {
    return Activation::Enabled;
  }

  /// Only nonfaulty-but-unsafe nodes run the update rule.
  [[nodiscard]] bool participates(const State& s) const noexcept {
    return s.health == Health::Nonfaulty && s.safety == Safety::Unsafe;
  }

  /// Word-parallel hook (see `sim::WordProtocol`): a node's bit is 1 when
  /// it is disabled, and unsafe nonfaulty nodes participate. It requires
  /// every faulty node to be unsafe, as in any phase-one labeling: the bits
  /// keep no health of a safe node, so the states it returns would differ
  /// from `init`'s there.
  void init_bits(grid::BitPlane& disabled, grid::BitPlane& part) const {
    disabled.pack(safety_->data());
    const auto faulty = faults_->bits().words();
    for (std::size_t k = 0; k < part.words().size(); ++k) {
      assert((faulty[k] & ~disabled.words()[k]) == 0 &&
             "ActivationProtocol: a faulty node is marked safe");
      part.words()[k] = disabled.words()[k] & ~faulty[k];
    }
  }

  [[nodiscard]] std::uint64_t step_bits(std::uint64_t disabled,
                                        std::uint64_t part, std::uint64_t east,
                                        std::uint64_t west,
                                        std::uint64_t north,
                                        std::uint64_t south) const noexcept {
    return disabled &
           ~(part & sim::at_least_two(~east, ~west, ~north, ~south));
  }

  /// Only unsafe nodes (the disabled ones and the participants) differ
  /// from the value-initialized {nonfaulty, safe, enabled}.
  void states_from_bits(const grid::BitPlane& disabled,
                        const grid::BitPlane& part,
                        std::span<State> out) const {
    const grid::BitPlane& faulty = faults_->bits();
    const mesh::Mesh2D& m = part.topology();
    disabled.for_each([&](mesh::Coord c) {
      out[m.index(c)] = {static_cast<Health>(faulty.contains(c)),
                         Safety::Unsafe, Activation::Disabled};
    });
    part.for_each(
        [&](mesh::Coord c) { out[m.index(c)].safety = Safety::Unsafe; });
  }

  [[nodiscard]] bool update(State& s, const sim::Inbox<Message>& inbox) const {
    if (s.activation == Activation::Enabled) return false;  // monotone
    int enabled_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (inbox[d] == Activation::Enabled) ++enabled_neighbors;
    }
    if (enabled_neighbors >= 2) {
      s.activation = Activation::Enabled;
      return true;
    }
    return false;
  }

 private:
  const grid::CellSet* faults_;          // non-owning
  const grid::NodeGrid<Safety>* safety_;  // non-owning
};

static_assert(sim::WordProtocol<ActivationProtocol>);

}  // namespace ocp::labeling
