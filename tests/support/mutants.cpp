#include "support/mutants.hpp"

#include "core/activation_protocol.hpp"
#include "core/regions.hpp"
#include "core/safety_protocol.hpp"
#include "support/node_rounds.hpp"

namespace ocp::check {

namespace {

using labeling::Activation;
using labeling::Health;
using labeling::SafeUnsafeDef;
using labeling::Safety;

/// Phase-one protocol with an injectable threshold (Definition 2a style
/// counting) and ghost message. `threshold == 0` keeps the genuine rule of
/// `def`; otherwise the rule is "unsafe with >= threshold unsafe neighbors".
class MutantSafetyProtocol {
 public:
  using State = labeling::SafetyProtocol::State;
  using Message = Safety;

  MutantSafetyProtocol(const grid::CellSet& faults, SafeUnsafeDef def,
                       int threshold, Safety ghost)
      : genuine_(faults, def), threshold_(threshold), ghost_(ghost) {}

  [[nodiscard]] State init(mesh::Coord c) const { return genuine_.init(c); }
  [[nodiscard]] Message announce(const State& s) const noexcept {
    return genuine_.announce(s);
  }
  [[nodiscard]] Message ghost_message() const noexcept { return ghost_; }
  [[nodiscard]] bool participates(const State& s) const noexcept {
    return genuine_.participates(s);
  }
  [[nodiscard]] bool update(State& s, const sim::Inbox<Message>& inbox) const {
    if (threshold_ == 0) return genuine_.update(s, inbox);
    if (s.safety == Safety::Unsafe) return false;
    int unsafe_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (inbox[d] == Safety::Unsafe) ++unsafe_neighbors;
    }
    if (unsafe_neighbors >= threshold_) {
      s.safety = Safety::Unsafe;
      return true;
    }
    return false;
  }

 private:
  labeling::SafetyProtocol genuine_;
  int threshold_;
  Safety ghost_;
};

static_assert(sim::SyncProtocol<MutantSafetyProtocol>);

/// Phase-two protocol with an injectable enabling threshold and ghost
/// message (the genuine Definition 3 is threshold 2, ghost enabled).
class MutantActivationProtocol {
 public:
  using State = labeling::ActivationProtocol::State;
  using Message = Activation;

  MutantActivationProtocol(const grid::CellSet& faults,
                           const grid::NodeGrid<Safety>& safety,
                           int threshold, Activation ghost)
      : genuine_(faults, safety), threshold_(threshold), ghost_(ghost) {}

  [[nodiscard]] State init(mesh::Coord c) const { return genuine_.init(c); }
  [[nodiscard]] Message announce(const State& s) const noexcept {
    return genuine_.announce(s);
  }
  [[nodiscard]] Message ghost_message() const noexcept { return ghost_; }
  [[nodiscard]] bool participates(const State& s) const noexcept {
    return genuine_.participates(s);
  }
  [[nodiscard]] bool update(State& s, const sim::Inbox<Message>& inbox) const {
    if (s.activation == Activation::Enabled) return false;
    int enabled_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (inbox[d] == Activation::Enabled) ++enabled_neighbors;
    }
    if (enabled_neighbors >= threshold_) {
      s.activation = Activation::Enabled;
      return true;
    }
    return false;
  }

 private:
  labeling::ActivationProtocol genuine_;
  int threshold_;
  Activation ghost_;
};

static_assert(sim::SyncProtocol<MutantActivationProtocol>);

}  // namespace

labeling::PipelineResult run_mutant_pipeline(const grid::CellSet& faults,
                                             Mutant mutant,
                                             SafeUnsafeDef def) {
  const mesh::Mesh2D& m = faults.topology();
  const mesh::AdjacencyTable adj(m);

  int safety_threshold = 0;  // 0 = genuine rule of `def`
  Safety safety_ghost = Safety::Safe;
  int activation_threshold = 2;
  Activation activation_ghost = Activation::Enabled;
  switch (mutant) {
    case Mutant::ActivationThresholdOne: activation_threshold = 1; break;
    case Mutant::ActivationGhostDisabled:
      activation_ghost = Activation::Disabled;
      break;
    case Mutant::SafetyGhostUnsafe: safety_ghost = Safety::Unsafe; break;
    case Mutant::SafetyThresholdOne: safety_threshold = 1; break;
  }

  labeling::PipelineResult result{
      grid::NodeGrid<Safety>(m, Safety::Safe),
      grid::NodeGrid<Activation>(m, Activation::Enabled),
      {}, {}, {}, {}};

  const MutantSafetyProtocol phase1(faults, def, safety_threshold,
                                    safety_ghost);
  const auto r1 = sim::run_nodes(adj, phase1);
  result.safety_stats = r1.stats;
  for (std::size_t i = 0; i < result.safety.size(); ++i) {
    result.safety.at_index(i) = r1.states.at_index(i).safety;
  }

  const MutantActivationProtocol phase2(faults, result.safety,
                                        activation_threshold,
                                        activation_ghost);
  const auto r2 = sim::run_nodes(adj, phase2);
  result.activation_stats = r2.stats;
  for (std::size_t i = 0; i < result.activation.size(); ++i) {
    result.activation.at_index(i) = r2.states.at_index(i).activation;
  }

  result.blocks = labeling::extract_faulty_blocks(faults, result.safety);
  result.regions = labeling::extract_disabled_regions(faults, result.activation,
                                                      result.blocks);
  return result;
}

}  // namespace ocp::check
