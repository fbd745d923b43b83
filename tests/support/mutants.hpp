// Deliberately broken protocol variants, proving the oracle has teeth.
//
// A verification harness that never fires is worse than none. Each mutant
// below miscomputes the labeling in a way a careless engine rewrite could
// (wrong activation threshold, dropped ghost support, a degenerate safety
// rule); the mutation smoke tests assert that the InvariantOracle flags
// every one of them on crafted fixtures and fuzzed instances alike. The
// mutant protocols have no word-parallel hook, so they run on the per-node
// reference rounds (`support/node_rounds.hpp`). Test-only.
#pragma once

#include <array>
#include <cstdint>

#include "core/pipeline.hpp"
#include "grid/cell_set.hpp"

namespace ocp::check {

enum class Mutant : std::uint8_t {
  /// Definition 3 with threshold >= 1 instead of >= 2: pockets that must
  /// stay disabled get re-enabled, leaving concave disabled regions
  /// (Theorem 1 / Theorem 2 violations on pocketed fault patterns).
  ActivationThresholdOne = 0,
  /// Ghost nodes stop providing enabled support in phase two: boundary
  /// pockets stay disabled, inflating regions past the convex closure and
  /// planting nonfaulty corners (Lemma 1 / Theorem 2 violations).
  ActivationGhostDisabled = 1,
  /// Ghost nodes announce unsafe in phase one: the unsafe front sweeps in
  /// from the boundary, swallowing the machine (block exceeds the bounding
  /// box of its faults).
  SafetyGhostUnsafe = 2,
  /// Definition 2a with threshold >= 1: a single fault cascades the whole
  /// machine unsafe (block-fault-content violations; on a torus the whole
  /// machine becomes one fault-free-cornered disabled region).
  SafetyThresholdOne = 3,
};

inline constexpr std::array<Mutant, 4> kAllMutants = {
    Mutant::ActivationThresholdOne, Mutant::ActivationGhostDisabled,
    Mutant::SafetyGhostUnsafe, Mutant::SafetyThresholdOne};

[[nodiscard]] constexpr const char* to_string(Mutant m) noexcept {
  switch (m) {
    case Mutant::ActivationThresholdOne: return "activation-threshold-one";
    case Mutant::ActivationGhostDisabled: return "activation-ghost-disabled";
    case Mutant::SafetyGhostUnsafe: return "safety-ghost-unsafe";
    case Mutant::SafetyThresholdOne: return "safety-threshold-one";
  }
  return "mutant";
}

/// Runs the two-phase pipeline with the mutated protocol substituted for the
/// genuine one (the other phase runs unmodified), extracting blocks and
/// regions exactly like `labeling::run_pipeline`. Feed the result to
/// `check_pipeline` and expect violations.
[[nodiscard]] labeling::PipelineResult run_mutant_pipeline(
    const grid::CellSet& faults, Mutant mutant,
    labeling::SafeUnsafeDef def = labeling::SafeUnsafeDef::Def2b);

}  // namespace ocp::check
