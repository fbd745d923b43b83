// The full two-phase algorithm of the paper as one call: faults in,
// faulty blocks + disabled regions + convergence metrics out.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_protocol.hpp"
#include "core/regions.hpp"
#include "core/safety_protocol.hpp"
#include "grid/cell_set.hpp"
#include "grid/node_grid.hpp"
#include "obs/trace.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::labeling {

/// How the pipeline computes the fixpoints.
enum class Engine : std::uint8_t {
  /// simkernel synchronous lock-step rounds — faithful to the paper, and the
  /// only engine that yields round counts.
  Distributed = 0,
  /// Centralized worklist solver — same labels, no round counts, and slower
  /// than the word rounds. The tests' independent oracle: it shares no code
  /// with the distributed evaluator.
  Reference = 1,
};

struct PipelineOptions {
  SafeUnsafeDef definition = SafeUnsafeDef::Def2b;
  Engine engine = Engine::Distributed;
  sim::RunMode run_mode = sim::RunMode::Frontier;
  /// Passed on as `sim::RunOptions::parallel`. Both phases run the
  /// word-parallel evaluator, to which it does not apply, so the pipeline's
  /// results and timings do not depend on it.
  bool parallel = false;
  /// Observability (src/obs): disabled by default (null sink). When set,
  /// the run emits per-phase spans ("pipeline.safety"/"pipeline.activation"/
  /// "pipeline.extract"), flip/message/frontier counters, and — at
  /// TraceLevel::Round — per-round spans and frontier/changes instants from
  /// the sync runner. Never affects results.
  obs::TraceConfig trace;
};

/// Everything the two phases produce.
struct PipelineResult {
  grid::NodeGrid<Safety> safety;
  grid::NodeGrid<Activation> activation;
  std::vector<FaultyBlock> blocks;
  std::vector<DisabledRegion> regions;
  /// Phase convergence/cost metrics (zeroed under Engine::Reference).
  sim::RoundStats safety_stats;
  sim::RoundStats activation_stats;

  /// Total unsafe-but-nonfaulty nodes (over all blocks).
  [[nodiscard]] std::size_t unsafe_nonfaulty_total() const;
  /// Unsafe-but-nonfaulty nodes that phase two activated.
  [[nodiscard]] std::size_t enabled_total() const;
  /// Nonfaulty nodes still disabled after phase two.
  [[nodiscard]] std::size_t disabled_nonfaulty_total() const;
};

/// Runs phase one (safe/unsafe) and phase two (enabled/disabled) and
/// extracts both region families.
[[nodiscard]] PipelineResult run_pipeline(const grid::CellSet& faults,
                                          const PipelineOptions& opts = {});

}  // namespace ocp::labeling
