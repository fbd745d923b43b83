#include "core/pipeline.hpp"

#include "core/reference.hpp"
#include "simkernel/sync_runner.hpp"

namespace ocp::labeling {

std::size_t PipelineResult::unsafe_nonfaulty_total() const {
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.unsafe_nonfaulty_count;
  return total;
}

std::size_t PipelineResult::disabled_nonfaulty_total() const {
  std::size_t total = 0;
  for (const auto& r : regions) total += r.disabled_nonfaulty_count;
  return total;
}

std::size_t PipelineResult::enabled_total() const {
  return unsafe_nonfaulty_total() - disabled_nonfaulty_total();
}

PipelineResult run_pipeline(const grid::CellSet& faults,
                            const PipelineOptions& opts) {
  const mesh::Mesh2D& m = faults.topology();
  const obs::Span pipeline_span(opts.trace, "pipeline.run");
  const sim::RunOptions run_opts{.trace = opts.trace};

  grid::NodeGrid<Safety> safety(m, Safety::Safe);
  grid::NodeGrid<Activation> activation(m, Activation::Enabled);
  sim::RoundStats safety_stats;
  sim::RoundStats activation_stats;

  if (opts.engine == Engine::Distributed) {
    {
      const obs::Span phase_span(opts.trace, "pipeline.safety");
      const SafetyProtocol phase1(faults, opts.definition);
      auto r1 = sim::run_sync(m, phase1, run_opts);
      safety_stats = r1.stats;
      for (std::size_t i = 0; i < safety.size(); ++i) {
        safety.at_index(i) = r1.states.at_index(i).safety;
      }
    }

    {
      const obs::Span phase_span(opts.trace, "pipeline.activation");
      const ActivationProtocol phase2(faults, safety);
      auto r2 = sim::run_sync(m, phase2, run_opts);
      activation_stats = r2.stats;
      for (std::size_t i = 0; i < activation.size(); ++i) {
        activation.at_index(i) = r2.states.at_index(i).activation;
      }
    }
  } else {
    const obs::Span phase_span(opts.trace, "pipeline.reference");
    safety = reference_safety(faults, opts.definition);
    activation = reference_activation(faults, safety);
  }

  PipelineResult result{std::move(safety), std::move(activation), {}, {},
                        safety_stats, activation_stats};
  {
    const obs::Span extract_span(opts.trace, "pipeline.extract");
    result.blocks = extract_faulty_blocks(faults, result.safety);
    result.regions =
        extract_disabled_regions(faults, result.activation, result.blocks);
  }
  if (opts.trace.enabled()) {
    opts.trace.instant("pipeline.blocks",
                       static_cast<std::int64_t>(result.blocks.size()));
    opts.trace.instant("pipeline.regions",
                       static_cast<std::int64_t>(result.regions.size()));
  }
  return result;
}

}  // namespace ocp::labeling
