#include "check/fuzzer.hpp"

#include <chrono>
#include <sstream>

#include "check/metamorphic.hpp"
#include "check/schedules.hpp"
#include "check/shrink.hpp"
#include "core/reference.hpp"
#include "fault/generators.hpp"
#include "fault/trace.hpp"
#include "stats/rng.hpp"

namespace ocp::check {

namespace {

using labeling::PipelineResult;
using labeling::SafeUnsafeDef;
using mesh::Mesh2D;
using mesh::Topology;

/// Engine cross-validation: the distributed fixpoint must match the
/// centralized reference solver label for label.
ViolationReport check_cross_engine(const grid::CellSet& faults,
                                   SafeUnsafeDef def,
                                   const PipelineResult& distributed) {
  ViolationReport report;
  const auto ref_safety = labeling::reference_safety(faults, def);
  const auto ref_activation =
      labeling::reference_activation(faults, ref_safety);
  std::size_t mismatches = 0;
  mesh::Coord first{};
  const mesh::Mesh2D& m = faults.topology();
  for (std::size_t i = 0; i < ref_safety.size(); ++i) {
    if (distributed.safety.at_index(i) != ref_safety.at_index(i) ||
        distributed.activation.at_index(i) != ref_activation.at_index(i)) {
      if (mismatches++ == 0) first = m.coord(i);
    }
  }
  if (mismatches != 0) {
    std::ostringstream os;
    os << "distributed and reference labelings differ at " << mismatches
       << " nodes (first at " << mesh::to_string(first) << ")";
    report.violations.push_back({kEngineEquivalence, os.str()});
  }
  return report;
}

grid::CellSet generate_faults(const Mesh2D& m, std::size_t generator,
                              std::size_t f, stats::Rng& rng) {
  switch (generator % 3) {
    case 0: return fault::uniform_random(m, f, rng);
    case 1: {
      const double p =
          static_cast<double>(f) / static_cast<double>(m.node_count());
      return fault::bernoulli(m, p, rng);
    }
    default: {
      const std::size_t clusters =
          1 + std::min<std::size_t>(3, f / 4);
      return fault::clustered(m, clusters,
                              std::max<std::size_t>(1, f / clusters), rng);
    }
  }
}

const char* generator_name(std::size_t generator) {
  switch (generator % 3) {
    case 0: return "uniform";
    case 1: return "bernoulli";
    default: return "clustered";
  }
}

}  // namespace

ViolationReport check_instance(const grid::CellSet& faults,
                               SafeUnsafeDef def, const FuzzConfig& config) {
  labeling::PipelineOptions popts;
  popts.definition = def;
  const PipelineResult result = labeling::run_pipeline(faults, popts);

  OracleOptions oopts;
  oopts.definition = def;
  oopts.checks = config.checks;
  oopts.round_bound = config.round_bound;
  ViolationReport report = check_pipeline(faults, result, oopts);

  if (config.cross_engine) {
    report.merge(check_cross_engine(faults, def, result));
  }
  if (config.metamorphic) {
    report.merge(check_metamorphic(faults, popts));
  }
  if (config.schedules) {
    report.merge(check_schedules(faults, def, config.seed));
  }
  return report;
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto out_of_time = [&] {
    if (config.time_box_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - start);
    return elapsed.count() >= config.time_box_ms;
  };

  std::vector<Topology> topologies;
  if (config.meshes) topologies.push_back(Topology::Mesh);
  if (config.tori) topologies.push_back(Topology::Torus);
  std::vector<SafeUnsafeDef> defs;
  if (config.def2a) defs.push_back(SafeUnsafeDef::Def2a);
  if (config.def2b) defs.push_back(SafeUnsafeDef::Def2b);

  FuzzReport fuzz;
  if (topologies.empty() || defs.empty()) return fuzz;

  const obs::Span run_span(config.trace, "fuzz.run");
  stats::Rng master(config.seed);
  for (std::size_t k = 0; k < config.instances; ++k) {
    if (out_of_time()) {
      fuzz.timed_out = true;
      break;
    }
    const obs::Span instance_span(config.trace, "fuzz.instance",
                                  config.trace.rounds());
    const std::uint64_t instance_seed = master.fork_seed();
    stats::Rng rng(instance_seed);

    const auto w = static_cast<std::int32_t>(
        rng.uniform_int(config.min_size, config.max_size));
    const auto h = static_cast<std::int32_t>(
        rng.uniform_int(config.min_size, config.max_size));
    const Topology topology = topologies[k % topologies.size()];
    const SafeUnsafeDef def = defs[(k / topologies.size()) % defs.size()];
    const Mesh2D m(w, h, topology);
    const auto max_faults = static_cast<std::int64_t>(
        config.max_density * static_cast<double>(m.node_count()));
    const auto f =
        static_cast<std::size_t>(rng.uniform_int(0, std::max<std::int64_t>(
                                                        0, max_faults)));
    const grid::CellSet faults = generate_faults(m, k, f, rng);

    ViolationReport report = check_instance(faults, def, config);
    ++fuzz.instances_run;
    if (report.ok()) continue;

    ++fuzz.failure_count;
    if (fuzz.failures.size() >= config.max_failures) continue;

    FuzzFailure failure;
    failure.instance_seed = instance_seed;
    failure.definition =
        def == SafeUnsafeDef::Def2a ? std::string("2a") : std::string("2b");
    {
      std::ostringstream os;
      os << m.describe() << " " << to_string(def) << " f=" << faults.size()
         << " " << generator_name(k) << " seed=" << instance_seed;
      failure.description = os.str();
    }
    failure.report = std::move(report);
    failure.trace = fault::to_trace_string(faults);

    if (config.shrink) {
      const ShrinkResult shrunk = shrink_faults(
          faults, [&](const grid::CellSet& candidate) {
            return !check_instance(candidate, def, config).ok();
          });
      failure.shrunk_trace = shrunk.trace;
      failure.shrink_evaluations = shrunk.evaluations;
      failure.shrunk_report = check_instance(shrunk.faults, def, config);
    }
    fuzz.failures.push_back(std::move(failure));
  }
  return fuzz;
}

}  // namespace ocp::check
