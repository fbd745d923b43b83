#include "check/schedules.hpp"

#include <sstream>

#include "core/activation_protocol.hpp"
#include "core/safety_protocol.hpp"
#include "simkernel/async_runner.hpp"

namespace ocp::check {

namespace {

using labeling::ActivationProtocol;
using labeling::PipelineResult;
using labeling::SafetyProtocol;
using mesh::Coord;
using sim::Schedule;

template <typename State, typename Field>
void compare_plane(const mesh::Mesh2D& m,
                   const grid::NodeGrid<State>& scheduled,
                   const grid::NodeGrid<Field>& reference, Field State::*field,
                   Schedule sched, const char* phase,
                   ViolationReport& report) {
  std::size_t mismatches = 0;
  Coord first{};
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    if (scheduled.at_index(i).*field != reference.at_index(i)) {
      if (mismatches++ == 0) first = m.coord(i);
    }
  }
  if (mismatches == 0) return;
  std::ostringstream os;
  os << to_string(sched) << ": " << phase << " fixpoint differs from the "
     << "synchronous reference at " << mismatches
     << " nodes (first at " << mesh::to_string(first) << ")";
  report.violations.push_back({kScheduleIndependence, os.str()});
}

}  // namespace

ViolationReport check_schedules(const grid::CellSet& faults,
                                labeling::SafeUnsafeDef def,
                                std::uint64_t seed) {
  ViolationReport report;
  const mesh::Mesh2D& m = faults.topology();
  const mesh::AdjacencyTable adj(m);

  labeling::PipelineOptions popts;
  popts.definition = def;
  const PipelineResult sync = labeling::run_pipeline(faults, popts);

  const SafetyProtocol phase1(faults, def);
  const ActivationProtocol phase2(faults, sync.safety);
  for (Schedule sched : sim::kAllSchedules) {
    stats::Rng rng(seed ^ (0x5eedull + static_cast<std::uint64_t>(sched)));
    const auto r1 = sim::run_async(adj, phase1, rng, sched);
    compare_plane(m, r1.states, sync.safety, &SafetyProtocol::State::safety,
                  sched, "phase one", report);
    const auto r2 = sim::run_async(adj, phase2, rng, sched);
    compare_plane(m, r2.states, sync.activation,
                  &ActivationProtocol::State::activation, sched, "phase two",
                  report);
  }
  return report;
}

}  // namespace ocp::check
