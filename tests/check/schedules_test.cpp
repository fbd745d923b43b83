// Schedule-adversarial runner tests: every hostile schedule reaches the
// synchronous fixpoint, deterministically per seed.
#include <gtest/gtest.h>

#include "check/schedules.hpp"
#include "core/activation_protocol.hpp"
#include "core/safety_protocol.hpp"
#include "fault/fixtures.hpp"
#include "fault/generators.hpp"
#include "simkernel/async_runner.hpp"

namespace ocp::check {
namespace {

using labeling::SafeUnsafeDef;
using labeling::SafetyProtocol;
using mesh::Mesh2D;
using mesh::Topology;

TEST(SchedulesTest, EveryScheduleReachesSyncFixpoint) {
  stats::Rng master(17);
  for (int k = 0; k < 16; ++k) {
    stats::Rng rng(master.fork_seed());
    const Mesh2D m(static_cast<std::int32_t>(rng.uniform_int(3, 16)),
                   static_cast<std::int32_t>(rng.uniform_int(3, 16)),
                   k % 2 == 0 ? Topology::Mesh : Topology::Torus);
    const auto f = static_cast<std::size_t>(
        rng.uniform_int(0, std::max<std::int64_t>(1, m.node_count() / 5)));
    const auto faults = fault::uniform_random(m, f, rng);
    const auto def = k % 4 < 2 ? SafeUnsafeDef::Def2a : SafeUnsafeDef::Def2b;
    const auto report =
        check_schedules(faults, def, static_cast<std::uint64_t>(k + 1));
    EXPECT_TRUE(report.ok()) << m.describe() << " " << to_string(def) << "\n"
                             << report.to_string();
  }
}

TEST(SchedulesTest, FixturesPassUnderAllSchedules) {
  for (const auto& fixture : {fault::worked_example(), fault::figure2b()}) {
    for (auto def : {SafeUnsafeDef::Def2a, SafeUnsafeDef::Def2b}) {
      const auto report = check_schedules(fixture.faults, def);
      EXPECT_TRUE(report.ok()) << fixture.name << "\n" << report.to_string();
    }
  }
}

TEST(SchedulesTest, RunScheduledMatchesRunSyncDirectly) {
  const Mesh2D m(12, 9, Topology::Mesh);
  stats::Rng gen(31);
  const auto faults = fault::uniform_random(m, 14, gen);
  const mesh::AdjacencyTable adj(m);
  const SafetyProtocol proto(faults, SafeUnsafeDef::Def2a);
  const auto sync = sim::run_sync(adj, proto);
  for (sim::Schedule sched : sim::kAllSchedules) {
    stats::Rng rng(7);
    const auto result = sim::run_async(adj, proto, rng, sched);
    for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count());
         ++i) {
      ASSERT_EQ(result.states.at_index(i).safety,
                sync.states.at_index(i).safety)
          << to_string(sched) << " node " << i;
    }
  }
}

TEST(SchedulesTest, SeededRunsAreDeterministic) {
  const Mesh2D m(10, 10, Topology::Torus);
  stats::Rng gen(5);
  const auto faults = fault::uniform_random(m, 12, gen);
  const mesh::AdjacencyTable adj(m);
  const SafetyProtocol proto(faults, SafeUnsafeDef::Def2b);
  for (sim::Schedule sched :
       {sim::Schedule::SeededRandom, sim::Schedule::DelayedSweep}) {
    stats::Rng a(99);
    stats::Rng b(99);
    const auto ra = sim::run_async(adj, proto, a, sched);
    const auto rb = sim::run_async(adj, proto, b, sched);
    EXPECT_EQ(ra.stats.activations, rb.stats.activations)
        << to_string(sched);
    EXPECT_EQ(ra.stats.sweeps, rb.stats.sweeps) << to_string(sched);
  }
}

TEST(SchedulesTest, LifoUsesSingleWorklistPass) {
  const Mesh2D m(8, 8, Topology::Mesh);
  grid::CellSet faults(m);
  faults.insert({3, 3});
  faults.insert({3, 5});
  const mesh::AdjacencyTable adj(m);
  const SafetyProtocol proto(faults, SafeUnsafeDef::Def2b);
  stats::Rng rng(1);
  const auto result = sim::run_async(adj, proto, rng, sim::Schedule::Lifo);
  EXPECT_EQ(result.stats.sweeps, 1);
  const auto sync = sim::run_sync(adj, proto);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    ASSERT_EQ(result.states.at_index(i).safety,
              sync.states.at_index(i).safety);
  }
}

TEST(SchedulesTest, ZeroFaultsQuiesceImmediately) {
  const Mesh2D m(6, 6, Topology::Torus);
  const grid::CellSet faults(m);
  const auto report = check_schedules(faults);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace ocp::check
