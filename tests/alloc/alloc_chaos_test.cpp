// Chaos schedules against the allocation subsystem: a writer kill during an
// eviction storm must crash-recover and replay to the exact placement
// history of a kill-free run (ISSUE 10's convergence criterion).
#include "support/alloc_schedule.hpp"

#include <gtest/gtest.h>

namespace ocp::chaos {
namespace {

std::vector<AllocOp> hand_built_storm_kill() {
  // Load the machine, kill the writer while the storm's evictions land,
  // then churn and settle.
  return {
      {AllocOpKind::SubmitJobs, 20}, {AllocOpKind::Faults, 5},
      {AllocOpKind::Storm, 0},       {AllocOpKind::Kill, 0},
      {AllocOpKind::Faults, 8},      {AllocOpKind::Tick, 4},
      {AllocOpKind::SubmitJobs, 10}, {AllocOpKind::Release, 2},
      {AllocOpKind::Faults, 5},      {AllocOpKind::Tick, 4},
  };
}

TEST(AllocChaosTest, KillDuringEvictionStormConverges) {
  AllocScheduleConfig config;
  config.seed = 3;
  const AllocScheduleResult r =
      run_alloc_schedule(config, hand_built_storm_kill());
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_GE(r.kills, 1u);
  EXPECT_EQ(r.placement_digest, r.expected_placement_digest);
  EXPECT_EQ(r.final_label_digest, r.expected_label_digest);
  EXPECT_GT(r.epochs_published, 0u);
}

TEST(AllocChaosTest, KillFreeScheduleTriviallyConverges) {
  AllocScheduleConfig config;
  config.seed = 4;
  std::vector<AllocOp> schedule = hand_built_storm_kill();
  std::erase_if(schedule,
                [](const AllocOp& op) { return op.kind == AllocOpKind::Kill; });
  const AllocScheduleResult r = run_alloc_schedule(config, schedule);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.kills, 0u);
}

TEST(AllocChaosTest, GeneratedSchedulesAlwaysCoverTheStormKillCluster) {
  const auto schedule = generate_alloc_schedule(11, 20);
  bool cluster = false;
  for (std::size_t i = 0; i + 2 < schedule.size(); ++i) {
    cluster = cluster || (schedule[i].kind == AllocOpKind::Storm &&
                          schedule[i + 1].kind == AllocOpKind::Kill &&
                          schedule[i + 2].kind == AllocOpKind::Faults);
  }
  EXPECT_TRUE(cluster);
  // Seeded: same seed, same schedule; different seed, different schedule.
  EXPECT_EQ(generate_alloc_schedule(11, 20), schedule);
  EXPECT_NE(generate_alloc_schedule(12, 20), schedule);
}

TEST(AllocChaosTest, GeneratedSchedulesConvergeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    AllocScheduleConfig config;
    config.seed = seed;
    const auto schedule = generate_alloc_schedule(seed, 18, 8);
    const AllocScheduleResult r = run_alloc_schedule(config, schedule);
    EXPECT_TRUE(r.ok()) << "seed " << seed << " schedule "
                        << to_string(schedule) << ": "
                        << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_GE(r.kills, 1u) << "seed " << seed;
  }
}

TEST(AllocChaosTest, SchedulesRenderAsOneLineRepros) {
  const std::vector<AllocOp> schedule = {
      {AllocOpKind::SubmitJobs, 8}, {AllocOpKind::Faults, 4},
      {AllocOpKind::Storm, 0},      {AllocOpKind::Kill, 0},
      {AllocOpKind::Faults, 9},     {AllocOpKind::Tick, 4},
      {AllocOpKind::Release, 2},
  };
  EXPECT_EQ(to_string(schedule), "J8 F4 W K F9 T4 R2");
}

}  // namespace
}  // namespace ocp::chaos
