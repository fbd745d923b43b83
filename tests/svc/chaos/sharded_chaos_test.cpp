// Chaos against multi-shard fleets: per-shard kills mid-gossip, restart
// replay, and the schedule explorer at 2x2.
//
// The scenario a one-shard fleet cannot express: one shard's
// worker dies at its next publish while a neighbor is still draining the
// halo deltas the victim emitted moments earlier. The victim's engine
// crash-recovers to its last published snapshot, the un-covered backlog —
// external events AND halo-derived synthetic events — is requeued, and
// after `restart_shard` the replay (version-gated against everything the
// fleet learned meanwhile) must converge the composite digest back to the
// single-writer labeling of the net fault set.

#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/schedule.hpp"
#include "svc/loadgen.hpp"

namespace ocp::chaos {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

std::vector<svc::FaultEvent> fault_rect(std::int32_t x0, std::int32_t x1,
                                        std::int32_t y0, std::int32_t y1) {
  std::vector<svc::FaultEvent> events;
  for (std::int32_t y = y0; y <= y1; ++y) {
    for (std::int32_t x = x0; x <= x1; ++x) {
      events.push_back({svc::EventKind::Fault, {x, y}});
    }
  }
  return events;
}

std::uint64_t single_writer_digest(const grid::CellSet& initial,
                                   std::span<const svc::FaultEvent> stream) {
  svc::IngestEngine engine(initial, {});
  (void)engine.apply(stream);
  return engine.snapshot()->label_digest();
}

TEST(ShardedChaosTest, KilledShardReplaysToSingleWriterDigest) {
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  // Kill shard 0 at its second publish while a seam-spanning block drives
  // halo traffic between shards 0 and 1.
  FaultPlan plan(PlanSpec{.seed = 7, .kill_at_stamps = {2}});
  svc::ServiceConfig config{.shard_rows = 1, .shard_cols = 2};
  // Small batches: shard 0's eight external events need at least two
  // publishes, so the kill at stamp 2 fires deterministically.
  config.max_batch = 4;
  config.shard_chaos = {ChaosConfig{&plan}, ChaosConfig{}};
  svc::Service service(initial, config);

  const auto events = fault_rect(14, 17, 5, 8);
  for (const svc::FaultEvent& e : events) {
    ASSERT_EQ(service.submit(e), svc::SubmitStatus::Accepted);
  }
  // Flush returns (instead of hanging) once the victim is down; its backlog
  // — including halo-derived events whose deltas were already consumed by
  // the version gate — is requeued, and the neighbor keeps serving.
  service.flush();
  ASSERT_TRUE(service.shard_crashed(0));
  EXPECT_EQ(service.query_status({20, 6}).status, svc::QueryStatus::Ok);

  plan.disarm();
  ASSERT_TRUE(service.restart_shard(0));
  service.flush();
  ASSERT_FALSE(service.any_shard_crashed());
  EXPECT_EQ(service.composite_digest(), single_writer_digest(initial, events));
  EXPECT_EQ(plan.stats().kills, 1u);
}

TEST(ShardedChaosTest, KillWhileNeighborDrainsHaloDeltas) {
  // The targeted interleaving: the victim emits deltas (publish 1), dies on
  // its next publish, and the neighbor's drain of those deltas emits
  // *reply* deltas the dead victim cannot consume until restarted. Repair
  // events in the second wave make the replay order matter.
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  FaultPlan plan(PlanSpec{.seed = 3, .kill_at_stamps = {2, 3}});
  svc::ServiceConfig config{.shard_rows = 1, .shard_cols = 2};
  config.max_batch = 4;  // many small publishes: more kill windows
  config.shard_chaos = {ChaosConfig{&plan}, ChaosConfig{}};
  svc::Service service(initial, config);

  auto events = fault_rect(14, 17, 5, 8);
  const auto repairs = fault_rect(15, 16, 6, 7);
  for (const auto& r : repairs) {
    events.push_back({svc::EventKind::Repair, r.node});
  }
  for (const svc::FaultEvent& e : events) {
    ASSERT_EQ(service.submit(e), svc::SubmitStatus::Accepted);
  }
  // The first kill fires before the fleet can quiesce: shard 0 holds ten
  // external events and max_batch is 4, so publish stamp 2 is unavoidable.
  service.flush();
  EXPECT_TRUE(service.shard_crashed(0));
  // Both armed kills (stamps 2 and 3) are consumed across the restart
  // cycles; the loop converges once the plan has nothing left to fire.
  for (int i = 0; i < 8; ++i) {
    for (std::uint32_t s = 0; s < service.shard_grid().count(); ++s) {
      (void)service.restart_shard(s);
    }
    service.flush();
    if (!service.any_shard_crashed()) break;
  }
  ASSERT_FALSE(service.any_shard_crashed());
  EXPECT_EQ(service.composite_digest(), single_writer_digest(initial, events));
  EXPECT_EQ(plan.stats().kills, 2u);
}

TEST(ShardedScheduleTest, GeneratorIsSeededAndTargetsShards) {
  const auto a = generate_schedule(42, 64, 4);
  const auto b = generate_schedule(42, 64, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, generate_schedule(43, 64, 4));
  ASSERT_EQ(a.size(), 64u);
  const auto has = [&a](OpKind kind) {
    return std::any_of(a.begin(), a.end(),
                       [kind](const Op& op) { return op.kind == kind; });
  };
  EXPECT_TRUE(has(OpKind::Submit));
  EXPECT_TRUE(has(OpKind::Query));
  EXPECT_TRUE(has(OpKind::Kill));
  for (const Op& op : a) EXPECT_LT(op.shard, 4);
}

TEST(ShardedScheduleTest, CleanScheduleHoldsAllInvariants) {
  ScheduleConfig config;
  config.seed = 5;
  config.service.shard_rows = 2;
  config.service.shard_cols = 2;
  // No kill ops: a hand-written schedule of submits, queries and flushes.
  const std::vector<Op> schedule = {
      {OpKind::Submit, 24, 0}, {OpKind::Query, 16, 0},
      {OpKind::Flush, 0, 0},   {OpKind::Submit, 40, 0},
      {OpKind::Query, 16, 0},  {OpKind::Flush, 0, 0},
  };
  const ScheduleResult result = run_schedule(config, schedule);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front());
  EXPECT_EQ(result.final_digest, result.expected_digest);
  EXPECT_EQ(result.injected.kills, 0u);
  EXPECT_GT(result.queries_ok, 0u);
}

TEST(ShardedScheduleTest, KillScheduleConvergesAfterQuiesce) {
  ScheduleConfig config;
  config.seed = 9;
  config.events = 128;
  config.service.shard_rows = 2;
  config.service.shard_cols = 2;
  // Kill every shard once mid-run, with bursts driving gossip across the
  // seams in between; the quiesce phase restarts and replays.
  const std::vector<Op> schedule = {
      {OpKind::Submit, 16, 0}, {OpKind::Kill, 16, 0},
      {OpKind::Query, 8, 0},   {OpKind::Kill, 16, 3},
      {OpKind::Restart, 0, 0}, {OpKind::Submit, 16, 0},
      {OpKind::Kill, 16, 1},   {OpKind::Query, 8, 0},
      {OpKind::Kill, 16, 2},   {OpKind::Flush, 0, 0},
  };
  const ScheduleResult result = run_schedule(config, schedule);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front());
  EXPECT_EQ(result.final_digest, result.expected_digest);
}

TEST(ShardedScheduleTest, SeededExplorationSweepPasses) {
  // The explorer proper: seeded random schedules (kills included) against a
  // 2x2 fleet; every run must quiesce to the expected composite digest.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.events = 96;
    config.service.shard_rows = 2;
    config.service.shard_cols = 2;
    const auto schedule = generate_schedule(seed * 31 + 7, 24, 4);
    const ScheduleResult result = run_schedule(config, schedule);
    EXPECT_TRUE(result.ok())
        << "seed " << seed << ": "
        << (result.violations.empty() ? "" : result.violations.front());
  }
}

}  // namespace
}  // namespace ocp::chaos
