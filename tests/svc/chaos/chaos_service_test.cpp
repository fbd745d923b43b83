// Degraded-mode guarantees of the serving runtime under injected failures:
// typed retries with pinned counts, bounded staleness under withheld
// publications, timeout (never hang) on waits for epochs that cannot
// arrive, and — the acceptance invariant — kill/restart of a shard's
// writer mid-batch converging to a state bit-identical to an uninterrupted
// run over the same net fault set, at 1, 2, and 8 query threads. Every
// service-driven test runs on the single writer and on a 2x2 fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>

#include "chaos/harness.hpp"
#include "chaos/plan.hpp"
#include "fault/generators.hpp"
#include "svc/loadgen.hpp"

namespace ocp::chaos {
namespace {

using namespace std::chrono_literals;
using mesh::Coord;
using mesh::Mesh2D;

grid::CellSet empty16() { return grid::CellSet(Mesh2D(16, 16)); }

constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {{1, 1}, {2, 2}};

std::string shape_name(std::pair<std::int32_t, std::int32_t> shape) {
  return std::to_string(shape.first) + "x" + std::to_string(shape.second);
}

svc::ServiceConfig with_plan(FaultPlan& plan,
                             std::pair<std::int32_t, std::int32_t> shape) {
  svc::ServiceConfig config;
  config.shard_rows = shape.first;
  config.shard_cols = shape.second;
  config.ingest.chaos.plan = &plan;
  return config;
}

TEST(ChaosServiceTest, DenialStormYieldsExactlyTheSpeccedRetryCount) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    FaultPlan plan({.deny_submit = 1.0, .max_denies = 3});
    svc::Service service(empty16(), with_plan(plan, shape));

    int retries = 0;
    svc::SubmitStatus status;
    while ((status = service.submit({svc::EventKind::Fault, {4, 4}})) !=
           svc::SubmitStatus::Accepted) {
      ASSERT_EQ(status, svc::SubmitStatus::Overloaded);  // typed, not a hang
      ++retries;
      ASSERT_LE(retries, 10);
    }
    // Counter-hashed decisions at probability 1.0 with a cap of 3: the retry
    // count is pinned, not merely bounded.
    EXPECT_EQ(retries, 3);
    service.flush();
    EXPECT_EQ(service.stats().chaos_denied, 3u);
    EXPECT_EQ(service.query_status({4, 4}).node, svc::NodeStatus::Faulty);
  }
}

TEST(ChaosServiceTest, LoadgenBackoffRetriesArePinnedUnderChaosDenials) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    FaultPlan plan({.deny_submit = 1.0, .max_denies = 5});
    svc::SvcLoadConfig config;
    config.mesh_side = 16;
    config.events = 32;
    config.query_threads = 1;
    config.queries_per_thread = 50;
    config.service.shard_rows = shape.first;
    config.service.shard_cols = shape.second;
    config.service.ingest.chaos.plan = &plan;

    const svc::SvcLoadResult result = svc::run_svc_load(config);
    // The writer is the only submitter, every denial costs exactly one retry,
    // and the unbounded budget sheds nothing — so the count is exact and the
    // digest matches a chaos-free run of the same config.
    EXPECT_EQ(result.submit_retries, 5u);
    EXPECT_EQ(result.submits_shed, 0u);
    EXPECT_GT(result.submit_backoff_us, 0u);

    svc::SvcLoadConfig clean = config;
    clean.service.ingest.chaos.plan = nullptr;
    const svc::SvcLoadResult control = svc::run_svc_load(clean);
    EXPECT_EQ(result.final_digest, control.final_digest);
    EXPECT_EQ(result.final_faults, control.final_faults);
  }
}

TEST(ChaosServiceTest, WaitForEpochOnWithheldEpochTimesOutInsteadOfHanging) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    FaultPlan plan({.poison_publish = 1.0});  // uncapped: withhold everything
    svc::Service service(empty16(), with_plan(plan, shape));
    ASSERT_EQ(service.submit({svc::EventKind::Fault, {2, 2}}),
              svc::SubmitStatus::Accepted);
    service.flush();  // applied but withheld: epoch 1 never publishes

    const auto begin = std::chrono::steady_clock::now();
    const std::uint32_t owner = service.shard_of({2, 2});
    EXPECT_EQ(service.wait_for_epoch(owner, 1, 50ms),
              svc::QueryStatus::Timeout);
    EXPECT_LT(std::chrono::steady_clock::now() - begin, 5s);
    EXPECT_GE(service.stale_epochs_pending(), 1u);

    // Disarm and nudge: the withheld labeling publishes via the empty-batch
    // retry path and the wait now succeeds.
    plan.disarm();
    service.retry_publish();
    ASSERT_EQ(service.wait_for_epoch(owner, 1, 5000ms), svc::QueryStatus::Ok);
    EXPECT_EQ(service.stale_epochs_pending(), 0u);
    EXPECT_EQ(service.query_status({2, 2}).node, svc::NodeStatus::Faulty);
  }
}

TEST(ChaosServiceTest, WithheldEpochsServeStaleAnswersWithAccounting) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    FaultPlan plan({.poison_publish = 1.0});
    svc::Service service(empty16(), with_plan(plan, shape));
    ASSERT_EQ(service.submit({svc::EventKind::Fault, {7, 7}}),
              svc::SubmitStatus::Accepted);
    service.flush();

    // Still serving epoch 0: the fault is applied to the labeling but its
    // publication was withheld — the query answers (degraded, stale), and
    // both the watermark and the stale-served counter say so.
    const svc::StatusAnswer answer = service.query_status({7, 7});
    EXPECT_EQ(answer.status, svc::QueryStatus::Ok);
    EXPECT_EQ(answer.epoch, 0u);
    EXPECT_EQ(answer.node, svc::NodeStatus::Enabled);  // last good epoch
    const svc::ServiceStats stats = service.stats();
    EXPECT_GE(stats.stale_epochs_pending, 1u);
    EXPECT_GE(stats.stale_queries_served, 1u);
    // The owner withheld exactly its one epoch (neighbors told of the seam
    // cell withhold their own).
    const svc::IngestEngine& owner = service.engine(service.shard_of({7, 7}));
    EXPECT_EQ(owner.stats().oracle_rejects, 1u);

    // The retained violation names the chaos check, not a real invariant.
    const auto violation = owner.last_violation();
    ASSERT_TRUE(violation.has_value());
    ASSERT_EQ(violation->violations.size(), 1u);
    EXPECT_EQ(violation->violations[0].check, check::kChaosPoisoned);
  }
}

TEST(ChaosServiceTest, KillMidBatchCrashesRecoversAndRequeuesTheBacklog) {
  // Drive the engine directly for a deterministic mid-batch crash: the kill
  // is armed for the first publish stamp, so it fires while applying the
  // first batch.
  FaultPlan plan({.kill_at_stamps = {1}});
  svc::IngestConfig config;
  config.chaos.plan = &plan;
  svc::IngestEngine engine(empty16(), config);

  const std::vector<svc::FaultEvent> batch = {
      {svc::EventKind::Fault, {1, 1}}, {svc::EventKind::Fault, {2, 2}}};
  const svc::BatchOutcome outcome = engine.apply(batch);
  EXPECT_TRUE(outcome.crashed);
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(engine.snapshot()->epoch(), 0u);          // still the last good
  EXPECT_TRUE(engine.snapshot()->faults().empty());   // no partial state
  EXPECT_EQ(engine.stats().crashes, 1u);

  // Replay what the crash handed back plus the interrupted batch: the stamp
  // was consumed, so this publishes and converges.
  std::vector<svc::FaultEvent> replay = outcome.requeue;
  replay.insert(replay.end(), batch.begin(), batch.end());
  const svc::BatchOutcome retry = engine.apply(replay);
  EXPECT_TRUE(retry.published);
  EXPECT_EQ(engine.snapshot()->faults().size(), 2u);
}

TEST(ChaosServiceTest, ServiceSurvivesKillAndAnswersFromLastGoodEpoch) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    FaultPlan plan({.kill_at_stamps = {1}});
    svc::Service service(empty16(), with_plan(plan, shape));
    ASSERT_EQ(service.submit({svc::EventKind::Fault, {3, 3}}),
              svc::SubmitStatus::Accepted);
    service.flush();  // returns: the writer crashed rather than drained

    const std::uint32_t owner = service.shard_of({3, 3});
    EXPECT_TRUE(service.shard_crashed(owner));
    EXPECT_EQ(service.query_status({3, 3}).status, svc::QueryStatus::Ok);
    EXPECT_EQ(service.query_status({3, 3}).node, svc::NodeStatus::Enabled);
    EXPECT_EQ(service.wait_for_epoch(owner, 1, 50ms),
              svc::QueryStatus::Timeout);

    // Restart: the requeued event drains, the consumed stamp lets it publish.
    EXPECT_TRUE(service.restart_shard(owner));
    EXPECT_FALSE(service.shard_crashed(owner));
    service.flush();
    EXPECT_EQ(service.query_status({3, 3}).node, svc::NodeStatus::Faulty);
    EXPECT_EQ(service.stats().ingest.crashes, 1u);
  }
}

TEST(ChaosServiceTest, DuplicatedAndDeferredBatchesAreDigestSafe) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    ChaosLoadConfig config;
    config.service.shard_rows = shape.first;
    config.service.shard_cols = shape.second;
    config.seed = 101;
    config.query_threads = 1;
    config.queries_per_thread = 100;
    config.plan = {.seed = 5,
                   .duplicate_batch = 0.5,
                   .max_duplicates = 8,
                   .defer_batch = 0.3,
                   .max_defers = 6,
                   .stall_batch = 0.2,
                   .stall_max_us = 100,
                   .max_stalls = 4};
    const ChaosLoadResult result = run_chaos_load(config);
    EXPECT_TRUE(result.ok()) << "digest " << result.chaos_digest << " vs clean "
                             << result.clean_digest;
    EXPECT_TRUE(result.digest_match);
  }
}

// The acceptance invariant, at each required query-thread count and both
// shapes: a chaos schedule that kills and restarts a writer mid-batch (twice),
// poisons verdicts, denies admissions and perturbs batches converges to a
// published snapshot whose label digest equals the uninterrupted run's over
// the same net fault set.
class ChaosConvergenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaosConvergenceTest, KillRestartConvergesToCleanDigest) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    ChaosLoadConfig config;
    config.service.shard_rows = shape.first;
    config.service.shard_cols = shape.second;
    config.seed = 20010423;
    config.events = 192;
    config.query_threads = GetParam();
    config.queries_per_thread = 300;
    config.service.max_batch = 8;  // many epochs, so the kill stamps exist
    config.plan = {.seed = 13,
                   .deny_submit = 0.1,
                   .max_denies = 16,
                   .duplicate_batch = 0.2,
                   .max_duplicates = 6,
                   .defer_batch = 0.2,
                   .max_defers = 6,
                   .stall_batch = 0.2,
                   .stall_max_us = 150,
                   .max_stalls = 6,
                   .poison_publish = 0.2,
                   .max_poisons = 6,
                   .kill_at_stamps = {2, 5}};

    const ChaosLoadResult result = run_chaos_load(config);
    EXPECT_TRUE(result.digest_match)
        << "chaos digest " << result.chaos_digest << " != clean "
        << result.clean_digest << " (faults " << result.final_faults << ")";
    EXPECT_TRUE(result.epochs_monotone);
    EXPECT_EQ(result.stale_epochs_pending, 0u);
    EXPECT_EQ(result.injected.kills, 2u);
    EXPECT_GE(result.restarts, 1u);
    // Beyond the pinned kills, SOME soft chaos must have landed (which soft
    // points fire depends on how many batches/publishes the timing produced,
    // so individual counters are not pinned).
    EXPECT_GT(result.injected.denies + result.injected.duplicates +
                  result.injected.defers + result.injected.stalls +
                  result.injected.poisons,
              0u);
    EXPECT_GT(result.queries_ok, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(QueryThreads, ChaosConvergenceTest,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace ocp::chaos
