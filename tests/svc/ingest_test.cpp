// Coalescing and epoch semantics of the single-writer ingest engine. The
// edge cases here — duplicate faults, repairs of never-faulty nodes,
// fault+repair of the same node inside one drain batch — must collapse to
// no-ops or single-epoch publications, never panics or spurious epochs.
#include "svc/ingest.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "chaos/plan.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "svc/loadgen.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

grid::CellSet empty16() { return grid::CellSet(Mesh2D(16, 16)); }

TEST(IngestTest, ConstructorPublishesEpochZero) {
  const Mesh2D m(16, 16);
  IngestEngine engine(grid::CellSet{m, {{4, 4}}});
  const auto snap = engine.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 0u);
  EXPECT_TRUE(snap->faults().contains({4, 4}));
}

TEST(IngestTest, SingleFaultPublishesOneEpoch) {
  IngestEngine engine(empty16());
  const FaultEvent events[] = {{EventKind::Fault, {5, 5}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 1u);
  EXPECT_EQ(outcome.coalesced, 0u);
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_EQ(engine.snapshot()->epoch(), 1u);
  EXPECT_TRUE(engine.snapshot()->faults().contains({5, 5}));
}

TEST(IngestTest, DuplicateFaultEventsInOneBatchCoalesceToOneApply) {
  IngestEngine engine(empty16());
  const FaultEvent events[] = {{EventKind::Fault, {5, 5}},
                               {EventKind::Fault, {5, 5}},
                               {EventKind::Fault, {5, 5}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 1u);
  EXPECT_EQ(outcome.coalesced, 2u);
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(engine.snapshot()->epoch(), 1u);
}

TEST(IngestTest, FaultOfAlreadyFaultyNodeIsNoOpWithNoEpoch) {
  const Mesh2D m(16, 16);
  IngestEngine engine(grid::CellSet{m, {{5, 5}}});
  const FaultEvent events[] = {{EventKind::Fault, {5, 5}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(outcome.coalesced, 1u);
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(engine.snapshot()->epoch(), 0u);
}

TEST(IngestTest, RepairOfNeverFaultyNodeIsNoOp) {
  IngestEngine engine(empty16());
  const FaultEvent events[] = {{EventKind::Repair, {8, 8}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(outcome.coalesced, 1u);
  EXPECT_FALSE(outcome.published);
  EXPECT_TRUE(engine.snapshot()->faults().empty());
}

TEST(IngestTest, FaultThenRepairOfSameNodeInOneBatchCancels) {
  IngestEngine engine(empty16());
  const FaultEvent events[] = {{EventKind::Fault, {5, 5}},
                               {EventKind::Repair, {5, 5}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(outcome.coalesced, 2u);
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(engine.snapshot()->epoch(), 0u);
  EXPECT_TRUE(engine.snapshot()->faults().empty());
}

TEST(IngestTest, RepairThenFaultOfFaultyNodeInOneBatchCancels) {
  const Mesh2D m(16, 16);
  IngestEngine engine(grid::CellSet{m, {{5, 5}}});
  const FaultEvent events[] = {{EventKind::Repair, {5, 5}},
                               {EventKind::Fault, {5, 5}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_FALSE(outcome.published);
  EXPECT_TRUE(engine.snapshot()->faults().contains({5, 5}));
}

TEST(IngestTest, OutOfMachineEventsAreCountedInvalidNeverFatal) {
  IngestEngine engine(empty16());
  const FaultEvent events[] = {{EventKind::Fault, {-1, 3}},
                               {EventKind::Repair, {99, 99}},
                               {EventKind::Fault, {2, 2}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.invalid, 2u);
  EXPECT_EQ(outcome.applied, 1u);
  EXPECT_EQ(outcome.coalesced, 2u);  // invalid events also never apply
  EXPECT_TRUE(outcome.published);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.events, 3u);
}

TEST(IngestTest, MixedBatchPublishesExactlyOneEpoch) {
  const Mesh2D m(16, 16);
  IngestEngine engine(grid::CellSet{m, {{1, 1}}});
  const FaultEvent events[] = {
      {EventKind::Fault, {5, 5}},   {EventKind::Repair, {1, 1}},
      {EventKind::Fault, {5, 5}},   {EventKind::Fault, {10, 10}},
      {EventKind::Repair, {12, 3}},  // never faulty
  };
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_EQ(outcome.applied, 3u);  // +{5,5}, -{1,1}, +{10,10}
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(engine.snapshot()->epoch(), 1u);
  EXPECT_EQ(engine.snapshot()->faults().size(), 2u);
}

TEST(IngestTest, BatchedReplayMatchesFromScratchPipeline) {
  const Mesh2D m(20, 20);
  stats::Rng rng(17);
  const auto initial = fault::uniform_random(m, 8, rng);
  const auto stream = generate_event_stream(m, initial, 120, 0.4, 23);

  IngestEngine engine(initial);
  // Apply in uneven batches to exercise the coalescer.
  std::size_t at = 0;
  std::size_t batch = 1;
  while (at < stream.size()) {
    const std::size_t n = std::min(batch, stream.size() - at);
    (void)engine.apply(std::span(stream).subspan(at, n));
    at += n;
    batch = batch % 7 + 2;
  }

  // The maintained labeling must equal a from-scratch pipeline run over the
  // final fault set, bit for bit.
  const auto& final_faults = engine.snapshot()->faults();
  const labeling::MaintainedLabeling scratch(final_faults);
  EXPECT_EQ(engine.snapshot()->label_digest(),
            Snapshot::build(0, scratch)->label_digest());
  EXPECT_EQ(engine.snapshot()->safety(), scratch.safety());
  EXPECT_EQ(engine.snapshot()->activation(), scratch.activation());
}

TEST(IngestTest, OracleGatePassesCleanPublications) {
  IngestEngine engine(empty16(), {.validate = true});
  const FaultEvent events[] = {{EventKind::Fault, {5, 5}},
                               {EventKind::Fault, {6, 6}}};
  const BatchOutcome outcome = engine.apply(events);
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(engine.stats().oracle_rejects, 0u);
  EXPECT_FALSE(engine.last_violation().has_value());
}

TEST(IngestTest, StatsAccumulateAcrossBatches) {
  IngestEngine engine(empty16());
  const FaultEvent a[] = {{EventKind::Fault, {1, 1}}};
  const FaultEvent b[] = {{EventKind::Fault, {1, 1}},
                          {EventKind::Fault, {2, 2}}};
  (void)engine.apply(a);
  (void)engine.apply(b);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.epochs_published, 2u);
}

TEST(IngestTest, PublishSumsMatchEveryPublishedSnapshot) {
  // The first publish attempt is withheld (poisoned), an empty batch
  // retries it, and the attempt at stamp 2 crashes mid-batch and is
  // replayed: only the publications that land may count.
  chaos::FaultPlan plan(
      {.poison_publish = 1.0, .max_poisons = 1, .kill_at_stamps = {2}});
  IngestStats expected;
  IngestConfig config;
  config.chaos.plan = &plan;
  config.on_publish = [&expected](const Snapshot& snap,
                                  std::span<const Coord> dirty) {
    expected.pages_copied += snap.page_stats().copied;
    expected.pages_shared += snap.page_stats().shared;
    expected.routes_carried += snap.cache_carry_stats().carried;
    expected.routes_invalidated += snap.cache_carry_stats().invalidated;
    expected.dirty_cells += dirty.size();
  };
  IngestEngine engine(grid::CellSet(Mesh2D(32, 32)), config);
  // Warm routes on the serving epoch, near and far from the next fault, so
  // each publication both carries and invalidates cache entries.
  const auto warm = [&engine] {
    const auto snap = engine.snapshot();
    (void)snap->route({0, 0}, {31, 31});
    (void)snap->route({30, 0}, {30, 31});
    (void)snap->route({1, 30}, {6, 30});
  };
  const auto apply = [&](std::vector<FaultEvent> batch) {
    warm();
    return engine.apply(batch);
  };

  const BatchOutcome withheld = apply({{EventKind::Fault, {4, 4}}});
  EXPECT_FALSE(withheld.published);
  EXPECT_TRUE(apply({}).published);  // retry: epoch 1
  const BatchOutcome crashed = apply({{EventKind::Fault, {20, 6}}});
  ASSERT_TRUE(crashed.crashed);
  std::vector<FaultEvent> replay = crashed.requeue;
  replay.push_back({EventKind::Fault, {20, 6}});
  EXPECT_TRUE(apply(replay).published);  // epoch 2
  EXPECT_TRUE(apply({{EventKind::Repair, {4, 4}}}).published);  // epoch 3

  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.epochs_published, 3u);
  EXPECT_EQ(stats.oracle_rejects, 1u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.pages_copied, expected.pages_copied);
  EXPECT_EQ(stats.pages_shared, expected.pages_shared);
  EXPECT_EQ(stats.routes_carried, expected.routes_carried);
  EXPECT_EQ(stats.routes_invalidated, expected.routes_invalidated);
  EXPECT_EQ(stats.dirty_cells, expected.dirty_cells);
  EXPECT_GT(stats.pages_copied, 0u);
  EXPECT_GT(stats.pages_shared, 0u);
  EXPECT_GT(stats.routes_carried, 0u);
  EXPECT_GT(stats.routes_invalidated, 0u);
  EXPECT_GT(stats.dirty_cells, 0u);
}

}  // namespace
}  // namespace ocp::svc
