#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>

#include "chaos/plan.hpp"
#include "svc/loadgen.hpp"

namespace ocp::svc {
namespace {

using namespace std::chrono_literals;
using mesh::Coord;
using mesh::Mesh2D;

grid::CellSet empty16() { return grid::CellSet(Mesh2D(16, 16)); }

/// Every test runs on the single writer and on a 2x2 fleet (8x8 shards of
/// the 16x16 machine).
constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {{1, 1}, {2, 2}};

ServiceConfig shaped(std::pair<std::int32_t, std::int32_t> shape,
                     ServiceConfig config = {}) {
  config.shard_rows = shape.first;
  config.shard_cols = shape.second;
  return config;
}

std::string shape_name(std::pair<std::int32_t, std::int32_t> shape) {
  return std::to_string(shape.first) + "x" + std::to_string(shape.second);
}

TEST(ServiceTest, SubmitFlushQueryRoundTrip) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    ASSERT_EQ(service.submit({EventKind::Fault, {5, 5}}),
              SubmitStatus::Accepted);
    service.flush();

    const StatusAnswer answer = service.query_status({5, 5});
    EXPECT_EQ(answer.status, QueryStatus::Ok);
    EXPECT_EQ(answer.node, NodeStatus::Faulty);
    EXPECT_GE(answer.epoch, 1u);

    // Repair and observe the node rejoin.
    ASSERT_EQ(service.submit({EventKind::Repair, {5, 5}}),
              SubmitStatus::Accepted);
    service.flush();
    EXPECT_EQ(service.query_status({5, 5}).node, NodeStatus::Enabled);
  }
}

TEST(ServiceTest, WaitForEpochGivesReadYourWrites) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    ASSERT_EQ(service.submit({EventKind::Fault, {3, 3}}),
              SubmitStatus::Accepted);
    ASSERT_EQ(service.wait_for_epoch(service.shard_of({3, 3}), 1, 5000ms), QueryStatus::Ok);
    EXPECT_EQ(service.query_status({3, 3}).node, NodeStatus::Faulty);
  }
}

TEST(ServiceTest, WaitForEpochTimesOutWhilePaused) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape, {.start_paused = true}));
    ASSERT_EQ(service.submit({EventKind::Fault, {3, 3}}),
              SubmitStatus::Accepted);
    EXPECT_EQ(service.wait_for_epoch(service.shard_of({3, 3}), 1, 20ms), QueryStatus::Timeout);
    // Still serving epoch 0 while held.
    EXPECT_EQ(service.query_status({3, 3}).node, NodeStatus::Enabled);
    service.resume();
    EXPECT_EQ(service.wait_for_epoch(service.shard_of({3, 3}), 1, 5000ms), QueryStatus::Ok);
  }
}

TEST(ServiceTest, PausedServiceOverloadsDeterministically) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    // With the ingest loop held, the bounded queue fills and the (cap+1)-th
    // submission is rejected with a typed verdict — no blocking, no drop of
    // accepted events.
    Service service(empty16(),
                    shaped(shape, {.queue_capacity = 4, .start_paused = true}));
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(service.submit({EventKind::Fault, {i, 0}}),
                SubmitStatus::Accepted);
    }
    // (7, 7) shares the first four's queue at either shape.
    EXPECT_EQ(service.submit({EventKind::Fault, {7, 7}}),
              SubmitStatus::Overloaded);
    EXPECT_EQ(service.stats().events_rejected, 1u);

    // flush() un-holds the loop rather than deadlocking; every accepted
    // event lands.
    service.flush();
    const auto snap = service.snapshot(service.shard_of({0, 0}));
    EXPECT_EQ(snap->faults().size(), 4u);
    EXPECT_FALSE(snap->faults().contains({7, 7}));
  }
}

TEST(ServiceTest, CoalescedBurstPublishesAtMostOneEpochPerBatch) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape, {.start_paused = true}));
    // A held queue guarantees these drain as one batch.
    ASSERT_EQ(service.submit({EventKind::Fault, {5, 5}}),
              SubmitStatus::Accepted);
    ASSERT_EQ(service.submit({EventKind::Fault, {5, 5}}),
              SubmitStatus::Accepted);
    ASSERT_EQ(service.submit({EventKind::Repair, {5, 5}}),
              SubmitStatus::Accepted);
    service.flush();
    // fault+dup+repair of one node collapses to nothing: epoch 0 still serves.
    EXPECT_EQ(service.snapshot(service.shard_of({5, 5}))->epoch(), 0u);
    EXPECT_TRUE(service.snapshot(service.shard_of({5, 5}))->faults().empty());
    EXPECT_EQ(service.stats().ingest.coalesced, 3u);
  }
}

TEST(ServiceTest, InvalidCoordinatesGetTypedAnswers) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    EXPECT_EQ(service.query_status({-1, 0}).status,
              QueryStatus::InvalidArgument);
    EXPECT_EQ(service.query_region({16, 16}).status,
              QueryStatus::InvalidArgument);
    EXPECT_EQ(service.query_route({0, 0}, {0, 99}).status,
              QueryStatus::InvalidArgument);
  }
}

TEST(ServiceTest, RegionQueryDescribesDisabledRegion) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    const Mesh2D m(16, 16);
    Service service(grid::CellSet{m, {{5, 5}, {6, 6}}}, shaped(shape));
    const RegionAnswer faulty = service.query_region({5, 5});
    ASSERT_EQ(faulty.status, QueryStatus::Ok);
    EXPECT_GE(faulty.region_id, 0);
    // {5,5} and {6,6} merge into one 2x2 faulty block, but the bridging
    // nodes stay enabled (phase-2 activation), so the disabled region is
    // just the two faults.
    EXPECT_EQ(faulty.region_size, 2u);
    EXPECT_EQ(faulty.fault_count, 2u);

    const RegionAnswer healthy = service.query_region({0, 0});
    ASSERT_EQ(healthy.status, QueryStatus::Ok);
    EXPECT_EQ(healthy.region_id, -1);
    EXPECT_EQ(healthy.region_size, 0u);
  }
}

TEST(ServiceTest, RouteQueryDetoursAroundDisabledRegion) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    const Mesh2D m(16, 16);
    Service service(grid::CellSet{m, {{7, 7}, {8, 7}}}, shaped(shape));
    const RouteAnswer answer = service.query_route({0, 7}, {15, 7});
    ASSERT_EQ(answer.status, QueryStatus::Ok);
    EXPECT_TRUE(answer.route.delivered());
    for (const Coord c : answer.route.path) {
      EXPECT_NE(service.query_status(c).node, NodeStatus::Faulty);
    }
  }
}

TEST(ServiceTest, BatchAnswersAgainstOneEpoch) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    const Mesh2D m(16, 16);
    Service service(grid::CellSet{m, {{4, 4}}}, shaped(shape));
    const std::vector<QueryItem> items = {
        {QueryKind::Status, {4, 4}, {}},
        {QueryKind::Region, {4, 4}, {}},
        {QueryKind::Route, {0, 0}, {15, 15}},
        {QueryKind::Status, {-3, 0}, {}},  // invalid item, batch continues
    };
    const BatchAnswer answer = service.query_batch(items);
    ASSERT_EQ(answer.status, QueryStatus::Ok);
    EXPECT_EQ(answer.completed, 4u);
    ASSERT_EQ(answer.items.size(), 4u);
    EXPECT_EQ(answer.items[0].node, NodeStatus::Faulty);
    EXPECT_GE(answer.items[1].region_id, 0);
    EXPECT_EQ(answer.items[2].route_status, routing::RouteStatus::Delivered);
    EXPECT_GT(answer.items[2].hops, 0);
    EXPECT_EQ(answer.items[3].status, QueryStatus::InvalidArgument);
  }
}

TEST(ServiceTest, ExpiredBatchDeadlineYieldsTypedTimeouts) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    const std::vector<QueryItem> items = {{QueryKind::Status, {1, 1}, {}},
                                          {QueryKind::Status, {2, 2}, {}}};
    // A deadline in the past: nothing executes, every item times out.
    const auto past = std::chrono::steady_clock::now() - 1s;
    const BatchAnswer answer = service.query_batch(items, past);
    EXPECT_EQ(answer.status, QueryStatus::Timeout);
    EXPECT_EQ(answer.completed, 0u);
    for (const auto& item : answer.items) {
      EXPECT_EQ(item.status, QueryStatus::Timeout);
    }
  }
}

TEST(ServiceTest, InflightCapOfOneStillServesSequentialQueries) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape, {.max_inflight_queries = 1}));
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(service.query_status({i, i}).status, QueryStatus::Ok);
    }
    EXPECT_EQ(service.stats().query_overloads, 0u);
  }
}

TEST(ServiceTest, StatsReflectQueueAndIngest) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    ASSERT_EQ(service.submit({EventKind::Fault, {2, 2}}),
              SubmitStatus::Accepted);
    ASSERT_EQ(service.submit({EventKind::Fault, {9, 9}}),
              SubmitStatus::Accepted);
    service.flush();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.events_accepted, 2u);
    EXPECT_EQ(stats.events_rejected, 0u);
    EXPECT_EQ(stats.ingest.applied, 2u);
    EXPECT_GE(stats.ingest.epochs_published, 1u);
    for (std::uint32_t s = 0; s < service.shard_grid().count(); ++s) {
      EXPECT_EQ(stats.shard_epochs[s], service.snapshot(s)->epoch());
    }
  }
}

TEST(ServiceTest, StatsSumEveryShardsIngestStats) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    Service service(empty16(), shaped(shape));
    for (const Coord c : {Coord{2, 2}, Coord{3, 3}, Coord{9, 9}, Coord{12, 3},
                          Coord{5, 13}}) {
      ASSERT_EQ(service.submit({EventKind::Fault, c}), SubmitStatus::Accepted);
      (void)service.query_route({0, 0}, {15, 15});
      service.flush();
    }
    IngestStats sum;
    for (std::uint32_t s = 0; s < service.shard_grid().count(); ++s) {
      const IngestStats shard = service.engine(s).stats();
      EXPECT_EQ(shard.epochs_published, service.snapshot(s)->epoch());
      sum.epochs_published += shard.epochs_published;
      sum.applied += shard.applied;
      sum.pages_copied += shard.pages_copied;
      sum.pages_shared += shard.pages_shared;
      sum.routes_carried += shard.routes_carried;
      sum.routes_invalidated += shard.routes_invalidated;
      sum.dirty_cells += shard.dirty_cells;
    }
    const IngestStats total = service.stats().ingest;
    EXPECT_EQ(total.epochs_published, sum.epochs_published);
    EXPECT_EQ(total.applied, sum.applied);
    EXPECT_EQ(total.pages_copied, sum.pages_copied);
    EXPECT_EQ(total.pages_shared, sum.pages_shared);
    EXPECT_EQ(total.routes_carried, sum.routes_carried);
    EXPECT_EQ(total.routes_invalidated, sum.routes_invalidated);
    EXPECT_EQ(total.dirty_cells, sum.dirty_cells);
    EXPECT_GT(total.pages_copied, 0u);
    EXPECT_GT(total.dirty_cells, 0u);
  }
}

TEST(ServiceTest, DestructorAppliesAcceptedEventsBeforeExit) {
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape_name(shape));
    // Shutdown with a queued backlog must drain, not drop: accepted events
    // are a contract.
    const Mesh2D m(16, 16);
    {
      Service service(grid::CellSet(m), shaped(shape, {.start_paused = true}));
      for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(service.submit({EventKind::Fault, {i, i}}),
                  SubmitStatus::Accepted);
      }
      service.resume();
    }  // destructor joins the ingest thread after the queue drains
    SUCCEED();
  }
}

TEST(ServiceTest, QuiesceRetriesAWithheldPublication) {
  // The fault's only publish attempt is poisoned: nothing is left queued,
  // so a flush alone cannot republish. quiesce's publish retry must.
  chaos::FaultPlan plan({.poison_publish = 1.0, .max_poisons = 1});
  ServiceConfig config;
  config.ingest.chaos.plan = &plan;
  Service service(empty16(), config);
  ASSERT_EQ(service.submit({EventKind::Fault, {5, 5}}),
            SubmitStatus::Accepted);
  service.flush();
  ASSERT_EQ(service.stale_epochs_pending(), 1u);
  plan.disarm();
  quiesce(service);
  EXPECT_EQ(service.stale_epochs_pending(), 0u);
  EXPECT_EQ(service.query_status({5, 5}).node, NodeStatus::Faulty);
}

}  // namespace
}  // namespace ocp::svc
