// Multi-shard serving: shard-grid geometry, halo-exchange convergence and
// the composite-digest-equals-single-writer invariant.
//
// The load-bearing assertion, repeated across every seam geometry and in the
// property sweeps: after the fleet reaches fixpoint, `composite_label_digest`
// over the per-shard snapshots is bit-identical to the `label_digest` a
// single-writer engine publishes when fed the very same event stream. That
// pins the whole halo protocol — versioned adoption, full-extent deltas,
// owner authority — because the digest folds every label plane plus the
// block/region structure, and a seam-spanning region reconstructed from
// stale or partial gossip would shift it.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "svc/loadgen.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

/// Single-writer reference: the same stream through one IngestEngine with
/// the same batching cap.
std::uint64_t single_writer_digest(const grid::CellSet& initial,
                                   std::span<const FaultEvent> stream,
                                   std::size_t max_batch = 256) {
  IngestEngine engine(initial, {});
  for (std::size_t i = 0; i < stream.size(); i += max_batch) {
    const std::size_t take = std::min(max_batch, stream.size() - i);
    (void)engine.apply(stream.subspan(i, take));
  }
  return engine.snapshot()->label_digest();
}

std::vector<FaultEvent> faults_at(std::initializer_list<Coord> cells) {
  std::vector<FaultEvent> events;
  for (const Coord c : cells) events.push_back({EventKind::Fault, c});
  return events;
}

/// A solid rectangle of faults [x0, x1] x [y0, y1].
std::vector<FaultEvent> fault_rect(std::int32_t x0, std::int32_t x1,
                                   std::int32_t y0, std::int32_t y1) {
  std::vector<FaultEvent> events;
  for (std::int32_t y = y0; y <= y1; ++y) {
    for (std::int32_t x = x0; x <= x1; ++x) {
      events.push_back({EventKind::Fault, {x, y}});
    }
  }
  return events;
}

/// The fleet at fixpoint after `stream`: what the seam tests read.
struct FleetRun {
  std::uint64_t digest = 0;
  ServiceStats stats;
};

/// Submits `stream` to a Service of the given shape and batching cap, whose
/// queues hold the whole stream, and flushes it to fixpoint.
FleetRun run_fleet(const grid::CellSet& initial, std::int32_t rows,
                   std::int32_t cols, std::span<const FaultEvent> stream,
                   std::size_t max_batch = 256) {
  Service service(initial, {.shard_rows = rows,
                            .shard_cols = cols,
                            .queue_capacity = stream.size(),
                            .max_batch = max_batch});
  for (const FaultEvent& e : stream) {
    EXPECT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  service.flush();
  return {service.composite_digest(), service.stats()};
}

void expect_fleet_matches_single_writer(const Mesh2D& m, std::int32_t rows,
                                        std::int32_t cols,
                                        std::span<const FaultEvent> stream,
                                        std::size_t max_batch = 256) {
  const grid::CellSet initial(m);
  EXPECT_EQ(run_fleet(initial, rows, cols, stream, max_batch).digest,
            single_writer_digest(initial, stream, max_batch))
      << rows << "x" << cols << " shards, " << stream.size() << " events";
}

// -- shard grid geometry ----------------------------------------------------

TEST(ShardGridTest, PartitionsEveryCellExactlyOnce) {
  const Mesh2D m(32, 32);
  const ShardGrid grid(m, 2, 2);
  ASSERT_EQ(grid.count(), 4u);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const Coord c = m.coord(i);
    const std::uint32_t owner = grid.shard_of(c);
    ASSERT_LT(owner, grid.count());
    std::size_t owners = 0;
    for (std::uint32_t s = 0; s < grid.count(); ++s) {
      if (grid.owns(s, c)) ++owners;
    }
    EXPECT_EQ(owners, 1u);
    EXPECT_TRUE(grid.owns(owner, c));
  }
}

TEST(ShardGridTest, DegenerateRowAndColumnGrids) {
  const Mesh2D m(32, 32);
  const ShardGrid row(m, 1, 4);
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 4);
  const ShardGrid col(m, 4, 1);
  EXPECT_EQ(col.rows(), 4);
  EXPECT_EQ(col.cols(), 1);
  // A 1xS split assigns whole tile columns: x decides everything.
  for (std::int32_t y = 0; y < 32; y += 7) {
    EXPECT_EQ(row.shard_of({3, y}), row.shard_of({3, 0}));
  }
}

TEST(ShardGridTest, ClampsToTileGridAndSlotCapacity) {
  const Mesh2D m(32, 32);
  // Far more shards than tiles: clamped to the 4x4 tile grid, which is
  // exactly the 16-shard cap (the acquire-slot capacity the service's pin
  // sets size against).
  const ShardGrid grid(m, 64, 64);
  EXPECT_LE(grid.count(), 16u);
  EXPECT_GE(grid.count(), 1u);
  const ShardGrid one(m, 1, 1);
  EXPECT_EQ(one.count(), 1u);
}

TEST(ShardGridTest, ShapesAboveTheShardCapThrow) {
  // 64x64 has an 8x8 tile grid: 8x8 shards survive the tile clamp and
  // exceed the cap, which is an error rather than a silent shrink.
  const Mesh2D m(64, 64);
  EXPECT_THROW(ShardGrid(m, 8, 8), std::invalid_argument);
  EXPECT_THROW(ShardGrid(m, 3, 6), std::invalid_argument);
  EXPECT_EQ(ShardGrid(m, 1, 17).count(), 8u);  // tile-clamped, under the cap
  EXPECT_THROW(Service(grid::CellSet(m), {.shard_rows = 4, .shard_cols = 5}),
               std::invalid_argument);
  EXPECT_EQ(ShardGrid(m, 4, 4).count(), 16u);
  EXPECT_EQ(ShardGrid(m, 2, 8).count(), 16u);
}

// -- seam geometries: digest equality vs the single writer ------------------

TEST(ShardedRoundsTest, BlockSpanningVerticalSeam) {
  const Mesh2D m(32, 32);
  // 1x2 shards: the vertical seam sits at a tile boundary (x = 16); the
  // block straddles it.
  const auto events = fault_rect(14, 17, 5, 8);
  expect_fleet_matches_single_writer(m, 1, 2, events);
}

TEST(ShardedRoundsTest, BlockSpanningHorizontalSeam) {
  const Mesh2D m(32, 32);
  const auto events = fault_rect(5, 8, 14, 17);
  expect_fleet_matches_single_writer(m, 2, 1, events);
}

TEST(ShardedRoundsTest, BlockSpanningCornerSeam) {
  const Mesh2D m(32, 32);
  // 2x2 shards: the block covers the four-corner point (16, 16) — every
  // shard owns a piece and must converge on the same component.
  const auto events = fault_rect(14, 17, 14, 17);
  expect_fleet_matches_single_writer(m, 2, 2, events);
}

TEST(ShardedRoundsTest, TilesNarrowerThanFaultyBlock) {
  const Mesh2D m(32, 32);
  // 1x4 shards on a 32-mesh: each shard is 8 cells wide, the block is 12 —
  // wider than any single shard, so the halo extent must relay through a
  // middle shard that owns none of the block's endpoints.
  const auto events = fault_rect(6, 17, 10, 12);
  expect_fleet_matches_single_writer(m, 1, 4, events);
}

TEST(ShardedRoundsTest, SmallBatchesForceMultiRoundGossip) {
  const Mesh2D m(32, 32);
  // max_batch 1: every event is its own batch, halo deltas interleave with
  // later external events — the digest must still converge.
  const auto events = fault_rect(14, 17, 14, 17);
  expect_fleet_matches_single_writer(m, 2, 2, events, 1);
}

TEST(ShardedRoundsTest, TorusWrapSeamCoincidingWithShardSeam) {
  const Mesh2D m(32, 32, Topology::Torus);
  // On a torus, x = 31 and x = 0 are adjacent; with 1x2 shards the wrap
  // seam IS a shard seam (first and last tile columns are different
  // shards). A block spanning the wrap must come out whole.
  std::vector<FaultEvent> events;
  for (std::int32_t y = 4; y <= 6; ++y) {
    for (const std::int32_t x : {30, 31, 0, 1}) {
      events.push_back({EventKind::Fault, {x, y}});
    }
  }
  expect_fleet_matches_single_writer(m, 1, 2, events);
}

TEST(ShardedRoundsTest, RepairsRetractAcrossSeams) {
  const Mesh2D m(32, 32);
  // Grow a seam-spanning block, then repair the middle column: the two
  // remnants must relabel identically on both sides.
  auto events = fault_rect(14, 17, 5, 8);
  for (std::int32_t y = 5; y <= 8; ++y) {
    events.push_back({EventKind::Repair, {16, y}});
  }
  expect_fleet_matches_single_writer(m, 1, 2, events, 4);
}

TEST(ShardedRoundsTest, CountsHaloTrafficOnlyWhenSeamsAreTouched) {
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  // Interior faults whose dirty extents stay inside one shard: no gossip.
  const auto interior = faults_at({{4, 4}, {26, 5}});
  const ServiceStats quiet = run_fleet(initial, 2, 2, interior).stats;
  EXPECT_EQ(quiet.halo_deltas, 0u);
  EXPECT_EQ(quiet.halo_events, 0u);
  EXPECT_EQ(quiet.ingest.applied, 2u);
  // A seam-touching block gossips.
  const auto seam = fault_rect(15, 16, 4, 5);
  const ServiceStats loud = run_fleet(initial, 2, 2, seam).stats;
  EXPECT_GT(loud.halo_deltas, 0u);
}

// -- property sweeps --------------------------------------------------------

TEST(ShardedRoundsTest, PropertyRandomChurnMatchesSingleWriter) {
  for (const Topology topology : {Topology::Mesh, Topology::Torus}) {
    const Mesh2D m(32, 32, topology);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      stats::Rng rng(seed);
      const grid::CellSet initial = fault::uniform_random(m, 12, rng);
      const auto stream =
          generate_event_stream(m, initial, 160, 0.45, seed * 977 + 5);
      const std::uint64_t expected = [&] {
        IngestEngine engine(initial, {});
        for (std::size_t i = 0; i < stream.size(); i += 32) {
          const std::size_t take = std::min<std::size_t>(32, stream.size() - i);
          (void)engine.apply(std::span(stream).subspan(i, take));
        }
        return engine.snapshot()->label_digest();
      }();
      for (const auto& [rows, cols] :
           {std::pair{1, 1}, {1, 2}, {2, 2}, {4, 1}, {2, 4}}) {
        EXPECT_EQ(run_fleet(initial, rows, cols, stream, 32).digest, expected)
            << "seed " << seed << ", " << rows << "x" << cols << " shards, "
            << (topology == Topology::Torus ? "torus" : "mesh");
      }
    }
  }
}

// -- threaded service -------------------------------------------------------

TEST(ShardTest, RequeuedHaloEventReplaysTheNewestHeardState) {
  // Shard 1 faults its cell (16, 6), then repairs it; shard 0 adopts both
  // states in order. A crash of shard 0 had requeued the halo-derived fault
  // event, and the replay reaches the shard as an external event after the
  // repair was adopted: it must not resurrect the fault.
  const Mesh2D m(32, 32);
  const ShardGrid grid(m, 1, 2);
  Shard shard(0, grid, grid::CellSet(m), {});
  const Coord cell{16, 6};
  ASSERT_FALSE(grid.owns(0, cell));
  const HaloDelta fault{1, {{cell, true, 1}}};
  const HaloDelta repair{1, {{cell, false, 2}}};
  static_cast<void>(shard.apply({}, std::span(&fault, 1)));
  ASSERT_TRUE(shard.engine().labeling().faults().contains(cell));
  static_cast<void>(shard.apply({}, std::span(&repair, 1)));
  const FaultEvent replayed[] = {{EventKind::Fault, cell}};
  static_cast<void>(shard.apply(replayed, {}));
  EXPECT_FALSE(shard.engine().labeling().faults().contains(cell));
}

/// Target shards of one `Shard::apply` result.
std::vector<std::uint32_t> targets_of(const Shard::ApplyResult& result) {
  std::vector<std::uint32_t> targets;
  for (const auto& [target, delta] : result.outgoing) targets.push_back(target);
  return targets;
}

TEST(ShardTest, ChangesReachEveryShardToldOfTheCell) {
  const Mesh2D m(32, 32);
  const ShardGrid grid(m, 2, 2);
  ASSERT_EQ(grid.shard_of({15, 14}), 0u);
  ASSERT_EQ(grid.shard_of({16, 14}), 1u);
  ASSERT_EQ(grid.shard_of({15, 16}), 2u);
  // A two-fault block at the corner of shard 0 reaches shards 1 and 2,
  // which are told about both faults.
  Shard shard(0, grid, grid::CellSet(m), {});
  const FaultEvent first[] = {{EventKind::Fault, {15, 14}}};
  const FaultEvent second[] = {{EventKind::Fault, {15, 15}}};
  static_cast<void>(shard.apply(first, {}));
  EXPECT_EQ(targets_of(shard.apply(second, {})),
            (std::vector<std::uint32_t>{1, 2}));
  // Once (15, 15) is repaired, the block {(15, 14)} and its neighbours no
  // longer reach shard 2, but shard 2 still holds the fault: it must hear
  // of the repair.
  const FaultEvent repair_second[] = {{EventKind::Repair, {15, 15}}};
  const FaultEvent repair_first[] = {{EventKind::Repair, {15, 14}}};
  static_cast<void>(shard.apply(repair_second, {}));
  EXPECT_EQ(targets_of(shard.apply(repair_first, {})),
            (std::vector<std::uint32_t>{1, 2}));

  // Every replica starts with the initial faults, so repairing one reaches
  // the whole fleet, not only the neighbours of its block.
  Shard owner(1, grid, grid::CellSet(m, {{20, 6}}), {});
  const FaultEvent repair_initial[] = {{EventKind::Repair, {20, 6}}};
  EXPECT_EQ(targets_of(owner.apply(repair_initial, {})),
            (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(ShardedServiceTest, SubmitFlushQueryAcrossShards) {
  const Mesh2D m(32, 32);
  Service service(grid::CellSet(m),
                         {.shard_rows = 2, .shard_cols = 2});
  ASSERT_EQ(service.shard_grid().count(), 4u);
  // One fault per shard.
  for (const Coord c : {Coord{4, 4}, {20, 4}, {4, 20}, {20, 20}}) {
    ASSERT_EQ(service.submit({EventKind::Fault, c}), SubmitStatus::Accepted);
  }
  service.flush();
  for (const Coord c : {Coord{4, 4}, {20, 4}, {4, 20}, {20, 20}}) {
    const StatusAnswer answer = service.query_status(c);
    EXPECT_EQ(answer.status, QueryStatus::Ok);
    EXPECT_EQ(answer.node, NodeStatus::Faulty);
    EXPECT_GE(answer.epoch, 1u);
  }
  EXPECT_EQ(service.query_status({0, 0}).node, NodeStatus::Enabled);
  const auto stats = service.stats();
  EXPECT_EQ(stats.events_accepted, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ShardedServiceTest, SeamBlockConvergesToSingleWriterDigest) {
  const Mesh2D m(32, 32);
  const grid::CellSet initial(m);
  const auto events = fault_rect(14, 17, 14, 17);
  Service service(initial, {.shard_rows = 2, .shard_cols = 2});
  for (const FaultEvent& e : events) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  // Threaded gossip needs iterated flushes only in theory — the barrier
  // already waits for empty inboxes — but a crashed-free flush must land at
  // the fixpoint in one call.
  service.flush();
  EXPECT_EQ(service.composite_digest(), single_writer_digest(initial, events));
  EXPECT_GT(service.stats().halo_deltas, 0u);
}

TEST(ShardedServiceTest, InvalidCoordinatesAnswerTyped) {
  const Mesh2D m(32, 32);
  Service service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  EXPECT_EQ(service.query_status({-1, 5}).status,
            QueryStatus::InvalidArgument);
  EXPECT_EQ(service.query_region({99, 0}).status,
            QueryStatus::InvalidArgument);
  EXPECT_EQ(service.query_route({0, 0}, {99, 99}).status,
            QueryStatus::InvalidArgument);
  // Submitting an out-of-machine event is never fatal: it routes to shard 0
  // and is counted invalid there.
  EXPECT_EQ(service.submit({EventKind::Fault, {-3, -3}}),
            SubmitStatus::Accepted);
  service.flush();
  EXPECT_EQ(service.stats().ingest.invalid, 1u);
}

TEST(ShardedServiceTest, CrossShardRouteStitchesDelivered) {
  const Mesh2D m(32, 32);
  Service service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  // A wall straddling the center forces the route to interact with labels
  // owned by several shards.
  for (const FaultEvent& e : fault_rect(12, 19, 15, 16)) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  service.flush();
  const RouteAnswer answer = service.query_route({2, 2}, {29, 29});
  ASSERT_EQ(answer.status, QueryStatus::Ok);
  ASSERT_TRUE(answer.route.delivered());
  // The stitched path is a genuine walk: 4-neighbor steps from src to dst.
  ASSERT_GE(answer.route.path.size(), 2u);
  EXPECT_EQ(answer.route.path.front(), (Coord{2, 2}));
  EXPECT_EQ(answer.route.path.back(), (Coord{29, 29}));
  for (std::size_t i = 1; i < answer.route.path.size(); ++i) {
    const Coord a = answer.route.path[i - 1];
    const Coord b = answer.route.path[i];
    EXPECT_EQ(std::abs(a.x - b.x) + std::abs(a.y - b.y), 1)
        << "hop " << i << " is not a mesh step";
    // Never through a faulty cell.
    EXPECT_NE(service.query_status(b).node, NodeStatus::Faulty);
  }
}

TEST(ShardedServiceTest, BatchCarriesCompositeEpochVector) {
  const Mesh2D m(32, 32);
  Service service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  ASSERT_EQ(service.submit({EventKind::Fault, {4, 4}}),
            SubmitStatus::Accepted);
  service.flush();
  const std::vector<QueryItem> items = {
      {QueryKind::Status, {4, 4}, {}},     // shard 0
      {QueryKind::Status, {20, 20}, {}},   // shard 3
      {QueryKind::Region, {4, 5}, {}},     // shard 0 again: same pin
  };
  const BatchAnswer answer = service.query_batch(items);
  ASSERT_EQ(answer.status, QueryStatus::Ok);
  EXPECT_EQ(answer.completed, 3u);
  EXPECT_EQ(answer.items[0].node, NodeStatus::Faulty);
  ASSERT_EQ(answer.epochs.size(), 2u);  // only shards the batch touched
  EXPECT_LT(answer.epochs[0].shard, answer.epochs[1].shard);
  EXPECT_GE(answer.epochs[0].epoch, 1u);  // shard 0 applied the fault
}

TEST(ShardedServiceTest, LoadHarnessMatchesSingleWriterAtEveryThreadCount) {
  for (const Topology topology : {Topology::Mesh, Topology::Torus}) {
    SvcLoadConfig config = query_heavy_profile(1);
    config.topology = topology;
    config.events = 96;
    config.queries_per_thread = 150;
    const SvcLoadResult reference = run_svc_load(config);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      config.query_threads = threads;
      for (const auto& [rows, cols] :
           {std::pair{1, 1}, std::pair{1, 2}, std::pair{2, 2}}) {
        config.service.shard_rows = rows;
        config.service.shard_cols = cols;
        const SvcLoadResult sharded = run_svc_load(config);
        EXPECT_EQ(sharded.stream_digest, reference.stream_digest);
        EXPECT_EQ(sharded.final_digest, reference.final_digest)
            << rows << "x" << cols << " shards, " << threads
            << " query threads, "
            << (topology == Topology::Torus ? "torus" : "mesh");
        EXPECT_TRUE(sharded.epochs_monotone);
        EXPECT_EQ(sharded.submits_shed, 0u);
      }
      config.service = {};
    }
  }
}

TEST(ShardedServiceTest, OneShardFleetMatchesSingleWriterService) {
  SvcLoadConfig config = query_heavy_profile(2);
  config.events = 64;
  config.queries_per_thread = 100;
  // The single writer: the same seeded stream straight through one engine.
  const Mesh2D m(config.mesh_side, config.mesh_side);
  stats::Rng master(config.seed);
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  const grid::CellSet initial =
      fault::uniform_random(m, config.initial_faults, fault_rng);
  const auto stream = generate_event_stream(
      m, initial, config.events, config.repair_fraction, stream_seed);
  const SvcLoadResult one = run_svc_load(config);
  EXPECT_EQ(one.final_digest, single_writer_digest(initial, stream));
  EXPECT_EQ(one.halo_deltas, 0u);  // nobody to gossip with
}

TEST(ShardedServiceTest, CompositeDigestHelperAgreesWithServiceAccessor) {
  const Mesh2D m(32, 32);
  Service service(grid::CellSet(m), {.shard_rows = 2, .shard_cols = 2});
  for (const FaultEvent& e : fault_rect(15, 16, 15, 16)) {
    ASSERT_EQ(service.submit(e), SubmitStatus::Accepted);
  }
  service.flush();
  EXPECT_EQ(service.composite_digest(),
            composite_label_digest(service.shard_grid(), service.snapshots()));
}

}  // namespace
}  // namespace ocp::svc
