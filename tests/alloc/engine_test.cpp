// Job lifecycle engine: admission, queue backfill, lifetime expiry,
// fault-driven eviction with bounded-retry recovery, and the replay-identity
// placement digest. Epoch turnover is driven the way production drives it:
// a private IngestEngine whose on_publish hook feeds (snapshot, dirty
// cells) into observe_epoch.
#include "alloc/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/loadgen.hpp"
#include "alloc/oracle.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "svc/ingest.hpp"
#include "svc/loadgen.hpp"

namespace ocp::alloc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// An AllocEngine wired to its own ingest loop, the production topology.
struct Rig {
  std::unique_ptr<AllocEngine> engine;
  std::unique_ptr<svc::IngestEngine> ingest;

  explicit Rig(const Mesh2D& m, AllocConfig config = {}) {
    svc::IngestConfig ingest_config;
    ingest_config.on_publish = [this](const svc::Snapshot& snap,
                                      std::span<const mesh::Coord> dirty) {
      if (engine) engine->observe_epoch(snap, dirty);
    };
    ingest = std::make_unique<svc::IngestEngine>(grid::CellSet(m),
                                                 ingest_config);
    engine = std::make_unique<AllocEngine>(*ingest->snapshot(),
                                           std::move(config));
  }

  void fault(Coord c) {
    const svc::FaultEvent e[] = {{svc::EventKind::Fault, c}};
    static_cast<void>(ingest->apply(e));
  }
  void repair(Coord c) {
    const svc::FaultEvent e[] = {{svc::EventKind::Repair, c}};
    static_cast<void>(ingest->apply(e));
  }
  [[nodiscard]] bool oracle_ok() const {
    return check_engine(*engine, *ingest->snapshot()).ok();
  }
};

JobRequest job(std::uint64_t id, std::int32_t w, std::int32_t h,
               std::uint32_t lifetime = 0) {
  return {id, w, h, lifetime};
}

TEST(AllocEngineTest, PlacesFirstFitAtOrigin) {
  Rig rig(Mesh2D(8, 8));
  const SubmitResult r = rig.engine->submit(job(1, 3, 3));
  EXPECT_EQ(r.outcome, SubmitOutcome::Placed);
  EXPECT_EQ(r.rect, (geom::Rect{{0, 0}, {2, 2}}));
  EXPECT_EQ(rig.engine->occupant_at({1, 1}), 1u);
  EXPECT_FALSE(rig.engine->occupant_at({3, 3}).has_value());
  EXPECT_DOUBLE_EQ(rig.engine->utilization(), 9.0 / 64.0);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, RejectsBadDimensionsAndDuplicateIds) {
  Rig rig(Mesh2D(8, 8));
  EXPECT_EQ(rig.engine->submit(job(1, 0, 3)).outcome, SubmitOutcome::Rejected);
  EXPECT_EQ(rig.engine->submit(job(2, 9, 1)).outcome, SubmitOutcome::Rejected);
  EXPECT_EQ(rig.engine->submit(job(3, 2, 2)).outcome, SubmitOutcome::Placed);
  EXPECT_EQ(rig.engine->submit(job(3, 1, 1)).outcome, SubmitOutcome::Rejected);
  EXPECT_EQ(rig.engine->stats().rejected, 3u);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, FullQueueRejects) {
  AllocConfig config;
  config.queue_capacity = 1;
  Rig rig(Mesh2D(4, 4), config);
  EXPECT_EQ(rig.engine->submit(job(1, 4, 4)).outcome, SubmitOutcome::Placed);
  EXPECT_EQ(rig.engine->submit(job(2, 4, 4)).outcome, SubmitOutcome::Queued);
  EXPECT_EQ(rig.engine->submit(job(3, 1, 1)).outcome, SubmitOutcome::Rejected);
  EXPECT_EQ(rig.engine->stats().queued, 1u);
  EXPECT_EQ(rig.engine->stats().rejected, 1u);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, ReleaseDrainsTheQueue) {
  Rig rig(Mesh2D(6, 6));
  ASSERT_EQ(rig.engine->submit(job(1, 6, 6)).outcome, SubmitOutcome::Placed);
  ASSERT_EQ(rig.engine->submit(job(2, 2, 2)).outcome, SubmitOutcome::Queued);
  EXPECT_FALSE(rig.engine->release(99));
  EXPECT_TRUE(rig.engine->release(1));
  EXPECT_EQ(rig.engine->live().count(2), 1u);
  EXPECT_TRUE(rig.engine->pending().empty());
  EXPECT_EQ(rig.engine->stats().released, 1u);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, LifetimeExpiryCompletesJobs) {
  Rig rig(Mesh2D(6, 6));
  ASSERT_EQ(rig.engine->submit(job(1, 2, 2, 2)).outcome,
            SubmitOutcome::Placed);
  EXPECT_EQ(rig.engine->tick(), 0u);
  EXPECT_EQ(rig.engine->tick(), 1u);
  EXPECT_TRUE(rig.engine->live().empty());
  EXPECT_EQ(rig.engine->stats().completed, 1u);
  EXPECT_DOUBLE_EQ(rig.engine->utilization(), 0.0);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, EvictionReplacesWhenRoomExists) {
  Rig rig(Mesh2D(8, 8));
  ASSERT_EQ(rig.engine->submit(job(1, 2, 2)).outcome, SubmitOutcome::Placed);
  rig.fault({0, 0});  // inside the footprint
  EXPECT_EQ(rig.engine->stats().evicted, 1u);
  EXPECT_EQ(rig.engine->stats().replaced, 1u);
  ASSERT_EQ(rig.engine->live().count(1), 1u);
  const LiveJob& j = rig.engine->live().at(1);
  EXPECT_EQ(j.evictions, 1u);
  // The new footprint avoids every blocked cell.
  for (std::int32_t y = j.rect.lo.y; y <= j.rect.hi.y; ++y) {
    for (std::int32_t x = j.rect.lo.x; x <= j.rect.hi.x; ++x) {
      EXPECT_FALSE(rig.engine->blocked_at({x, y}));
    }
  }
  EXPECT_EQ(rig.engine->epoch(), rig.ingest->snapshot()->epoch());
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, EvictionRequeuesWithBackoffHoldThenRecovers) {
  Rig rig(Mesh2D(4, 4));
  ASSERT_EQ(rig.engine->submit(job(1, 4, 4)).outcome, SubmitOutcome::Placed);
  rig.fault({2, 2});
  // No 4x4 fits any more: evicted, re-queued at the head with a one-tick
  // eviction hold and a backoff-accounted delay.
  EXPECT_EQ(rig.engine->stats().evicted, 1u);
  EXPECT_EQ(rig.engine->stats().requeued, 1u);
  ASSERT_EQ(rig.engine->pending().size(), 1u);
  EXPECT_EQ(rig.engine->pending().front().not_before_tick, 1u);
  EXPECT_GT(rig.engine->stats().backoff_us, 0u);
  EXPECT_TRUE(rig.oracle_ok());
  // Repair the cell; the job is still held this tick, one tick later it
  // lands.
  rig.repair({2, 2});
  EXPECT_TRUE(rig.engine->live().empty());
  static_cast<void>(rig.engine->tick());
  EXPECT_EQ(rig.engine->live().count(1), 1u);
  EXPECT_TRUE(rig.engine->pending().empty());
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, ShedsAfterBoundedRetries) {
  AllocConfig config;
  config.max_retries = 0;
  Rig rig(Mesh2D(4, 4), config);
  ASSERT_EQ(rig.engine->submit(job(1, 4, 4)).outcome, SubmitOutcome::Placed);
  rig.fault({1, 1});
  EXPECT_EQ(rig.engine->stats().evicted, 1u);
  EXPECT_EQ(rig.engine->stats().shed, 1u);
  EXPECT_TRUE(rig.engine->live().empty());
  EXPECT_TRUE(rig.engine->pending().empty());
  // Conservation after a shed: submitted == shed.
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, QueueBackfillsPastABlockedHead) {
  Rig rig(Mesh2D(8, 8));
  ASSERT_EQ(rig.engine->submit(job(1, 8, 8)).outcome, SubmitOutcome::Placed);
  ASSERT_EQ(rig.engine->submit(job(2, 8, 8)).outcome, SubmitOutcome::Queued);
  ASSERT_EQ(rig.engine->submit(job(3, 1, 1)).outcome, SubmitOutcome::Queued);
  rig.fault({4, 4});
  // Job 1 is evicted and re-queued at the head (8x8 no longer fits); job 2
  // cannot fit either; job 3 must still land — a blocked head does not
  // starve it.
  EXPECT_EQ(rig.engine->live().count(3), 1u);
  EXPECT_EQ(rig.engine->pending().size(), 2u);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, RepairOpensSpaceForQueuedJobs) {
  Rig rig(Mesh2D(4, 4));
  rig.fault({0, 0});
  ASSERT_EQ(rig.engine->submit(job(1, 4, 4)).outcome, SubmitOutcome::Queued);
  rig.repair({0, 0});
  // The repair epoch's drain places the queued job without any tick.
  EXPECT_EQ(rig.engine->live().count(1), 1u);
  EXPECT_TRUE(rig.oracle_ok());
}

TEST(AllocEngineTest, PlacementDigestReplaysIdentically) {
  const auto drive = [](Rig& rig) {
    static_cast<void>(rig.engine->submit(job(1, 3, 2)));
    static_cast<void>(rig.engine->submit(job(2, 2, 2, 3)));
    rig.fault({1, 0});
    static_cast<void>(rig.engine->tick());
    static_cast<void>(rig.engine->release(1));
    static_cast<void>(rig.engine->tick());
  };
  Rig a(Mesh2D(8, 8));
  Rig b(Mesh2D(8, 8));
  drive(a);
  drive(b);
  EXPECT_EQ(a.engine->placement_digest(), b.engine->placement_digest());
  // A different interleaving is a different history.
  Rig c(Mesh2D(8, 8));
  static_cast<void>(c.engine->submit(job(2, 2, 2, 3)));
  static_cast<void>(c.engine->submit(job(1, 3, 2)));
  c.fault({1, 0});
  static_cast<void>(c.engine->tick());
  static_cast<void>(c.engine->release(1));
  static_cast<void>(c.engine->tick());
  EXPECT_NE(a.engine->placement_digest(), c.engine->placement_digest());
}

TEST(AllocEngineTest, ViewTracksEngineState) {
  Rig rig(Mesh2D(8, 8));
  const auto v0 = rig.engine->view();
  ASSERT_NE(v0, nullptr);
  EXPECT_EQ(v0->live, 0u);
  EXPECT_EQ(v0->free_cells, 64u);
  static_cast<void>(rig.engine->submit(job(1, 4, 4)));
  rig.fault({7, 7});
  static_cast<void>(rig.engine->tick());
  const auto v1 = rig.engine->view();
  EXPECT_EQ(v1->live, 1u);
  EXPECT_EQ(v1->tick, 1u);
  EXPECT_GE(v1->epoch, 1u);
  EXPECT_EQ(v1->submitted, 1u);
  EXPECT_EQ(v1->placement_digest, rig.engine->placement_digest());
  EXPECT_GT(v1->utilization, 0.0);
  EXPECT_GT(v1->fragmentation(), 0.0);
  // The old handle is unchanged — RCU, not in-place mutation.
  EXPECT_EQ(v0->live, 0u);
}

TEST(AllocEngineTest, StrategiesProduceDifferentButValidPackings) {
  for (const auto kind : {StrategyKind::FirstFit, StrategyKind::BestFit,
                          StrategyKind::BoundaryFit}) {
    AllocConfig config;
    config.strategy = kind;
    Rig rig(Mesh2D(10, 10), config);
    for (std::uint64_t id = 1; id <= 12; ++id) {
      static_cast<void>(
          rig.engine->submit(job(id, 1 + static_cast<std::int32_t>(id % 3),
                                 1 + static_cast<std::int32_t>(id % 4))));
    }
    rig.fault({5, 5});
    static_cast<void>(rig.engine->tick());
    EXPECT_TRUE(rig.oracle_ok()) << to_string(kind);
  }
}

/// What a from-scratch index over the engine's state at one publish says.
struct ScanExpectation {
  std::shared_ptr<const AllocView> view;
  std::int64_t largest = 0;
  double fragmentation = 0.0;
};

ScanExpectation expect_fresh_scan(const AllocEngine& engine) {
  const FreeRegionIndex scan =
      FreeRegionIndex::build(engine.machine(), [&](Coord c) {
        return engine.blocked_at(c) || engine.occupant_at(c).has_value();
      });
  const std::int64_t largest = scan.largest_free_rect_area();
  const double fragmentation =
      scan.free_cells() == 0 ? 1.0
                             : static_cast<double>(largest) /
                                   static_cast<double>(scan.free_cells());
  return {engine.view(), largest, fragmentation};
}

/// Seeded submit/release/tick/observe stream; every published view's lazy
/// values must equal a fresh scan of the engine state at that publish. The
/// views are read only after the stream ends, so each value is computed
/// from the view's frozen plane long after the engine moved on.
void check_lazy_values(mesh::Topology topology, std::uint64_t seed) {
  const Mesh2D m(20, 20, topology);  // 3 x 3 tiles, clipped edge tiles
  stats::Rng master(seed);
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  const std::uint64_t job_seed = master.fork_seed();
  stats::Rng op_rng(master.fork_seed());
  const grid::CellSet initial = fault::uniform_random(m, 24, fault_rng);
  const auto stream = svc::generate_event_stream(m, initial, 64, 0.5,
                                                 stream_seed);
  const auto jobs = generate_job_stream(m, 64, 7, 2, 12, job_seed);

  std::unique_ptr<AllocEngine> engine;
  svc::IngestConfig ingest_config;
  ingest_config.on_publish = [&engine](const svc::Snapshot& snap,
                                       std::span<const Coord> dirty) {
    if (engine) engine->observe_epoch(snap, dirty);
  };
  svc::IngestEngine ingest(initial, ingest_config);
  engine = std::make_unique<AllocEngine>(*ingest.snapshot());

  std::vector<ScanExpectation> expected{expect_fresh_scan(*engine)};
  std::size_t job_pos = 0;
  std::size_t stream_pos = 0;
  for (int step = 0; step < 160; ++step) {
    const std::int64_t roll = op_rng.uniform_int(0, 99);
    if (roll < 40 && job_pos < jobs.size()) {
      static_cast<void>(engine->submit(jobs[job_pos++]));
    } else if (roll < 70 && stream_pos < stream.size()) {
      const svc::FaultEvent e = stream[stream_pos++];
      static_cast<void>(ingest.apply(std::span<const svc::FaultEvent>(&e, 1)));
    } else if (roll < 90) {
      static_cast<void>(engine->tick());
    } else if (!engine->live().empty()) {
      static_cast<void>(engine->release(engine->live().begin()->first));
    }
    if (expected.back().view != engine->view()) {
      expected.push_back(expect_fresh_scan(*engine));
    }
  }
  ASSERT_GT(expected.size(), 100u);
  for (auto it = expected.rbegin(); it != expected.rend(); ++it) {
    EXPECT_EQ(it->view->largest_free_rect(), it->largest) << "seed " << seed;
    EXPECT_EQ(it->view->fragmentation(), it->fragmentation) << "seed " << seed;
  }
}

TEST(AllocEngineTest, LazyViewValuesMatchAFreshScanOnMeshAndTorus) {
  for (const std::uint64_t seed : {11u, 12u}) {
    check_lazy_values(mesh::Topology::Mesh, seed);
    check_lazy_values(mesh::Topology::Torus, seed + 100);
  }
}

/// Busy pages `next` rebuilt instead of sharing with `prev`.
std::vector<std::uint32_t> rebuilt_pages(const AllocView& next,
                                         const AllocView& prev) {
  std::vector<std::uint32_t> rebuilt;
  for (std::uint32_t p = 0; p < next.tiles().page_count(); ++p) {
    if (!next.shares_page_with(prev, p)) rebuilt.push_back(p);
  }
  return rebuilt;
}

TEST(AllocEngineTest, PublishRebuildsOnlyDirtyPages) {
  const Mesh2D m(64, 64);
  Rig rig(m);
  const auto v0 = rig.engine->view();
  const grid::TileGrid& tiles = v0->tiles();
  ASSERT_EQ(tiles.page_count(), 64u);

  ASSERT_EQ(rig.engine->submit(job(1, 1, 1)).outcome, SubmitOutcome::Placed);
  const auto v1 = rig.engine->view();
  EXPECT_EQ(rebuilt_pages(*v1, *v0),
            std::vector<std::uint32_t>{tiles.page_of({0, 0})});
  EXPECT_TRUE(v1->busy_at({0, 0}));
  EXPECT_FALSE(v0->busy_at({0, 0}));
  EXPECT_EQ(v1->largest_free_rect(), 64 * 63);

  // A transition that flips no cell shares every page.
  static_cast<void>(rig.engine->tick());
  const auto v2 = rig.engine->view();
  EXPECT_TRUE(rebuilt_pages(*v2, *v1).empty());

  // A single-dirty-cell epoch rebuilds at most the dirty cell's page, and
  // nothing when the cell's busy state did not flip.
  svc::IngestEngine ingest{grid::CellSet(m)};
  AllocEngine engine(*ingest.snapshot());
  const Coord c{37, 21};
  const svc::FaultEvent fault[] = {{svc::EventKind::Fault, c}};
  static_cast<void>(ingest.apply(fault));
  const auto before = engine.view();
  static_cast<void>(
      engine.observe_epoch(*ingest.snapshot(), std::span<const Coord>(&c, 1)));
  const auto after = engine.view();
  EXPECT_EQ(rebuilt_pages(*after, *before),
            std::vector<std::uint32_t>{tiles.page_of(c)});
  EXPECT_TRUE(after->busy_at(c));
  static_cast<void>(
      engine.observe_epoch(*ingest.snapshot(), std::span<const Coord>(&c, 1)));
  EXPECT_TRUE(rebuilt_pages(*engine.view(), *after).empty());
  EXPECT_TRUE(check_engine(engine, *ingest.snapshot()).ok());
}

// Readers race the lazy fragmentation of one shared view and of whatever
// view is current while the writer publishes; under OCP_SANITIZE=thread
// (ctest -L tsan) this checks the memoization is race-free.
TEST(AllocEngineTest, ConcurrentReadersSeeOneFragmentationPerView) {
  Rig rig(Mesh2D(32, 32));
  for (std::uint64_t id = 1; id <= 6; ++id) {
    static_cast<void>(rig.engine->submit(job(id, 3, 2)));
  }
  const auto shared_view = rig.engine->view();
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kMaxSeen = 2048;
  using Seen = std::vector<std::pair<std::shared_ptr<const AllocView>, double>>;
  std::vector<Seen> seen(kReaders);
  std::vector<double> shared_value(kReaders, -1.0);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }
      shared_value[r] = shared_view->fragmentation();
      do {
        auto v = rig.engine->view();
        const double f = v->fragmentation();
        if (seen[r].size() < kMaxSeen) seen[r].emplace_back(std::move(v), f);
      } while (!stop.load());
    });
  }
  for (std::uint64_t id = 100; id < 260; ++id) {
    const auto i = static_cast<std::int32_t>(id);
    static_cast<void>(rig.engine->submit(job(id, 1 + i % 5, 1 + i % 3, 4)));
    if (i % 7 == 0) rig.fault({i % 32, 9});
    if (i % 11 == 0) rig.repair({(i - 77) % 32, 9});
    static_cast<void>(rig.engine->tick());
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(shared_value[r], shared_value[0]);
  }
  std::map<const AllocView*, double> first;
  std::size_t views = 0;
  for (const Seen& s : seen) {
    for (const auto& [v, f] : s) {
      const auto [it, inserted] = first.emplace(v.get(), f);
      if (!inserted) {
        EXPECT_EQ(f, it->second);
      }
      ++views;
    }
  }
  EXPECT_GT(views, 0u);
  for (const auto& [v, f] : first) EXPECT_EQ(v->fragmentation(), f);
}

}  // namespace
}  // namespace ocp::alloc
