// Copy-on-write page sharing across epochs: small deltas must republish
// small snapshots. The headline property (and the ISSUE acceptance
// criterion): a single-fault delta on a 32x32 machine shares at least 75%
// of its serving pages with the predecessor — checked per epoch through
// `Snapshot::page_stats()` / `shares_pages_with`, and in aggregate through
// the svc.pages_* obs counters the ingest loop emits on publish. The torus
// cases pin the seam behavior: a delta whose unsafe component crosses the
// wraparound must dirty tiles on both sides, stay local otherwise, and
// leave the successor bit-identical to a from-scratch build.
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "fault/generators.hpp"
#include "obs/trace.hpp"
#include "svc/ingest.hpp"
#include "svc/snapshot.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// Folds one event's dirty cells into (dirty, padded) tile masks — the same
/// accumulation IngestEngine::apply performs.
void fold_delta(const grid::TileGrid& tiles, const labeling::EventDelta& delta,
                std::uint64_t& dirty, std::uint64_t& padded) {
  for (const Coord c : delta.dirty_cells) {
    dirty |= tiles.bit_of(c);
    padded |= tiles.padded_bits(c);
  }
}

TEST(SnapshotPagesTest, SingleCellDeltasShareAtLeastThreeQuartersOfPages) {
  const Mesh2D m(32, 32);
  obs::TraceSink sink;
  IngestConfig config;
  config.trace = {.sink = &sink, .level = obs::TraceLevel::Phase};
  IngestEngine engine(grid::CellSet(m), config);

  // Isolated tile-interior faults: each delta dirties exactly one tile.
  const Coord faults[] = {{4, 4},   {12, 4},  {20, 4},  {28, 4},
                          {4, 12},  {12, 12}, {20, 12}, {28, 12},
                          {4, 20},  {12, 20}, {20, 20}, {28, 20},
                          {4, 28},  {12, 28}, {20, 28}, {28, 28}};
  std::shared_ptr<const Snapshot> prev = engine.snapshot();
  for (const Coord c : faults) {
    const FaultEvent events[] = {{EventKind::Fault, c}};
    ASSERT_TRUE(engine.apply(events).published);
    const std::shared_ptr<const Snapshot> snap = engine.snapshot();

    const PageStats& stats = snap->page_stats();
    const std::size_t total = stats.copied + stats.shared;
    ASSERT_EQ(total, 2u * snap->tiles().tile_count())
        << "two planes, one page per tile each";
    EXPECT_GE(stats.shared * 4, total * 3)
        << "single-cell delta must share >= 75% of serving pages";

    // The sharing is physical, tile for tile: every clean tile's pages are
    // the predecessor's pages, and generations move only on dirty tiles.
    std::size_t shared_tiles = 0;
    for (std::uint32_t t = 0; t < snap->tiles().tile_count(); ++t) {
      if (snap->shares_pages_with(*prev, t)) {
        ++shared_tiles;
        EXPECT_EQ(snap->tile_generations()[t], prev->tile_generations()[t]);
      } else {
        EXPECT_EQ(snap->tile_generations()[t], snap->epoch());
      }
    }
    EXPECT_EQ(2 * shared_tiles, stats.shared);
    prev = snap;
  }

  // The obs counters the ingest loop publishes tell the same story in
  // aggregate, so dashboards can watch the share ratio without test hooks.
  const std::int64_t copied = sink.counter_value("svc.pages_copied");
  const std::int64_t shared = sink.counter_value("svc.pages_shared");
  EXPECT_EQ(copied + shared,
            static_cast<std::int64_t>(16u * 2u *
                                      engine.snapshot()->tiles().tile_count()));
  EXPECT_GE(shared, 3 * copied);
  EXPECT_GE(sink.counter_value("svc.dirty_cells"), 16);
  EXPECT_EQ(sink.counter_value("svc.epochs_published"), 16);
}

TEST(SnapshotPagesTest, TorusSeamDeltaDirtiesBothSidesAndMatchesFreshBuild) {
  const Mesh2D m(32, 32, mesh::Topology::Torus);
  labeling::MaintainedLabeling live{grid::CellSet(m)};
  const grid::TileGrid tiles(m);

  std::uint64_t dirty = 0;
  std::uint64_t padded = 0;
  fold_delta(tiles, live.add_fault({31, 0}), dirty, padded);
  auto base = Snapshot::build(1, live);

  // Warm the cache: one route far from the seam (must be carried), one
  // crossing it (its footprint touches the seam tiles; must be dropped).
  const routing::Route far_before = base->route({8, 16}, {24, 16});
  const routing::Route seam_before = base->route({30, 2}, {1, 2});
  ASSERT_TRUE(far_before.delivered());
  ASSERT_TRUE(seam_before.delivered());

  // The second fault 4-connects to {31,0} through the wraparound link, so
  // the merged unsafe component — and with it the dirty extent — spans the
  // seam: tiles on both the x-low and x-high edges of the machine.
  dirty = 0;
  padded = 0;
  fold_delta(tiles, live.add_fault({0, 0}), dirty, padded);
  const std::uint64_t low_edge_tile = tiles.bit_of({0, 0});
  const std::uint64_t high_edge_tile = tiles.bit_of({31, 0});
  EXPECT_NE(low_edge_tile, high_edge_tile);
  EXPECT_EQ(dirty & low_edge_tile, low_edge_tile);
  EXPECT_EQ(dirty & high_edge_tile, high_edge_tile);

  const auto next = Snapshot::next(*base, 2, live, dirty, padded);

  // Both seam tiles rebuilt, everything else shared — still >= 75%.
  EXPECT_FALSE(next->shares_pages_with(
      *base, static_cast<std::uint32_t>(tiles.tile_of({0, 0}))));
  EXPECT_FALSE(next->shares_pages_with(
      *base, static_cast<std::uint32_t>(tiles.tile_of({31, 0}))));
  const PageStats& stats = next->page_stats();
  EXPECT_GE(stats.shared * 4, (stats.copied + stats.shared) * 3);

  // Route-cache carry-over: the far route survived (identical to a fresh
  // computation), the seam-crossing one was invalidated.
  EXPECT_EQ(next->cache_carry_stats().carried, 1u);
  EXPECT_EQ(next->cache_carry_stats().invalidated, 1u);
  const routing::Route& far_after = next->route({8, 16}, {24, 16});
  EXPECT_EQ(far_after.path, far_before.path);
  EXPECT_EQ(next->route_cache().hits(), 1u)
      << "the carried entry must serve without recomputation";

  // The copy-on-write successor is bit-identical to a from-scratch build:
  // same digest, same served status and region identity at every node.
  const auto fresh = Snapshot::build(2, live);
  EXPECT_EQ(next->label_digest(), fresh->label_digest());
  for (std::int32_t y = 0; y < 32; ++y) {
    for (std::int32_t x = 0; x < 32; ++x) {
      const Coord c{x, y};
      ASSERT_EQ(next->status_of(c), fresh->status_of(c)) << x << "," << y;
      const labeling::DisabledRegion* a = next->region_of(c);
      const labeling::DisabledRegion* b = fresh->region_of(c);
      ASSERT_EQ(a == nullptr, b == nullptr) << x << "," << y;
      if (a != nullptr) {
        ASSERT_EQ(a->size(), b->size());
      }
    }
  }
}

TEST(SnapshotPagesTest, OracleWithheldEpochsAccumulateDirtyTiles) {
  // When the oracle withholds a publication, the pending dirty masks must
  // survive into the next successful publish — otherwise the served pages
  // of the withheld delta's tiles would silently go stale. Forcing a
  // withhold needs a violation, which a correct engine cannot produce, so
  // approximate the scenario at the Snapshot layer: skip an epoch (as the
  // engine does when the oracle rejects) and publish the union of two
  // deltas' masks against the last published snapshot.
  const Mesh2D m(32, 32);
  labeling::MaintainedLabeling live{grid::CellSet(m)};
  auto base = Snapshot::build(0, live);

  std::uint64_t dirty = 0;
  std::uint64_t padded = 0;
  const grid::TileGrid tiles(m);
  fold_delta(tiles, live.add_fault({4, 4}), dirty, padded);    // withheld
  fold_delta(tiles, live.add_fault({27, 27}), dirty, padded);  // published
  const auto next = Snapshot::next(*base, 1, live, dirty, padded);

  EXPECT_EQ(next->status_of({4, 4}), NodeStatus::Faulty);
  EXPECT_EQ(next->status_of({27, 27}), NodeStatus::Faulty);
  EXPECT_EQ(next->label_digest(), Snapshot::build(1, live)->label_digest());
  EXPECT_FALSE(next->shares_pages_with(
      *base, static_cast<std::uint32_t>(tiles.tile_of({4, 4}))));
  EXPECT_FALSE(next->shares_pages_with(
      *base, static_cast<std::uint32_t>(tiles.tile_of({27, 27}))));
}

TEST(SnapshotPagesTest, SingleCellDeltaSharesThreeQuartersOfPagesAt1024) {
  // The benchmark's machine: 1024x1024 with 0.5% background faults, 64
  // tiles of 128x128. A fault far from every block dirties one tile.
  const Mesh2D m(1024, 1024);
  stats::Rng rng(1024);
  grid::CellSet faults = fault::uniform_random(m, 5243, rng);
  const Coord probe{300, 700};
  for (std::int32_t y = probe.y - 4; y <= probe.y + 4; ++y) {
    for (std::int32_t x = probe.x - 4; x <= probe.x + 4; ++x) {
      faults.erase({x, y});
    }
  }
  labeling::MaintainedLabeling live(std::move(faults));
  const auto base = Snapshot::build(0, live);
  const grid::TileGrid tiles(m);
  ASSERT_EQ(tiles.tile_count(), 64u);

  std::uint64_t dirty = 0;
  std::uint64_t padded = 0;
  fold_delta(tiles, live.add_fault(probe), dirty, padded);
  const auto next = Snapshot::next(*base, 1, live, dirty, padded);
  const PageStats& stats = next->page_stats();
  EXPECT_EQ(stats.copied + stats.shared, 2u * 64u);
  EXPECT_EQ(stats.copied, 2u) << "one tile, two planes";
  EXPECT_GE(stats.shared * 4, (stats.copied + stats.shared) * 3);
  EXPECT_EQ(next->status_of(probe), NodeStatus::Faulty);
  EXPECT_EQ(next->region_summary(probe).size, 1u);
  EXPECT_EQ(next->label_digest(), Snapshot::build(1, live)->label_digest());
}

/// value(x, y) for the plane tests: distinct per cell.
std::int32_t cell_value(std::int32_t x, std::int32_t y, std::int32_t salt) {
  return y * 4096 + x + salt;
}

TEST(PagedPlaneTest, RowBuilderAndRowSpansEqualAtOnEdgeTiles) {
  // Widths and heights that are not powers of two leave partial tiles on
  // the right and bottom edges.
  for (const auto& [w, h] : {std::pair{37, 23}, std::pair{100, 65},
                             std::pair{130, 7}, std::pair{64, 64}}) {
    const Mesh2D m(w, h);
    const grid::TileGrid tiles(m);
    const auto fill = [](std::int32_t salt) {
      return [salt](std::int32_t y, std::int32_t x0,
                    std::span<std::int32_t> out) {
        for (std::size_t k = 0; k < out.size(); ++k) {
          out[k] = cell_value(x0 + static_cast<std::int32_t>(k), y, salt);
        }
      };
    };
    PageStats stats;
    const auto plane = PagedPlane<std::int32_t>::build(tiles, fill(0), stats);
    EXPECT_EQ(stats.copied, tiles.tile_count());
    // Rebuild every other tile with a different value.
    std::uint64_t dirty = 0;
    for (std::uint32_t t = 0; t < tiles.tile_count(); t += 2) dirty |= 1ull << t;
    const auto next =
        PagedPlane<std::int32_t>::next(plane, tiles, dirty, fill(1), stats);

    for (std::int32_t y = 0; y < h; ++y) {
      for (std::int32_t x = 0; x < w; ++x) {
        const std::uint32_t t = tiles.tile_of({x, y});
        ASSERT_EQ(plane.at(tiles, {x, y}), cell_value(x, y, 0));
        ASSERT_EQ(next.at(tiles, {x, y}),
                  cell_value(x, y, (dirty >> t) & 1u ? 1 : 0));
      }
    }
    for (std::uint32_t t = 0; t < tiles.tile_count(); ++t) {
      const grid::TileGrid::TileRect b = tiles.bounds(t);
      EXPECT_EQ(next.shares_page_with(plane, t), ((dirty >> t) & 1u) == 0);
      for (std::int32_t y = b.y0; y < b.y1; ++y) {
        const std::span<const std::int32_t> row = next.row(tiles, t, y);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(b.x1 - b.x0));
        for (std::int32_t x = b.x0; x < b.x1; ++x) {
          ASSERT_EQ(row[static_cast<std::size_t>(x - b.x0)],
                    next.at(tiles, {x, y}))
              << w << "x" << h << " tile " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ocp::svc
