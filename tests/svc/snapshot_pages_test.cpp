// Copy-on-write page sharing across epochs: small deltas must republish
// small snapshots. A successor rebuilds exactly the serving pages that hold
// a dirty cell and shares every other page with its predecessor — checked
// per epoch through `Snapshot::page_stats()` / `shares_pages_with`, and in
// aggregate through the page sums `IngestStats` keeps over the publishes. Pages are at most 32x32 (at 1024x1024 a plane has 1,024 of them
// inside 64 coarse tiles); the large cases pin the exact page set on
// machines with partial edge pages. The torus cases pin the seam behavior:
// a delta whose unsafe component crosses the wraparound must dirty pages on
// both sides, stay local otherwise, and leave the successor bit-identical to
// a from-scratch build. The coarse-mask form of `next` must answer exactly
// as the page-set form.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/generators.hpp"
#include "svc/ingest.hpp"
#include "svc/snapshot.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// Dirty accumulation for `Snapshot::next`, as IngestEngine::apply keeps it:
/// the pages of the dirty cells and the tiles of their neighborhoods.
struct Dirty {
  explicit Dirty(const grid::TileGrid& grid)
      : tiles(grid), pages(grid.page_count()) {}
  void fold(const labeling::EventDelta& delta) {
    for (const Coord c : delta.dirty_cells) {
      pages.insert(tiles.page_of(c));
      padded |= tiles.padded_bits(c);
      mask |= tiles.bit_of(c);
    }
  }
  const grid::TileGrid& tiles;
  grid::PageSet pages;
  std::uint64_t padded = 0;
  /// Coarse tiles of the dirty cells, for the coarse-mask form.
  std::uint64_t mask = 0;
};

/// `next` shares page p with `prev` exactly when p holds no dirty cell.
void expect_rebuilt_exactly(const Snapshot& next, const Snapshot& prev,
                            const grid::PageSet& dirty,
                            const std::string& context) {
  const grid::TileGrid& tiles = next.tiles();
  for (std::uint32_t p = 0; p < tiles.page_count(); ++p) {
    ASSERT_EQ(next.shares_pages_with(prev, p), !dirty.contains(p))
        << context << " page " << p;
  }
  EXPECT_EQ(next.page_stats().copied, 2 * dirty.size()) << context;
  EXPECT_EQ(next.page_stats().shared,
            2 * (tiles.page_count() - dirty.size()))
      << context;
}

TEST(SnapshotPagesTest, SingleCellDeltasShareAtLeastThreeQuartersOfPages) {
  const Mesh2D m(32, 32);
  IngestEngine engine{grid::CellSet(m)};

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
    ASSERT_EQ(snap->tiles().page_count(), 16u) << "8x8 pages, one per tile";
    ASSERT_EQ(total, 2u * snap->tiles().page_count()) << "two planes";
    EXPECT_GE(stats.shared * 4, total * 3)
        << "single-cell delta must share >= 75% of serving pages";

    // The sharing is physical, page for page: every clean page is the
    // predecessor's page, and only the dirty cell's page was rebuilt.
    std::size_t shared_pages = 0;
    for (std::uint32_t p = 0; p < snap->tiles().page_count(); ++p) {
      if (snap->shares_pages_with(*prev, p)) {
        ++shared_pages;
      } else {
        EXPECT_EQ(p, snap->tiles().page_of(c));
      }
    }
    EXPECT_EQ(2 * shared_pages, stats.shared);
    prev = snap;
  }

  // The engine's stats tell the same story in aggregate, so dashboards can
  // watch the share ratio without test hooks.
  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.pages_copied + stats.pages_shared,
            16u * 2u * engine.snapshot()->tiles().page_count());
  EXPECT_GE(stats.pages_shared, 3 * stats.pages_copied);
  EXPECT_GE(stats.dirty_cells, 16u);
  EXPECT_EQ(stats.epochs_published, 16u);
}

TEST(SnapshotPagesTest, TorusSeamDeltaDirtiesBothSidesAndMatchesFreshBuild) {
  const Mesh2D m(32, 32, mesh::Topology::Torus);
  labeling::MaintainedLabeling live{grid::CellSet(m)};
  const grid::TileGrid tiles(m);

  static_cast<void>(live.add_fault({31, 0}));
  auto base = Snapshot::build(1, live);

  // Warm the cache: one route far from the seam (must be carried), one
  // crossing it (its footprint touches the seam tiles; must be dropped).
  const routing::Route far_before = base->route({8, 16}, {24, 16});
  const routing::Route seam_before = base->route({30, 2}, {1, 2});
  ASSERT_TRUE(far_before.delivered());
  ASSERT_TRUE(seam_before.delivered());

  // The second fault 4-connects to {31,0} through the wraparound link, so
  // the merged unsafe component — and with it the dirty extent — spans the
  // seam: pages on both the x-low and x-high edges of the machine.
  Dirty dirty(tiles);
  dirty.fold(live.add_fault({0, 0}));
  EXPECT_NE(tiles.page_of({0, 0}), tiles.page_of({31, 0}));
  EXPECT_TRUE(dirty.pages.contains(tiles.page_of({0, 0})));
  EXPECT_TRUE(dirty.pages.contains(tiles.page_of({31, 0})));

  const auto next = Snapshot::next(*base, 2, live, dirty.pages, dirty.padded);

  // Both seam pages rebuilt, everything else shared — still >= 75%.
  expect_rebuilt_exactly(*next, *base, dirty.pages, "seam");
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
  // When the oracle withholds a publication, the pending dirty pages must
  // survive into the next successful publish — otherwise the served pages
  // of the withheld delta would silently go stale. Forcing a withhold needs
  // a violation, which a correct engine cannot produce, so approximate the
  // scenario at the Snapshot layer: skip an epoch (as the engine does when
  // the oracle rejects) and publish the union of two deltas' dirty pages
  // against the last published snapshot.
  const Mesh2D m(32, 32);
  labeling::MaintainedLabeling live{grid::CellSet(m)};
  auto base = Snapshot::build(0, live);

  const grid::TileGrid tiles(m);
  Dirty dirty(tiles);
  dirty.fold(live.add_fault({4, 4}));    // withheld
  dirty.fold(live.add_fault({27, 27}));  // published
  const auto next = Snapshot::next(*base, 1, live, dirty.pages, dirty.padded);

  EXPECT_EQ(next->status_of({4, 4}), NodeStatus::Faulty);
  EXPECT_EQ(next->status_of({27, 27}), NodeStatus::Faulty);
  EXPECT_EQ(next->label_digest(), Snapshot::build(1, live)->label_digest());
  EXPECT_FALSE(next->shares_pages_with(*base, tiles.page_of({4, 4})));
  EXPECT_FALSE(next->shares_pages_with(*base, tiles.page_of({27, 27})));
  expect_rebuilt_exactly(*next, *base, dirty.pages, "withheld");
}

/// The benchmark's fault density (0.5%) on `m`, with a clear 9x9 square
/// around each probe so a probe event touches nothing but its own block.
grid::CellSet background_faults(const Mesh2D& m, std::span<const Coord> probes,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  grid::CellSet faults = fault::uniform_random(
      m, static_cast<std::size_t>(m.node_count()) / 200, rng);
  for (const Coord probe : probes) {
    for (std::int32_t y = probe.y - 4; y <= probe.y + 4; ++y) {
      for (std::int32_t x = probe.x - 4; x <= probe.x + 4; ++x) {
        const Coord c = m.wrap({x, y});
        if (m.contains(c)) faults.erase(c);
      }
    }
  }
  return faults;
}

TEST(SnapshotPagesTest, SingleCellDeltaSharesThreeQuartersOfPagesAt1024) {
  // The benchmark's machine: 1024x1024 with 0.5% background faults, 64
  // coarse tiles of 128x128 holding 1,024 pages of 32x32. A fault far from
  // every block dirties one cell, so it rebuilds 2 of 2,048 pages.
  const Mesh2D m(1024, 1024);
  const Coord probe{300, 700};
  labeling::MaintainedLabeling live(
      background_faults(m, std::span<const Coord>(&probe, 1), 1024));
  const auto base = Snapshot::build(0, live);
  const grid::TileGrid tiles(m);
  ASSERT_EQ(tiles.tile_count(), 64u);
  ASSERT_EQ(tiles.page_count(), 1024u);

  Dirty dirty(tiles);
  dirty.fold(live.add_fault(probe));
  const auto next = Snapshot::next(*base, 1, live, dirty.pages, dirty.padded);
  const PageStats& stats = next->page_stats();
  EXPECT_EQ(stats.copied + stats.shared, 2u * 1024u);
  EXPECT_EQ(stats.copied, 2u) << "one page, two planes";
  EXPECT_GE(stats.shared * 4, (stats.copied + stats.shared) * 3);
  EXPECT_EQ(next->status_of(probe), NodeStatus::Faulty);
  EXPECT_EQ(next->region_summary(probe).size, 1u);
  EXPECT_EQ(next->label_digest(), Snapshot::build(1, live)->label_digest());
}

TEST(SnapshotPagesTest, LoneFaultAndRepairRebuildExactlyTheirDirtyPages) {
  // Page-exact sharing on the benchmark's machine and on machines whose
  // right and bottom pages are partial (1000 = 31 * 32 + 8; 517 x 1030
  // leaves partial pages on both axes and wraps). Each probe pair straddles
  // a page seam, so the merged block's event dirties two pages.
  struct Case {
    std::int32_t w, h;
    mesh::Topology topology;
  };
  for (const Case& k : {Case{1024, 1024, mesh::Topology::Mesh},
                        Case{1000, 1000, mesh::Topology::Mesh},
                        Case{517, 1030, mesh::Topology::Torus}}) {
    const Mesh2D m(k.w, k.h, k.topology);
    const grid::TileGrid tiles(m);
    // A lone cell deep inside a page, a seam pair, and cells on the
    // partial right and bottom edge pages (wrapping onto column 0 / row 0
    // on the torus).
    const Coord probes[] = {{100, 200},
                            {255, 500},
                            {256, 500},
                            {k.w - 1, k.h / 2},
                            {k.w / 3, k.h - 1}};
    labeling::MaintainedLabeling live(background_faults(m, probes, 7));
    std::shared_ptr<const Snapshot> prev = Snapshot::build(0, live);
    const std::string base = std::to_string(k.w) + "x" + std::to_string(k.h);
    std::uint64_t epoch = 0;
    const auto step = [&](Coord node, bool faulty) {
      Dirty dirty(tiles);
      dirty.fold(live.set_fault_state(node, faulty));
      ASSERT_FALSE(dirty.pages.empty());
      const auto next =
          Snapshot::next(*prev, ++epoch, live, dirty.pages, dirty.padded);
      const std::string context = base + " epoch " + std::to_string(epoch);
      expect_rebuilt_exactly(*next, *prev, dirty.pages, context);
      ASSERT_EQ(next->status_of(node),
                faulty ? NodeStatus::Faulty : NodeStatus::Enabled)
          << context;
      prev = next;
    };
    for (const Coord c : probes) step(c, true);
    // The seam pair merged into one block whose pages straddle the seam.
    EXPECT_EQ(prev->region_summary({255, 500}).size, 2u) << base;
    for (const Coord c : probes) step(c, false);
    ASSERT_EQ(prev->label_digest(), Snapshot::build(epoch, live)->label_digest())
        << base;
  }
}

TEST(SnapshotPagesTest, CoarseMaskNextAnswersAsThePageSetForm) {
  // The coarse-mask form rebuilds whole tiles; the page-set form only the
  // pages of the dirty cells. Both must serve identical answers and label
  // digests along a seeded event stream, and the page-set form never
  // rebuilds more.
  const Mesh2D m(512, 512);
  const grid::TileGrid tiles(m);
  ASSERT_LT(tiles.tile_count(), tiles.page_count());
  stats::Rng rng(512);
  labeling::MaintainedLabeling live(fault::uniform_random(m, 1311, rng));
  std::shared_ptr<const Snapshot> by_pages = Snapshot::build(0, live);
  std::shared_ptr<const Snapshot> by_tiles = Snapshot::build(0, live);
  std::vector<std::pair<Coord, Coord>> pairs;
  const auto random_node = [&] {
    return m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() - 1)));
  };
  for (int i = 0; i < 32; ++i) {
    const Coord a = random_node();
    pairs.emplace_back(a, Coord{std::min(a.x + 20, 511), std::max(a.y - 9, 0)});
  }
  for (std::uint64_t epoch = 1; epoch <= 24; ++epoch) {
    for (const auto& [a, b] : pairs) {
      static_cast<void>(by_pages->route(a, b));
      static_cast<void>(by_tiles->route(a, b));
    }
    Dirty dirty(tiles);
    std::vector<Coord> touched;
    for (int e = 0; e < 8; ++e) {
      const Coord node = random_node();
      const labeling::EventDelta d =
          live.set_fault_state(node, !live.faults().contains(node));
      dirty.fold(d);
      touched.insert(touched.end(), d.dirty_cells.begin(), d.dirty_cells.end());
    }
    by_pages = Snapshot::next(*by_pages, epoch, live, dirty.pages, dirty.padded);
    by_tiles = Snapshot::next(*by_tiles, epoch, live, dirty.mask, dirty.padded);
    const std::string context = "epoch " + std::to_string(epoch);
    ASSERT_EQ(by_pages->label_digest(), by_tiles->label_digest()) << context;
    EXPECT_LE(by_pages->page_stats().copied, by_tiles->page_stats().copied);
    EXPECT_EQ(by_pages->cache_carry_stats().carried,
              by_tiles->cache_carry_stats().carried);
    for (int i = 0; i < 256; ++i) touched.push_back(random_node());
    for (const Coord c : touched) {
      ASSERT_EQ(by_pages->status_of(c), by_tiles->status_of(c)) << context;
      ASSERT_EQ(by_pages->region_id_of(c), by_tiles->region_id_of(c))
          << context;
    }
    for (const auto& [a, b] : pairs) {
      ASSERT_EQ(by_pages->route(a, b).path, by_tiles->route(a, b).path)
          << context;
    }
  }
  EXPECT_EQ(by_pages->label_digest(),
            Snapshot::build(24, live)->label_digest());
}

/// value(x, y) for the plane tests: distinct per cell.
std::int32_t cell_value(std::int32_t x, std::int32_t y, std::int32_t salt) {
  return y * 4096 + x + salt;
}

TEST(PagedPlaneTest, RowBuilderAndRowSpansEqualAtOnEdgeTiles) {
  // Widths and heights that are not multiples of the page side leave
  // partial pages on the right and bottom edges; 300x517 has 32x32 pages
  // inside 128x128 tiles.
  for (const auto& [w, h] : {std::pair{37, 23}, std::pair{100, 65},
                             std::pair{130, 7}, std::pair{64, 64},
                             std::pair{300, 517}}) {
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
    EXPECT_EQ(stats.copied, tiles.page_count());
    // Rebuild every other page with a different value.
    grid::PageSet dirty(tiles.page_count());
    for (std::uint32_t p = 0; p < tiles.page_count(); p += 2) dirty.insert(p);
    const auto next =
        PagedPlane<std::int32_t>::next(plane, tiles, dirty, fill(1), stats);

    for (std::int32_t y = 0; y < h; ++y) {
      for (std::int32_t x = 0; x < w; ++x) {
        const std::uint32_t p = tiles.page_of({x, y});
        ASSERT_EQ(plane.at(tiles, {x, y}), cell_value(x, y, 0));
        ASSERT_EQ(next.at(tiles, {x, y}),
                  cell_value(x, y, dirty.contains(p) ? 1 : 0));
      }
    }
    for (std::uint32_t p = 0; p < tiles.page_count(); ++p) {
      const grid::TileGrid::CellRect b = tiles.page_bounds(p);
      EXPECT_EQ(next.shares_page_with(plane, p), !dirty.contains(p));
      for (std::int32_t y = b.y0; y < b.y1; ++y) {
        const std::span<const std::int32_t> row = next.row(tiles, p, y);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(b.x1 - b.x0));
        for (std::int32_t x = b.x0; x < b.x1; ++x) {
          ASSERT_EQ(row[static_cast<std::size_t>(x - b.x0)],
                    next.at(tiles, {x, y}))
              << w << "x" << h << " page " << p;
        }
      }
    }
  }
}

TEST(TileGridTest, PagesSubdivideTilesAndCoverTheMachine) {
  for (const auto& [w, h] : {std::pair{32, 32}, std::pair{256, 256},
                             std::pair{1024, 1024}, std::pair{1000, 1000},
                             std::pair{517, 1030}}) {
    const Mesh2D m(w, h);
    const grid::TileGrid tiles(m);
    const std::string context = std::to_string(w) + "x" + std::to_string(h);
    EXPECT_LE(tiles.tile_count(), 64u) << context;
    EXPECT_EQ(tiles.page_side(), std::min(tiles.tile_side(), 32)) << context;
    // Every tile's page set is exactly the pages of its cells.
    std::vector<std::uint32_t> tile_of_page(tiles.page_count(), 64);
    for (std::int32_t y = 0; y < h; ++y) {
      for (std::int32_t x = 0; x < w; ++x) {
        std::uint32_t& t = tile_of_page[tiles.page_of({x, y})];
        if (t == 64) t = tiles.tile_of({x, y});
        ASSERT_EQ(t, tiles.tile_of({x, y})) << context << " page straddles";
      }
    }
    std::size_t covered = 0;
    for (std::uint32_t t = 0; t < tiles.tile_count(); ++t) {
      const grid::PageSet pages = tiles.pages_of_tiles(std::uint64_t{1} << t);
      covered += pages.size();
      for (const std::uint32_t p : pages.ids()) {
        ASSERT_EQ(tile_of_page[p], t) << context;
      }
    }
    EXPECT_EQ(covered, tiles.page_count()) << context;
  }
}

TEST(PageSetTest, ClearForgetsOnlyTheMembers) {
  grid::PageSet set(1000);
  EXPECT_TRUE(set.insert(999));
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(999));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(std::vector<std::uint32_t>(set.ids().begin(), set.ids().end()),
            (std::vector<std::uint32_t>{999, 3}));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(999));
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.insert(3));
}

}  // namespace
}  // namespace ocp::svc
