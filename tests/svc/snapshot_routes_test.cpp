// Carried routes are shared, not copied: a route one epoch computed is the
// same immutable object in every successor that carries it, a
// `lookup_shared` handle owns that object past the retirement of every
// epoch that routed or carried it, and readers on the serving epoch may
// race the adoption into its successor. Under OCP_SANITIZE=thread
// (ctest -L tsan) the race test checks the adoption for data races, and
// under address,undefined the retirement test checks the handle's memory.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fault/generators.hpp"
#include "svc/snapshot.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// Folds one event into the dirty pages and padded tiles `next` needs.
void fold(const grid::TileGrid& tiles, const labeling::EventDelta& delta,
          grid::PageSet& pages, std::uint64_t& padded) {
  for (const Coord c : delta.dirty_cells) {
    pages.insert(tiles.page_of(c));
    padded |= tiles.padded_bits(c);
  }
}

/// Toggles a node far from the route below (bottom-right tile of a 64x64
/// machine), so every epoch carries that route.
Coord far_node(std::uint64_t epoch) {
  return {56 + static_cast<std::int32_t>(epoch % 6),
          56 + static_cast<std::int32_t>((epoch / 6) % 6)};
}

TEST(SnapshotRoutesTest, CarriedRouteIsOneObjectAcrossEpochs) {
  const Mesh2D m(64, 64);
  labeling::MaintainedLabeling live(grid::CellSet{m, {{10, 10}, {11, 10}}});
  const grid::TileGrid tiles(m);
  std::shared_ptr<const Snapshot> snap = Snapshot::build(0, live);
  const Coord src{2, 9};
  const Coord dst{20, 11};
  const routing::Route* first = &snap->route(src, dst);
  ASSERT_TRUE(first->delivered());
  for (std::uint64_t epoch = 1; epoch <= 100; ++epoch) {
    const Coord node = far_node(epoch);
    grid::PageSet pages(tiles.page_count());
    std::uint64_t padded = 0;
    fold(tiles, live.set_fault_state(node, !live.faults().contains(node)),
         pages, padded);
    snap = Snapshot::next(*snap, epoch, live, pages, padded);
    ASSERT_EQ(snap->cache_carry_stats().carried, 1u) << epoch;
    ASSERT_EQ(&snap->route(src, dst), first) << "copied at epoch " << epoch;
  }
  EXPECT_EQ(snap->route_cache().misses(), 0u);
}

TEST(SnapshotRoutesTest, SharedHandleOutlivesTheEpochsThatRoutedAndCarriedIt) {
  const Mesh2D m(64, 64);
  labeling::MaintainedLabeling live(grid::CellSet{m, {{10, 10}, {11, 10}}});
  const grid::TileGrid tiles(m);
  std::shared_ptr<const routing::Route> held;
  std::vector<Coord> path;
  {
    std::shared_ptr<const Snapshot> snap = Snapshot::build(0, live);
    path = snap->route({2, 9}, {20, 11}).path;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const Coord node = far_node(epoch);
      grid::PageSet pages(tiles.page_count());
      std::uint64_t padded = 0;
      fold(tiles, live.add_fault(node), pages, padded);
      snap = Snapshot::next(*snap, epoch, live, pages, padded);
    }
    held = snap->route_cache().lookup_shared({2, 9}, {20, 11});
    ASSERT_EQ(snap->route_cache().hits(), 1u)
        << "the handle is the carried entry";
    // A fault on the path invalidates the entry in the next epoch; then
    // the last epoch that held it retires with the scope.
    grid::PageSet pages(tiles.page_count());
    std::uint64_t padded = 0;
    fold(tiles, live.add_fault(path[path.size() / 2]), pages, padded);
    snap = Snapshot::next(*snap, 4, live, pages, padded);
    EXPECT_EQ(snap->cache_carry_stats().invalidated, 1u);
  }
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(held->delivered());
  EXPECT_EQ(held->path, path);
}

TEST(SnapshotRoutesTest, SharedLookupsOnPrevRaceAdoptIntoNext) {
  // Readers keep routing on the serving epoch (hits and inserting misses)
  // while the writer builds successors from it, each adopting its cache,
  // and retires them. Every handle a reader got must stay valid.
  const Mesh2D m(48, 48);
  stats::Rng rng(48);
  labeling::MaintainedLabeling live(fault::uniform_random(m, 40, rng));
  const grid::TileGrid tiles(m);
  const std::shared_ptr<const Snapshot> prev = Snapshot::build(0, live);
  const Coord node{24, 24};
  grid::PageSet pages(tiles.page_count());
  std::uint64_t padded = 0;
  fold(tiles, live.set_fault_state(node, !live.faults().contains(node)),
       pages, padded);

  constexpr int kReaders = 3;
  constexpr int kEpochs = 60;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::shared_ptr<const routing::Route>> kept;
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Coord src{(t * 7 + i) % 48, (i / 48) % 48};
        const Coord dst{(i * 5) % 48, (t * 11 + i / 3) % 48};
        if (src == dst) continue;
        auto route = prev->route_cache().lookup_shared(src, dst);
        ASSERT_NE(route, nullptr);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (route->delivered()) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 16 == 0) kept.push_back(std::move(route));
      }
      // Every kept handle still reads its route: a delivered one has a path.
      for (const auto& route : kept) {
        ASSERT_TRUE(!route->delivered() || !route->path.empty());
      }
    });
  }
  for (int e = 1; e <= kEpochs; ++e) {
    // Let the readers make progress between adoptions.
    const std::uint64_t seen = lookups.load(std::memory_order_relaxed);
    while (lookups.load(std::memory_order_relaxed) < seen + kReaders) {
      std::this_thread::yield();
    }
    const auto next = Snapshot::next(*prev, static_cast<std::uint64_t>(e),
                                     live, pages, padded);
    const routing::RouteCache::AdoptStats& stats = next->cache_carry_stats();
    EXPECT_EQ(next->route_cache().size(), stats.carried);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_GT(delivered.load(), 0u);
}

}  // namespace
}  // namespace ocp::svc
