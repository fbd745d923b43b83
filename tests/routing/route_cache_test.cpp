#include "routing/route_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace ocp::routing {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

TEST(RouteCacheTest, CachedRouteEqualsDirectRoute) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked{m, {{5, 5}, {6, 5}}};
  const FaultRingRouter router(m, blocked);
  RouteCache cache(router, m);

  const Route& cached = cache.lookup({1, 2}, {9, 8});
  const Route direct = router.route({1, 2}, {9, 8});
  EXPECT_EQ(cached.status, direct.status);
  EXPECT_EQ(cached.path, direct.path);
  // Second lookup returns the same stored object.
  EXPECT_EQ(&cache.lookup({1, 2}, {9, 8}), &cached);
}

TEST(RouteCacheTest, HitMissCountersAreExactSingleThreaded) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  (void)cache.lookup({0, 0}, {7, 7});
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  (void)cache.lookup({0, 0}, {7, 7});
  (void)cache.lookup({0, 0}, {7, 7});
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.lookup({7, 7}, {0, 0});  // direction matters: a new pair
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

// 8 threads hammering ONE key: every lookup must be accounted as exactly one
// hit or one miss (the counters are atomic), the table ends up with a single
// entry, and at least one thread took the miss path. Run under
// OCP_SANITIZE=thread (ctest -L tsan) this also races the shared_mutex fast
// path against the insert path.
TEST(RouteCacheTest, ConcurrentSameKeyLookupsAccountEveryLookup) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  constexpr int kThreads = 8;
  constexpr int kLookups = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kLookups; ++i) {
        const Route& r = cache.lookup({1, 1}, {14, 13});
        ASSERT_TRUE(r.delivered());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.size(), 1u);
  // Concurrent first lookups may each count a miss (both ran the router;
  // the insert is try_emplace so the table still has one entry), but no
  // lookup may vanish and no lookup may count twice.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kLookups);
  EXPECT_GE(cache.misses(), 1u);
  EXPECT_LE(cache.misses(), static_cast<std::uint64_t>(kThreads));
}

// 8 threads over DISTINCT key sets (each thread owns its own sources): the
// table must hold every pair exactly once and the counter identity
// hits + misses == lookups must survive concurrent inserts of different
// keys resizing the map under the unique lock.
TEST(RouteCacheTest, ConcurrentDistinctKeyLookupsAccountEveryLookup) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  constexpr int kThreads = 8;
  constexpr int kDests = 24;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      const Coord src{t, 2 * t};  // per-thread source: disjoint key sets
      for (int round = 0; round < kRounds; ++round) {
        for (int d = 0; d < kDests; ++d) {
          const Coord dst{15 - d % 4, d / 4 + 8};
          if (dst == src) continue;
          (void)cache.lookup(src, dst);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t expected_lookups = 0;
  std::uint64_t expected_pairs = 0;
  for (int t = 0; t < kThreads; ++t) {
    const Coord src{t, 2 * t};
    for (int d = 0; d < kDests; ++d) {
      const Coord dst{15 - d % 4, d / 4 + 8};
      if (dst == src) continue;
      ++expected_pairs;
      expected_lookups += kRounds;
    }
  }
  EXPECT_EQ(cache.size(), expected_pairs);
  EXPECT_EQ(cache.hits() + cache.misses(), expected_lookups);
  // Each distinct pair missed at least once; keys are disjoint across
  // threads, so there is no cross-thread double-miss and the count is exact.
  EXPECT_EQ(cache.misses(), expected_pairs);
  EXPECT_EQ(cache.hits(), expected_lookups - expected_pairs);
}

TEST(RouteCacheTest, ClearRetiresEntriesAndAdvancesGeneration) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  EXPECT_EQ(cache.generation(), 0u);
  (void)cache.lookup({0, 0}, {7, 7});
  (void)cache.lookup({1, 1}, {6, 6});
  ASSERT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.generation(), 1u);
  // Hit/miss counters are cumulative across generations.
  EXPECT_EQ(cache.misses(), 2u);

  // The next lookup repopulates: a fresh miss, not a stale hit.
  (void)cache.lookup({0, 0}, {7, 7});
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.generation(), 2u);
}

TEST(RouteCacheTest, SharedHandleSurvivesClear) {
  const Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const XYRouter router(m, blocked);
  RouteCache cache(router, m);

  const std::shared_ptr<const Route> held = cache.lookup_shared({0, 0}, {7, 7});
  ASSERT_NE(held, nullptr);
  const auto path_before = held->path;
  cache.clear();
  // The handle keeps the retired route alive and intact.
  EXPECT_TRUE(held->delivered());
  EXPECT_EQ(held->path, path_before);
}

// 8 threads: 6 readers via lookup_shared, 2 clearers invalidating the table
// underneath them. Every handle must come back non-null with a delivered
// route regardless of interleaving — the tsan build (ctest -L tsan) checks
// the handoff between the swap-under-lock in clear() and the shared-lock
// fast path for data races.
TEST(RouteCacheTest, ConcurrentClearAndSharedLookupsStaySafe) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked{m, {{7, 7}, {8, 7}}};
  const FaultRingRouter router(m, blocked);
  RouteCache cache(router, m);

  constexpr int kReaders = 6;
  constexpr int kClearers = 2;
  constexpr int kLookups = 500;
  constexpr int kClears = 200;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kClearers);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kLookups; ++i) {
        const Coord src{t, (t + i) % 16};
        const Coord dst{15 - i % 3, (i / 3) % 16};
        if (src == dst) continue;
        const auto route = cache.lookup_shared(src, dst);
        ASSERT_NE(route, nullptr);
        ASSERT_TRUE(route->delivered());
        ASSERT_FALSE(route->path.empty());
      }
    });
  }
  for (int t = 0; t < kClearers; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kClears; ++i) {
        cache.clear();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.generation(),
            static_cast<std::uint64_t>(kClearers) * kClears);
  // Counter identity holds across invalidations (skipped src==dst pairs
  // are not lookups).
  EXPECT_GE(cache.hits() + cache.misses(), 1u);
}

// Carry-over across an epoch boundary: entries whose footprint avoids the
// dirty tiles move to the successor cache and serve as hits; entries that
// touched the dirty tiles are dropped and recompute against the new router.
TEST(RouteCacheTest, AdoptCarriesCleanEntriesAndDropsDirtyOnes) {
  const Mesh2D m(32, 32);
  const grid::CellSet old_blocked{m, {{16, 16}, {17, 16}}};
  const FaultRingRouter old_router(m, old_blocked);
  RouteCache old_cache(old_router, m);

  const Coord far_src{1, 1}, far_dst{6, 2};       // top-left corner traffic
  const Coord near_src{12, 16}, near_dst{22, 16};  // crosses the fault
  (void)old_cache.lookup(far_src, far_dst);
  const Route near_before = old_cache.lookup(near_src, near_dst);
  ASSERT_EQ(old_cache.size(), 2u);

  // New epoch: a fault lands in the middle of the near route's old path, so
  // that route must change. Dirty tiles = the changed cell's padded
  // footprint, exactly what the ingest layer hands over.
  const Coord extra = near_before.path[near_before.path.size() / 2];
  ASSERT_NE(extra, near_src);
  ASSERT_NE(extra, near_dst);
  grid::CellSet new_blocked = old_blocked;
  new_blocked.insert(extra);
  const FaultRingRouter new_router(m, new_blocked);
  RouteCache new_cache(new_router, m);
  const grid::TileGrid tiles(m);
  const auto stats = new_cache.adopt(old_cache, tiles.padded_bits(extra));

  EXPECT_EQ(stats.carried, 1u);
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(new_cache.size(), 1u);

  // The carried entry answers as a hit and equals a fresh computation.
  const std::uint64_t hits_before = new_cache.hits();
  const Route& carried = new_cache.lookup(far_src, far_dst);
  EXPECT_EQ(new_cache.hits(), hits_before + 1);
  const Route fresh = new_router.route(far_src, far_dst);
  EXPECT_EQ(carried.status, fresh.status);
  EXPECT_EQ(carried.path, fresh.path);

  // The dropped entry recomputes under the new blocked set — and differs
  // from the old epoch's answer (the detour grew), proving invalidation was
  // necessary.
  const Route& recomputed = new_cache.lookup(near_src, near_dst);
  EXPECT_EQ(recomputed.path, new_router.route(near_src, near_dst).path);
  EXPECT_NE(recomputed.path, near_before.path);
}

// Adoption shares the entry: the successor serves the predecessor's route
// object, and a shared handle outlives both caches.
TEST(RouteCacheTest, AdoptSharesEntriesAndHandlesOutliveBothCaches) {
  const Mesh2D m(32, 32);
  const grid::CellSet blocked{m, {{16, 16}}};
  const FaultRingRouter router(m, blocked);
  std::shared_ptr<const Route> held;
  {
    RouteCache old_cache(router, m);
    const Route& first = old_cache.lookup({1, 1}, {6, 2});
    RouteCache new_cache(router, m);
    const grid::TileGrid tiles(m);
    ASSERT_EQ(new_cache.adopt(old_cache, tiles.padded_bits({30, 30})).carried,
              1u);
    EXPECT_EQ(&new_cache.lookup({1, 1}, {6, 2}), &first);
    held = old_cache.lookup_shared({1, 1}, {6, 2});
    EXPECT_EQ(held.get(), &first);
  }
  EXPECT_TRUE(held->delivered());
  EXPECT_EQ(held->path, router.route({1, 1}, {6, 2}).path);
}

// Exhaustive soundness sweep: carry over every pair of a dense probe set,
// then check each surviving entry against a fresh computation under the
// changed blocked set. Any footprint under-approximation would surface as a
// stale path here.
TEST(RouteCacheTest, AdoptedEntriesMatchFreshRoutesExhaustively) {
  for (const auto topology : {mesh::Topology::Mesh, mesh::Topology::Torus}) {
    const Mesh2D m(16, 16, topology);
    const grid::CellSet old_blocked{m, {{4, 4}}};
    const FaultRingRouter old_router(m, old_blocked);
    RouteCache old_cache(old_router, m);

    std::vector<std::pair<Coord, Coord>> pairs;
    for (int sy = 0; sy < 16; sy += 3) {
      for (int sx = 0; sx < 16; sx += 3) {
        for (int dy = 1; dy < 16; dy += 5) {
          for (int dx = 2; dx < 16; dx += 5) {
            const Coord src{sx, sy}, dst{dx, dy};
            if (src == dst || old_blocked.contains(src) ||
                old_blocked.contains(dst)) {
              continue;
            }
            pairs.emplace_back(src, dst);
            (void)old_cache.lookup(src, dst);
          }
        }
      }
    }

    const grid::CellSet new_blocked{m, {{4, 4}, {11, 12}}};
    const FaultRingRouter new_router(m, new_blocked);
    RouteCache new_cache(new_router, m);
    const grid::TileGrid tiles(m);
    const auto stats = new_cache.adopt(old_cache, tiles.padded_bits({11, 12}));
    ASSERT_EQ(stats.carried + stats.invalidated, pairs.size());
    ASSERT_GE(stats.carried, 1u);

    const std::uint64_t size_after_adopt = new_cache.size();
    for (const auto& [src, dst] : pairs) {
      const Route& served = new_cache.lookup(src, dst);
      const Route fresh = new_router.route(src, dst);
      ASSERT_EQ(served.status, fresh.status)
          << "topology " << static_cast<int>(topology) << " "
          << mesh::to_string(src) << " -> " << mesh::to_string(dst);
      ASSERT_EQ(served.path, fresh.path)
          << "topology " << static_cast<int>(topology) << " "
          << mesh::to_string(src) << " -> " << mesh::to_string(dst);
    }
    // Carried entries were hits; invalidated ones missed and repopulated.
    EXPECT_EQ(new_cache.hits(), stats.carried);
    EXPECT_EQ(new_cache.misses(), stats.invalidated);
    EXPECT_EQ(size_after_adopt, stats.carried);
  }
}

// Adoption must tolerate the previous cache still serving (and inserting)
// concurrently — the ingest thread publishes the next epoch while query
// threads keep hitting the current one.
TEST(RouteCacheTest, AdoptRacesLookupsOnThePreviousEpochSafely) {
  const Mesh2D m(16, 16);
  const grid::CellSet blocked{m, {{7, 7}}};
  const FaultRingRouter router(m, blocked);
  RouteCache prev(router, m);

  constexpr int kReaders = 4;
  constexpr int kAdopts = 50;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&prev, &stop, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Coord src{t, (t + i) % 16};
        const Coord dst{15 - i % 4, (i / 4) % 16};
        if (src == dst) continue;
        const auto route = prev.lookup_shared(src, dst);
        ASSERT_NE(route, nullptr);
      }
    });
  }
  const grid::TileGrid tiles(m);
  for (int i = 0; i < kAdopts; ++i) {
    RouteCache next(router, m);
    const auto stats = next.adopt(prev, tiles.padded_bits({7, 7}));
    // Whatever was carried must be consistent: carried + invalidated is a
    // snapshot of prev's size at some instant during the copy.
    EXPECT_EQ(next.size(), stats.carried);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
}

}  // namespace
}  // namespace ocp::routing
