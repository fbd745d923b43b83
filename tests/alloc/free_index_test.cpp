// The incremental free-region index: single-bit flips against a rebuild,
// word-parallel anchor enumeration and the run/extent queries against brute
// force (across 64-bit word boundaries too), the busy-byte expansion, the
// largest-free-rectangle metric, and the cells_patched() work bound behind
// the O(dirty) claim.
#include "alloc/free_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace ocp::alloc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// Brute-force fit check: every cell of the w x h rect at `a` is free.
bool fits_brute(const FreeRegionIndex& idx, Coord a, std::int32_t w,
                std::int32_t h) {
  const Mesh2D& m = idx.machine();
  if (a.x < 0 || a.y < 0 || a.x + w > m.width() || a.y + h > m.height()) {
    return false;
  }
  for (std::int32_t y = a.y; y < a.y + h; ++y) {
    for (std::int32_t x = a.x; x < a.x + w; ++x) {
      if (idx.busy({x, y})) return false;
    }
  }
  return true;
}

std::vector<Coord> anchors_of(const FreeRegionIndex& idx, std::int32_t w,
                              std::int32_t h) {
  std::vector<Coord> out;
  idx.for_each_anchor(w, h, [&](Coord a) {
    out.push_back(a);
    return true;
  });
  return out;
}

TEST(FreeIndexTest, AllFreeBasics) {
  const Mesh2D m(8, 6);
  const FreeRegionIndex idx(m);
  EXPECT_EQ(idx.free_cells(), 48u);
  EXPECT_EQ(idx.cells_patched(), 0u);
  EXPECT_EQ(idx.run_at({0, 0}), 1);
  EXPECT_EQ(idx.run_at({7, 5}), 8);
  EXPECT_EQ(idx.largest_free_rect_area(), 48);
  ASSERT_TRUE(idx.first_anchor(8, 6).has_value());
  EXPECT_EQ(*idx.first_anchor(8, 6), (Coord{0, 0}));
  EXPECT_FALSE(idx.first_anchor(9, 1).has_value());
  EXPECT_FALSE(idx.first_anchor(1, 7).has_value());
}

TEST(FreeIndexTest, SetBusyPatchesRunsInRowOnly) {
  const Mesh2D m(8, 4);
  FreeRegionIndex idx(m);
  idx.set_busy({3, 1}, true);
  EXPECT_TRUE(idx.busy({3, 1}));
  EXPECT_EQ(idx.free_cells(), 31u);
  EXPECT_EQ(idx.run_at({3, 1}), 0);
  EXPECT_EQ(idx.run_at({2, 1}), 3);
  EXPECT_EQ(idx.run_at({4, 1}), 1);
  EXPECT_EQ(idx.run_at({7, 1}), 4);
  // Other rows untouched.
  EXPECT_EQ(idx.run_at({7, 0}), 8);
  EXPECT_EQ(idx.run_at({7, 2}), 8);
  // Flip back: runs restore.
  idx.set_busy({3, 1}, false);
  EXPECT_EQ(idx.run_at({7, 1}), 8);
  EXPECT_EQ(idx.free_cells(), 32u);
}

TEST(FreeIndexTest, SetBusyIsIdempotent) {
  FreeRegionIndex idx(Mesh2D(6, 6));
  idx.set_busy({2, 2}, true);
  const std::uint64_t patched = idx.cells_patched();
  idx.set_busy({2, 2}, true);  // no-op
  EXPECT_EQ(idx.cells_patched(), patched);
  EXPECT_EQ(idx.free_cells(), 35u);
}

TEST(FreeIndexTest, FlipRewritesOneCell) {
  const Mesh2D m(130, 2);
  FreeRegionIndex idx(m);
  idx.set_busy({100, 0}, true);
  const std::uint64_t before = idx.cells_patched();
  // An effective flip rewrites its own cell only, wherever the next busy
  // cell of the row is; a no-op flip rewrites nothing.
  idx.set_busy({2, 0}, true);
  EXPECT_EQ(idx.cells_patched() - before, 1u);
  idx.set_busy({2, 0}, true);
  idx.set_busy({5, 1}, false);
  EXPECT_EQ(idx.cells_patched() - before, 1u);
  EXPECT_EQ(idx.run_at({99, 0}), 97);
  EXPECT_EQ(idx.run_at({101, 0}), 1);
  idx.set_busy({2, 0}, false);
  EXPECT_EQ(idx.cells_patched() - before, 2u);
  EXPECT_EQ(idx.run_at({99, 0}), 100);
}

TEST(FreeIndexTest, IncrementalMatchesRebuildUnderRandomChurn) {
  const Mesh2D m(12, 9, mesh::Topology::Torus);
  FreeRegionIndex idx(m);
  std::vector<std::uint8_t> busy(12 * 9, 0);
  stats::Rng rng(20010423);
  for (int step = 0; step < 400; ++step) {
    const Coord c{static_cast<std::int32_t>(rng.uniform_int(0, 11)),
                  static_cast<std::int32_t>(rng.uniform_int(0, 8))};
    const bool to_busy = rng.bernoulli(0.55);
    idx.set_busy(c, to_busy);
    busy[static_cast<std::size_t>(c.y) * 12 + static_cast<std::size_t>(c.x)] =
        to_busy ? 1 : 0;
    if (step % 40 == 0) {
      const FreeRegionIndex rebuilt =
          FreeRegionIndex::build(m, [&](Coord q) {
            return busy[static_cast<std::size_t>(q.y) * 12 +
                        static_cast<std::size_t>(q.x)] != 0;
          });
      EXPECT_TRUE(idx.equivalent_to(rebuilt)) << "step " << step;
    }
  }
}

TEST(FreeIndexTest, AnchorsMatchBruteForce) {
  const Mesh2D m(10, 7);
  stats::Rng rng(7);
  FreeRegionIndex idx(m);
  for (int i = 0; i < 18; ++i) {
    idx.set_busy({static_cast<std::int32_t>(rng.uniform_int(0, 9)),
                  static_cast<std::int32_t>(rng.uniform_int(0, 6))},
                 true);
  }
  for (const auto& [w, h] : {std::pair{1, 1}, {2, 3}, {3, 2}, {4, 4}}) {
    std::vector<Coord> expected;
    for (std::int32_t y = 0; y < m.height(); ++y) {
      for (std::int32_t x = 0; x < m.width(); ++x) {
        if (fits_brute(idx, {x, y}, w, h)) expected.push_back({x, y});
      }
    }
    const std::vector<Coord> got = anchors_of(idx, w, h);
    EXPECT_EQ(got, expected) << w << "x" << h;
  }
}

// Machines whose rows span one to three 64-bit words, at busy densities
// from empty to full, with shapes whose windows end on, straddle and cross
// word boundaries: every query against a brute-force model of the busy
// cells (prefix sums for the fits, cell walks for runs and extents, a row
// pair sweep for the largest free rectangle).
TEST(FreeIndexTest, WordAnchorsMatchBruteForce) {
  stats::Rng rng(64);
  for (const mesh::Topology topo :
       {mesh::Topology::Mesh, mesh::Topology::Torus}) {
    for (const std::int32_t width : {1, 5, 63, 64, 65, 127, 130}) {
      for (const std::int32_t height : {1, 7, 33}) {
        for (const double density : {0.0, 0.05, 0.3, 0.7, 1.0}) {
          const Mesh2D m(width, height, topo);
          const auto at = [width](std::int32_t x, std::int32_t y) {
            return static_cast<std::size_t>(y) *
                       static_cast<std::size_t>(width) +
                   static_cast<std::size_t>(x);
          };
          std::vector<std::uint8_t> busy(at(0, height), 0);
          FreeRegionIndex idx(m);
          for (std::int32_t y = 0; y < height; ++y) {
            for (std::int32_t x = 0; x < width; ++x) {
              busy[at(x, y)] = rng.uniform() < density ? 1 : 0;
              idx.set_busy({x, y}, busy[at(x, y)] != 0);
            }
          }
          const std::string where = std::to_string(width) + "x" +
                                    std::to_string(height) + " " +
                                    std::to_string(density);
          ASSERT_TRUE(idx.equivalent_to(FreeRegionIndex::build(
              m, [&](Coord c) { return busy[at(c.x, c.y)] != 0; })))
              << where;
          // sum[(y, x)] = busy cells above and left of (x, y).
          const auto w1 = static_cast<std::size_t>(width) + 1;
          std::vector<std::int32_t> sum(
              w1 * (static_cast<std::size_t>(height) + 1), 0);
          for (std::int32_t y = 0; y < height; ++y) {
            for (std::int32_t x = 0; x < width; ++x) {
              const auto i = static_cast<std::size_t>(y + 1) * w1 +
                             static_cast<std::size_t>(x + 1);
              sum[i] = busy[at(x, y)] + sum[i - 1] + sum[i - w1] -
                       sum[i - w1 - 1];
            }
          }
          const auto busy_in = [&](std::int32_t x, std::int32_t y,
                                   std::int32_t w, std::int32_t h) {
            const auto s = [&](std::int32_t sx, std::int32_t sy) {
              return sum[static_cast<std::size_t>(sy) * w1 +
                         static_cast<std::size_t>(sx)];
            };
            return s(x + w, y + h) - s(x, y + h) - s(x + w, y) + s(x, y);
          };
          for (const std::int32_t w : {1, 2, 63, 64, 65, width}) {
            for (const std::int32_t h : {1, 2, height}) {
              std::vector<Coord> expected;
              for (std::int32_t y = 0; y + h <= height; ++y) {
                for (std::int32_t x = 0; x + w <= width; ++x) {
                  if (busy_in(x, y, w, h) == 0) expected.push_back({x, y});
                }
              }
              const std::string shape =
                  where + " " + std::to_string(w) + "x" + std::to_string(h);
              ASSERT_EQ(anchors_of(idx, w, h), expected) << shape;
              const std::optional<Coord> first = idx.first_anchor(w, h);
              ASSERT_EQ(first.has_value(), !expected.empty()) << shape;
              if (first) {
                EXPECT_EQ(*first, expected.front()) << shape;
              }
              // Stopping after half the anchors (at least one) yields
              // exactly that prefix.
              const std::size_t stop =
                  std::min(expected.size(),
                           std::max<std::size_t>(1, (expected.size() + 1) / 2));
              std::vector<Coord> seen;
              idx.for_each_anchor(w, h, [&](Coord a) {
                seen.push_back(a);
                return seen.size() < stop;
              });
              EXPECT_EQ(seen, std::vector<Coord>(
                                  expected.begin(),
                                  expected.begin() +
                                      static_cast<std::ptrdiff_t>(stop)))
                  << shape;
            }
          }
          for (std::int32_t y = 0; y < height; ++y) {
            for (std::int32_t x = 0; x < width; ++x) {
              std::int32_t run = 0;
              while (run <= x && busy[at(x - run, y)] == 0) ++run;
              std::int32_t right = 0;
              while (x + right < width && busy[at(x + right, y)] == 0) {
                ++right;
              }
              std::int32_t down = 0;
              while (y + down < height && busy[at(x, y + down)] == 0) ++down;
              ASSERT_EQ(idx.run_at({x, y}), run) << where << " " << x;
              ASSERT_EQ(idx.row_extent_right({x, y}), right) << where;
              ASSERT_EQ(idx.col_extent_down({x, y}), down) << where;
            }
          }
          std::int64_t largest = 0;
          for (std::int32_t y0 = 0; y0 < height; ++y0) {
            for (std::int32_t y1 = y0; y1 < height; ++y1) {
              std::int32_t run = 0;
              for (std::int32_t x = 0; x < width; ++x) {
                run = busy_in(x, y0, 1, y1 - y0 + 1) == 0 ? run + 1 : 0;
                largest = std::max<std::int64_t>(
                    largest, static_cast<std::int64_t>(run) * (y1 - y0 + 1));
              }
            }
          }
          EXPECT_EQ(idx.largest_free_rect_area(), largest) << where;
        }
      }
    }
  }
}

TEST(FreeIndexTest, AnchorEnumerationStopsEarly) {
  const FreeRegionIndex idx(Mesh2D(6, 6));
  int seen = 0;
  idx.for_each_anchor(2, 2, [&](Coord) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(FreeIndexTest, LargestFreeRectMatchesBruteForce) {
  const Mesh2D m(9, 8);
  stats::Rng rng(99);
  FreeRegionIndex idx(m);
  for (int i = 0; i < 20; ++i) {
    idx.set_busy({static_cast<std::int32_t>(rng.uniform_int(0, 8)),
                  static_cast<std::int32_t>(rng.uniform_int(0, 7))},
                 true);
  }
  std::int64_t best = 0;
  for (std::int32_t h = 1; h <= m.height(); ++h) {
    for (std::int32_t w = 1; w <= m.width(); ++w) {
      if (!anchors_of(idx, w, h).empty()) {
        best = std::max<std::int64_t>(best,
                                      static_cast<std::int64_t>(w) * h);
      }
    }
  }
  EXPECT_EQ(idx.largest_free_rect_area(), best);
}

TEST(FreeIndexTest, ExpandBusyMatchesCellByCell) {
  // Every legal call: a whole row from x0 = 0, and every page row of every
  // page side (a power of two up to 32, starting at a multiple of it). The
  // widths cover whole 64-cell chunks, 8-cell lanes and byte tails.
  stats::Rng rng(2611);
  for (std::int32_t width = 1; width <= 130; ++width) {
    for (const double density : {0.0, 0.3, 1.0}) {
      const Mesh2D m(width, 3);
      FreeRegionIndex idx(m);
      for (std::int32_t y = 0; y < m.height(); ++y) {
        for (std::int32_t x = 0; x < width; ++x) {
          if (rng.uniform() < density) idx.set_busy({x, y}, true);
        }
      }
      const auto check = [&](std::int32_t y, std::int32_t x0,
                             std::int32_t n) {
        std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 0xee);
        expand_busy(idx.free_row(y), x0, out);
        std::vector<std::uint8_t> expected;
        for (std::int32_t x = x0; x < x0 + n; ++x) {
          expected.push_back(idx.busy({x, y}) ? 1 : 0);
        }
        EXPECT_EQ(out, expected) << "width " << width << " density "
                                 << density << " y " << y << " x0 " << x0
                                 << " cells " << n;
      };
      for (std::int32_t y = 0; y < m.height(); ++y) {
        check(y, 0, width);
        for (std::int32_t side = 1; side <= 32; side *= 2) {
          for (std::int32_t x0 = 0; x0 < width; x0 += side) {
            check(y, x0, std::min(side, width - x0));
          }
        }
      }
    }
  }
}

TEST(FreeIndexTest, ExtentsMeasureFreeSlabs) {
  FreeRegionIndex idx(Mesh2D(8, 8));
  idx.set_busy({5, 2}, true);
  idx.set_busy({2, 5}, true);
  EXPECT_EQ(idx.row_extent_right({0, 2}), 5);
  EXPECT_EQ(idx.row_extent_right({6, 2}), 2);
  EXPECT_EQ(idx.row_extent_right({5, 2}), 0);
  EXPECT_EQ(idx.col_extent_down({2, 0}), 5);
  EXPECT_EQ(idx.col_extent_down({2, 6}), 2);
  EXPECT_EQ(idx.col_extent_down({2, 5}), 0);
}

// The incremental-vs-rebuild pin in deterministic units: on a 64x64
// machine a single-fault epoch rewrites one cell, >= 4x fewer cell writes
// than the 4096 a rebuild touches. The wall-clock twin lives in
// bench/alloc_load.
TEST(FreeIndexTest, SingleFaultEpochPatchesFarLessThanRebuild) {
  const Mesh2D m(64, 64);
  FreeRegionIndex idx(m);
  stats::Rng rng(5);
  const std::uint64_t rebuild_cost =
      static_cast<std::uint64_t>(m.node_count());
  for (int epoch = 0; epoch < 32; ++epoch) {
    const std::uint64_t before = idx.cells_patched();
    idx.set_busy({static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                  static_cast<std::int32_t>(rng.uniform_int(0, 63))},
                 true);
    const std::uint64_t patched = idx.cells_patched() - before;
    EXPECT_LE(patched, 64u);
    EXPECT_GE(rebuild_cost, 4 * std::max<std::uint64_t>(patched, 1));
  }
}

}  // namespace
}  // namespace ocp::alloc
