#include "geometry/region.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fault/shapes.hpp"

namespace ocp::geom {
namespace {

using mesh::Coord;

// A one-cell region lives in the bounding box, and the empty region is told
// apart by an inverted box rather than a flag: no member was added.
static_assert(sizeof(Region) ==
              sizeof(std::vector<Coord>) + sizeof(Rect));

/// True when `r`'s cells are held in the object itself (no heap vector).
bool stored_inline(const Region& r) {
  return r.cells().data() == &r.bounding_box().lo;
}

TEST(RegionTest, EmptyRegion) {
  const Region r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.contains({0, 0}));
  EXPECT_EQ(r.diameter(), 0);
  EXPECT_EQ(r.component_count(), 0u);
}

TEST(RegionTest, DeduplicatesAndSortsRowMajor) {
  const Region r({{2, 1}, {0, 0}, {2, 1}, {1, 0}});
  EXPECT_EQ(r.size(), 3u);
  const auto cells = r.cells();
  EXPECT_EQ(cells[0], (Coord{0, 0}));
  EXPECT_EQ(cells[1], (Coord{1, 0}));
  EXPECT_EQ(cells[2], (Coord{2, 1}));
}

TEST(RegionTest, ContainsUsesBinarySearch) {
  const Region r({{0, 0}, {5, 5}, {3, 2}});
  EXPECT_TRUE(r.contains({3, 2}));
  EXPECT_FALSE(r.contains({2, 3}));
  EXPECT_FALSE(r.contains({-1, -1}));
}

TEST(RegionTest, BoundingBox) {
  const Region r({{1, 4}, {3, 2}, {2, 2}});
  EXPECT_EQ(r.bounding_box().lo, (Coord{1, 2}));
  EXPECT_EQ(r.bounding_box().hi, (Coord{3, 4}));
}

TEST(RegionTest, RectangleDetection) {
  EXPECT_TRUE(fault::make_rectangle({2, 3}, 4, 2).is_rectangle());
  EXPECT_FALSE(fault::make_l_shape({0, 0}, 4, 2).is_rectangle());
  EXPECT_TRUE(Region({{7, 7}}).is_rectangle());
}

TEST(RegionTest, DiameterMatchesBruteForce) {
  const Region shapes[] = {
      fault::make_rectangle({0, 0}, 5, 3),
      fault::make_l_shape({0, 0}, 6, 2),
      fault::make_plus_shape({10, 10}, 3),
      fault::make_u_shape({0, 0}, 5, 4),
      Region({{0, 0}, {7, 3}, {2, 9}}),
  };
  for (const Region& r : shapes) {
    std::int32_t brute = 0;
    for (Coord a : r.cells()) {
      for (Coord b : r.cells()) {
        brute = std::max(brute, mesh::manhattan(a, b));
      }
    }
    EXPECT_EQ(r.diameter(), brute);
  }
}

TEST(RegionTest, ConnectivityFourVsEight) {
  const Region diag({{0, 0}, {1, 1}});
  EXPECT_FALSE(diag.is_connected(Connectivity::Four));
  EXPECT_TRUE(diag.is_connected(Connectivity::Eight));
  EXPECT_EQ(diag.component_count(Connectivity::Four), 2u);
  EXPECT_EQ(diag.component_count(Connectivity::Eight), 1u);
}

TEST(RegionTest, ShapesAreConnected) {
  EXPECT_TRUE(fault::make_l_shape({0, 0}, 5, 2).is_connected());
  EXPECT_TRUE(fault::make_t_shape({0, 0}, 5, 3).is_connected());
  EXPECT_TRUE(fault::make_u_shape({0, 0}, 5, 3).is_connected());
  EXPECT_TRUE(fault::make_h_shape({0, 0}, 5, 5).is_connected());
  EXPECT_TRUE(fault::make_plus_shape({5, 5}, 2).is_connected());
}

TEST(RegionTest, DistanceToOtherRegion) {
  const Region a({{0, 0}, {1, 0}});
  const Region b({{4, 0}});
  EXPECT_EQ(a.distance_to(b), 3);
  const Region c({{1, 1}});
  EXPECT_EQ(a.distance_to(c), 1);
}

TEST(RegionTest, DifferenceAndUnion) {
  const Region a = fault::make_rectangle({0, 0}, 3, 3);
  const Region b = fault::make_rectangle({1, 1}, 3, 3);
  const Region diff = a.difference(b);
  EXPECT_EQ(diff.size(), 9u - 4u);
  EXPECT_TRUE(diff.contains({0, 0}));
  EXPECT_FALSE(diff.contains({1, 1}));
  const Region uni = a.united(b);
  EXPECT_EQ(uni.size(), 9u + 9u - 4u);
}

TEST(RegionTest, AsciiRendering) {
  const Region r({{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(r.to_ascii(), ".#\n##\n");
}

TEST(RegionTest, EqualityIgnoresConstructionOrder) {
  const Region a({{0, 0}, {1, 1}});
  const Region b({{1, 1}, {0, 0}});
  EXPECT_EQ(a, b);
}

TEST(RegionOneCellTest, AllConstructionsAgree) {
  const Coord c{3, -2};
  const Region direct(c);
  const Region listed({c});
  const Region duplicated({c, c});
  const Region from_vector(std::vector<Coord>{c});
  for (const Region* r : {&direct, &listed, &duplicated, &from_vector}) {
    EXPECT_EQ(r->size(), 1u);
    EXPECT_FALSE(r->empty());
    EXPECT_TRUE(stored_inline(*r));
    ASSERT_EQ(r->cells().size(), 1u);
    EXPECT_EQ(r->cells()[0], c);
    EXPECT_EQ(r->bounding_box(), Rect::cell(c));
  }
  EXPECT_EQ(direct, listed);
  EXPECT_EQ(direct, duplicated);
  EXPECT_EQ(listed, duplicated);
  EXPECT_EQ(direct, from_vector);
  EXPECT_NE(direct, Region(Coord{3, -1}));
}

TEST(RegionOneCellTest, EmptyDiffersFromCellAtOrigin) {
  const Region empty;
  const Region origin(Coord{0, 0});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.cells().empty());
  EXPECT_FALSE(origin.empty());
  EXPECT_EQ(origin.size(), 1u);
  EXPECT_NE(empty, origin);
  EXPECT_FALSE(empty.contains({0, 0}));
  EXPECT_TRUE(origin.contains({0, 0}));
  EXPECT_FALSE(empty.is_rectangle());
  EXPECT_TRUE(origin.is_rectangle());
  EXPECT_EQ(empty.component_count(), 0u);
  EXPECT_EQ(origin.component_count(), 1u);
  EXPECT_EQ(empty, Region(std::vector<Coord>{}));
  EXPECT_EQ(empty.to_ascii(), "(empty region)");
  EXPECT_EQ(origin.to_ascii(), "#\n");
}

TEST(RegionOneCellTest, QueriesGoThroughTheInlineCell) {
  const Region r(Coord{5, 7});
  EXPECT_TRUE(r.contains({5, 7}));
  EXPECT_FALSE(r.contains({5, 6}));
  EXPECT_FALSE(r.contains({6, 7}));
  EXPECT_EQ(r.diameter(), 0);
  EXPECT_TRUE(r.is_rectangle());
  EXPECT_TRUE(r.is_connected(Connectivity::Four));
  EXPECT_EQ(r.component_count(Connectivity::Eight), 1u);
  EXPECT_EQ(r.to_ascii(), "#\n");
  EXPECT_EQ(r.distance_to(Region({{5, 9}, {8, 7}})), 2);
  EXPECT_EQ(Region({{5, 9}, {8, 7}}).distance_to(r), 2);
}

TEST(RegionOneCellTest, SetOperationsCrossRepresentations) {
  const Region one(Coord{1, 1});
  const Region pair({{1, 1}, {2, 1}});
  const Region other(Coord{4, 4});

  // Multi-cell minus a cell leaves one cell, stored inline.
  const Region left = pair.difference(Region(Coord{2, 1}));
  EXPECT_EQ(left, one);
  EXPECT_TRUE(stored_inline(left));
  EXPECT_TRUE(one.difference(pair).empty());
  EXPECT_EQ(one.difference(other), one);
  EXPECT_TRUE(one.difference(one).empty());

  const Region both = one.united(other);
  EXPECT_EQ(both, Region({{4, 4}, {1, 1}}));
  EXPECT_FALSE(stored_inline(both));
  EXPECT_EQ(both.diameter(), 6);
  EXPECT_EQ(both.component_count(), 2u);
  EXPECT_EQ(one.united(one), one);
  EXPECT_TRUE(stored_inline(one.united(one)));
  EXPECT_EQ(one.united(pair), pair);
  EXPECT_EQ(pair.united(one), pair);
  EXPECT_EQ(Region().united(one), one);
  EXPECT_EQ(both.to_ascii(), "...#\n....\n....\n#...\n");
}

TEST(RegionOneCellTest, CopyMoveAndAssignAcrossRepresentations) {
  const Region one(Coord{2, 3});
  const Region many({{0, 0}, {1, 0}, {1, 1}});

  Region copy = one;
  EXPECT_EQ(copy, one);
  EXPECT_TRUE(stored_inline(copy));  // the copy's own cell, not `one`'s
  Region moved = std::move(copy);
  EXPECT_EQ(moved, one);
  EXPECT_TRUE(stored_inline(moved));

  // One-cell <- multi-cell, by copy and by move.
  Region target = one;
  target = many;
  EXPECT_EQ(target, many);
  EXPECT_FALSE(stored_inline(target));
  target = one;
  EXPECT_EQ(target, one);
  EXPECT_TRUE(stored_inline(target));
  Region many_copy = many;
  target = std::move(many_copy);
  EXPECT_EQ(target, many);
  EXPECT_EQ(target.size(), 3u);
  EXPECT_TRUE(target.contains({1, 1}));

  // Multi-cell <- one-cell, by move.
  Region one_copy = one;
  target = std::move(one_copy);
  EXPECT_EQ(target, one);
  EXPECT_EQ(target.size(), 1u);
  EXPECT_FALSE(target.contains({1, 1}));

  // A vector that grows relocates one-cell regions; their cells move along.
  std::vector<Region> grown;
  for (std::int32_t i = 0; i < 40; ++i) {
    if (i % 3 == 0) {
      grown.emplace_back(std::vector<Coord>{{i, 0}, {i, 1}});
    } else {
      grown.emplace_back(Coord{i, 0});
    }
  }
  for (std::int32_t i = 0; i < 40; ++i) {
    const Region& r = grown[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.cells().front(), (Coord{i, 0}));
    EXPECT_EQ(r.size(), i % 3 == 0 ? 2u : 1u);
  }
}

}  // namespace
}  // namespace ocp::geom
