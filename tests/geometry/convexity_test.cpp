#include "geometry/convexity.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/shapes.hpp"

namespace ocp::geom {
namespace {

using mesh::Coord;

TEST(ConvexityTest, EmptyAndSingletonAreConvex) {
  EXPECT_TRUE(is_orthogonal_convex(Region{}));
  EXPECT_TRUE(is_orthogonal_convex(Region({{3, 3}})));
}

TEST(ConvexityTest, RectanglesAreConvex) {
  EXPECT_TRUE(is_orthogonal_convex(fault::make_rectangle({0, 0}, 1, 1)));
  EXPECT_TRUE(is_orthogonal_convex(fault::make_rectangle({2, 3}, 5, 4)));
  EXPECT_TRUE(is_orthogonal_convex(fault::make_rectangle({0, 0}, 10, 1)));
}

// Section 2 of the paper: T-, L-, +-shapes are orthogonal convex; U- and
// H-shapes are not.
TEST(ConvexityTest, PaperShapeClassification) {
  EXPECT_TRUE(is_orthogonal_convex(fault::make_t_shape({0, 0}, 5, 3)));
  EXPECT_TRUE(is_orthogonal_convex(fault::make_l_shape({0, 0}, 5, 2)));
  EXPECT_TRUE(is_orthogonal_convex(fault::make_plus_shape({5, 5}, 2)));
  EXPECT_FALSE(is_orthogonal_convex(fault::make_u_shape({0, 0}, 5, 3)));
  EXPECT_FALSE(is_orthogonal_convex(fault::make_h_shape({0, 0}, 5, 5)));
}

TEST(ConvexityTest, RowGapBreaksConvexity) {
  EXPECT_FALSE(is_orthogonal_convex(Region({{0, 0}, {2, 0}})));
  EXPECT_FALSE(is_orthogonal_convex(Region({{0, 0}, {1, 0}, {3, 0}})));
}

TEST(ConvexityTest, ColumnGapBreaksConvexity) {
  EXPECT_FALSE(is_orthogonal_convex(Region({{0, 0}, {0, 2}})));
}

TEST(ConvexityTest, DiagonalPairIsConvexButNotFourConnected) {
  // Rows and columns each hold one cell -> orthogonal convex as a set; it is
  // a polygon only under 8-connectivity (the disabled-region case).
  const Region diag({{2, 1}, {3, 2}});
  EXPECT_TRUE(is_orthogonal_convex(diag));
  EXPECT_FALSE(is_orthogonal_convex_polygon(diag, Connectivity::Four));
  EXPECT_TRUE(is_orthogonal_convex_polygon(diag, Connectivity::Eight));
}

TEST(ConvexityTest, StaircaseIsConvex) {
  // A monotone staircase has one run per row and per column.
  const Region stairs({{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}});
  EXPECT_TRUE(is_orthogonal_convex(stairs));
  EXPECT_TRUE(is_orthogonal_convex_polygon(stairs));
}

TEST(ConvexityTest, NotStandardConvexButOrthogonallyConvex) {
  // An L-shape is not convex in the Euclidean sense yet orthogonal convex —
  // the distinction the paper's Definition 1 draws.
  const Region l = fault::make_l_shape({0, 0}, 4, 1);
  EXPECT_TRUE(is_orthogonal_convex(l));
}

TEST(CornerTest, RectangleHasFourCorners) {
  const Region r = fault::make_rectangle({1, 1}, 4, 3);
  const auto corners = corner_nodes(r);
  ASSERT_EQ(corners.size(), 4u);
  EXPECT_TRUE(is_corner_node(r, {1, 1}));
  EXPECT_TRUE(is_corner_node(r, {4, 1}));
  EXPECT_TRUE(is_corner_node(r, {1, 3}));
  EXPECT_TRUE(is_corner_node(r, {4, 3}));
  EXPECT_FALSE(is_corner_node(r, {2, 2}));
  EXPECT_FALSE(is_corner_node(r, {2, 1}));  // edge, not corner
}

TEST(CornerTest, SingleCellIsItsOwnCorner) {
  const Region r({{5, 5}});
  EXPECT_TRUE(is_corner_node(r, {5, 5}));
}

TEST(CornerTest, NonMemberIsNotACorner) {
  const Region r = fault::make_rectangle({0, 0}, 2, 2);
  EXPECT_FALSE(is_corner_node(r, {5, 5}));
}

TEST(CornerTest, PlusShapeCornersAreArmTipsAndElbows) {
  const Region plus = fault::make_plus_shape({5, 5}, 2);
  // Arm tips have out-neighbors in both dimensions.
  EXPECT_TRUE(is_corner_node(plus, {3, 5}));
  EXPECT_TRUE(is_corner_node(plus, {7, 5}));
  EXPECT_TRUE(is_corner_node(plus, {5, 3}));
  EXPECT_TRUE(is_corner_node(plus, {5, 7}));
  // The center has no out-neighbor at all.
  EXPECT_FALSE(is_corner_node(plus, {5, 5}));
}

TEST(QuadrantTest, MembershipIncludesAxes) {
  const Coord origin{5, 5};
  EXPECT_TRUE(in_quadrant(origin, Quadrant::PosPos, {5, 5}));
  EXPECT_TRUE(in_quadrant(origin, Quadrant::PosPos, {5, 9}));   // on y axis
  EXPECT_TRUE(in_quadrant(origin, Quadrant::NegNeg, {5, 5}));   // origin
  EXPECT_TRUE(in_quadrant(origin, Quadrant::NegPos, {5, 6}));
  EXPECT_FALSE(in_quadrant(origin, Quadrant::PosPos, {4, 6}));
  EXPECT_FALSE(in_quadrant(origin, Quadrant::NegNeg, {6, 6}));
}

// Lemma 2: for any node u inside a region produced by the enabled/disabled
// rule, each quadrant anchored at u holds a corner node. Pure-geometry
// sanity check on a rectangle (where it holds for any interior node).
TEST(QuadrantTest, RectangleQuadrantsHoldCorners) {
  const Region r = fault::make_rectangle({0, 0}, 5, 4);
  for (Coord u : r.cells()) {
    for (Quadrant q : kAllQuadrants) {
      EXPECT_TRUE(quadrant_has_corner(r, u, q))
          << "origin " << mesh::to_string(u);
    }
  }
}

// Lemma 2 holds for every finite cell set, not only for regions the
// labeling produces (DESIGN.md sec. 7): in each closed quadrant of a member
// u, the member farthest out along the quadrant's y and then x direction
// is a corner. Every one of the 2^16 cell sets of a 4x4 box, every member,
// every quadrant.
TEST(QuadrantTest, EveryCellSetOfA4x4BoxHasCornersInEveryQuadrant) {
  std::uint32_t failures = 0;
  std::uint32_t first_failing_set = 0;
  for (std::uint32_t set = 1; set < (1u << 16); ++set) {
    std::vector<Coord> cells;
    for (std::int32_t i = 0; i < 16; ++i) {
      if ((set >> i & 1u) != 0) cells.push_back({i % 4, i / 4});
    }
    const Region r(std::move(cells));
    for (const Coord u : r.cells()) {
      for (const Quadrant q : kAllQuadrants) {
        if (!quadrant_has_corner(r, u, q) && failures++ == 0) {
          first_failing_set = set;
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u) << "first failing cell set 0x" << std::hex
                          << first_failing_set;
}

}  // namespace
}  // namespace ocp::geom
