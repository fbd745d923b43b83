#include "grid/cell_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace ocp::grid {
namespace {

using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

TEST(CellSetTest, StartsEmpty) {
  const CellSet s{Mesh2D(4, 4)};
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains({0, 0}));
}

TEST(CellSetTest, InsertEraseContains) {
  CellSet s{Mesh2D(4, 4)};
  s.insert({1, 2});
  EXPECT_TRUE(s.contains({1, 2}));
  EXPECT_EQ(s.size(), 1u);
  s.insert({1, 2});  // idempotent
  EXPECT_EQ(s.size(), 1u);
  s.erase({1, 2});
  EXPECT_FALSE(s.contains({1, 2}));
  EXPECT_TRUE(s.empty());
  s.erase({1, 2});  // idempotent
  EXPECT_EQ(s.size(), 0u);
}

TEST(CellSetTest, InitializerListConstructor) {
  const CellSet s{Mesh2D(5, 5), {{0, 0}, {2, 3}, {4, 4}}};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains({2, 3}));
  EXPECT_FALSE(s.contains({3, 2}));
}

TEST(CellSetTest, OutOfMeshIsNeverMember) {
  const CellSet s{Mesh2D(3, 3), {{0, 0}}};
  EXPECT_FALSE(s.contains({-1, 0}));
  EXPECT_FALSE(s.contains({3, 0}));
}

TEST(CellSetTest, ToVectorIsRowMajor) {
  const CellSet s{Mesh2D(4, 4), {{3, 2}, {0, 0}, {1, 0}, {2, 1}}};
  const std::vector<Coord> expected = {{0, 0}, {1, 0}, {2, 1}, {3, 2}};
  EXPECT_EQ(s.to_vector(), expected);
}

TEST(CellSetTest, ForEachVisitsEveryMemberOnce) {
  const CellSet s{Mesh2D(6, 6), {{1, 1}, {5, 0}, {0, 5}}};
  std::size_t visits = 0;
  s.for_each([&](Coord c) {
    EXPECT_TRUE(s.contains(c));
    ++visits;
  });
  EXPECT_EQ(visits, 3u);
}

TEST(CellSetTest, UnionDifferenceIntersection) {
  const Mesh2D m(4, 4);
  CellSet a{m, {{0, 0}, {1, 1}}};
  const CellSet b{m, {{1, 1}, {2, 2}}};

  CellSet u = a;
  u |= b;
  EXPECT_EQ(u.size(), 3u);
  EXPECT_TRUE(u.contains({0, 0}));
  EXPECT_TRUE(u.contains({2, 2}));

  CellSet d = a;
  d -= b;
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.contains({0, 0}));
  EXPECT_FALSE(d.contains({1, 1}));

  CellSet i = a;
  i &= b;
  EXPECT_EQ(i.size(), 1u);
  EXPECT_TRUE(i.contains({1, 1}));
}

TEST(CellSetTest, ClearResets) {
  CellSet s{Mesh2D(4, 4), {{0, 0}, {3, 3}}};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains({0, 0}));
}

TEST(CellSetTest, EqualityIsValueBased) {
  const Mesh2D m(4, 4);
  const CellSet a{m, {{1, 2}}};
  const CellSet b{m, {{1, 2}}};
  const CellSet c{m, {{2, 1}}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(CellSetTest, A1024SquareSetHoldsSixteenThousandWords) {
  const CellSet s{Mesh2D::square(1024)};
  EXPECT_EQ(s.bits().words().size(), 16384u);  // 128 KiB, one bit per node
}

/// Row-major order, the order `for_each` and `to_vector` visit members in.
struct RowMajor {
  bool operator()(Coord a, Coord b) const {
    return a.y < b.y || (a.y == b.y && a.x < b.x);
  }
};
using Model = std::set<Coord, RowMajor>;

/// Checks `s` against `model` cell by cell, then its order, its count and
/// the zero pad bits of its words.
void expect_matches(const CellSet& s, const Model& model,
                    const std::string& context) {
  const Mesh2D& m = s.topology();
  for (std::int32_t y = 0; y < m.height(); ++y) {
    for (std::int32_t x = 0; x < m.width(); ++x) {
      ASSERT_EQ(s.contains({x, y}), model.contains({x, y}))
          << context << " at " << mesh::to_string({x, y});
    }
  }
  const std::vector<Coord> expected(model.begin(), model.end());
  ASSERT_EQ(s.size(), model.size()) << context;
  ASSERT_EQ(s.empty(), model.empty()) << context;
  ASSERT_EQ(s.to_vector(), expected) << context;
  std::vector<Coord> visited;
  s.for_each([&visited](Coord c) { visited.push_back(c); });
  ASSERT_EQ(visited, expected) << context;

  const BitPlane& bits = s.bits();
  const std::size_t last = bits.words_per_row() - 1;
  // Columns in a row's last word; the bits above them are pad.
  const auto used = static_cast<unsigned>(m.width() - 1) % 64 + 1;
  const std::uint64_t pad = used == 64 ? 0 : ~std::uint64_t{0} << used;
  ASSERT_EQ(bits.words().size(),
            bits.words_per_row() * static_cast<std::size_t>(m.height()));
  for (std::int32_t y = 0; y < m.height(); ++y) {
    ASSERT_EQ(bits.row(y)[last] & pad, 0u) << context << " row " << y;
  }

  CellSet rebuilt(m);
  for (const Coord c : model) rebuilt.insert(c);
  ASSERT_EQ(s, rebuilt) << context;
  const CellSet counted(BitPlane{bits});
  ASSERT_EQ(counted.size(), model.size()) << context;
  ASSERT_EQ(counted, s) << context;
}

class CellSetLayoutTest
    : public testing::TestWithParam<std::tuple<std::int32_t, std::int32_t,
                                               Topology>> {};

// Widths around the word size and heights of one and more rows, driven
// through seeded inserts, erases and set algebra next to a std::set model.
TEST_P(CellSetLayoutTest, WordsFollowASetModelThroughInsertEraseAndAlgebra) {
  const auto [w, h, t] = GetParam();
  const Mesh2D m(w, h, t);
  std::mt19937 rng(static_cast<std::uint32_t>(w * 1000 + h * 10) +
                   static_cast<std::uint32_t>(t));
  const auto cell = [&] {
    return Coord{std::uniform_int_distribution<std::int32_t>(0, w - 1)(rng),
                 std::uniform_int_distribution<std::int32_t>(0, h - 1)(rng)};
  };
  // A random set of up to half the nodes, with its model.
  const auto random_set = [&] {
    std::pair<CellSet, Model> out{CellSet(m), Model{}};
    const auto n = std::uniform_int_distribution<std::int64_t>(
        0, m.node_count() / 2)(rng);
    for (std::int64_t i = 0; i < n; ++i) {
      const Coord c = cell();
      out.first.insert(c);
      out.second.insert(c);
    }
    return out;
  };

  CellSet s(m);
  Model model;
  ASSERT_NO_FATAL_FAILURE(expect_matches(s, model, "empty"));
  for (int step = 0; step < 60; ++step) {
    const std::string context = "step " + std::to_string(step);
    const int op = std::uniform_int_distribution<int>(0, 5)(rng);
    if (op <= 1) {  // a run of inserts, repeats included
      for (int i = 0; i < 1 + w * h / 16; ++i) {
        const Coord c = cell();
        s.insert(c);
        model.insert(c);
      }
    } else if (op == 2) {  // erases of members and of non-members
      for (int i = 0; i < 1 + w * h / 16; ++i) {
        const Coord c = cell();
        s.erase(c);
        model.erase(c);
      }
    } else {
      const auto [other, other_model] = random_set();
      Model next;
      if (op == 3) {
        s |= other;
        std::set_union(model.begin(), model.end(), other_model.begin(),
                       other_model.end(), std::inserter(next, next.end()),
                       RowMajor{});
      } else if (op == 4) {
        s -= other;
        std::set_difference(model.begin(), model.end(), other_model.begin(),
                            other_model.end(), std::inserter(next, next.end()),
                            RowMajor{});
      } else {
        s &= other;
        std::set_intersection(model.begin(), model.end(),
                              other_model.begin(), other_model.end(),
                              std::inserter(next, next.end()), RowMajor{});
      }
      model = std::move(next);
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches(s, model, context));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CellSetLayoutTest,
    testing::Combine(testing::Values(1, 2, 63, 64, 65, 130),
                     testing::Values(1, 3, 37),
                     testing::Values(Topology::Mesh, Topology::Torus)),
    [](const auto& shape) {
      return std::to_string(std::get<0>(shape.param)) + "x" +
             std::to_string(std::get<1>(shape.param)) +
             (std::get<2>(shape.param) == Topology::Torus ? "Torus" : "Mesh");
    });

}  // namespace
}  // namespace ocp::grid
