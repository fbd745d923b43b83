#include "grid/connectivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ocp::grid {
namespace {

using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

TEST(ConnectivityTest, EmptySetHasNoComponents) {
  const CellSet s{Mesh2D(4, 4)};
  EXPECT_TRUE(connected_components(s).empty());
}

TEST(ConnectivityTest, SingleCellIsOneComponent) {
  const CellSet s{Mesh2D(4, 4), {{2, 2}}};
  const auto comps = connected_components(s);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].region.size(), 1u);
  EXPECT_TRUE(comps[0].region.contains({2, 2}));
}

TEST(ConnectivityTest, FourConnectivitySeparatesDiagonals) {
  const CellSet s{Mesh2D(4, 4), {{0, 0}, {1, 1}}};
  EXPECT_EQ(connected_components(s, Connectivity::Four).size(), 2u);
  EXPECT_EQ(connected_components(s, Connectivity::Eight).size(), 1u);
}

TEST(ConnectivityTest, LShapedComponentIsOnePiece) {
  const CellSet s{Mesh2D(5, 5), {{1, 1}, {1, 2}, {1, 3}, {2, 1}, {3, 1}}};
  const auto comps = connected_components(s);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].region.size(), 5u);
}

TEST(ConnectivityTest, TwoSeparateClusters) {
  const CellSet s{Mesh2D(8, 8), {{0, 0}, {1, 0}, {6, 6}, {6, 7}}};
  const auto comps = connected_components(s);
  ASSERT_EQ(comps.size(), 2u);
  // Deterministic row-major seed order: the (0,0) cluster comes first.
  EXPECT_TRUE(comps[0].region.contains({0, 0}));
  EXPECT_TRUE(comps[1].region.contains({6, 6}));
}

TEST(ConnectivityTest, MeshCellsEqualRegionCellsOnMesh) {
  const CellSet s{Mesh2D(6, 6), {{2, 2}, {3, 2}, {2, 3}}};
  const auto comps = connected_components(s);
  ASSERT_EQ(comps.size(), 1u);
  // On a mesh the physical addresses alias the region cells (no duplicate
  // vector is materialized).
  EXPECT_TRUE(comps[0].mesh_cells.empty());
  const auto region_cells = comps[0].region.cells();
  const auto phys_cells = comps[0].cells();
  ASSERT_EQ(phys_cells.size(), region_cells.size());
  for (std::size_t i = 0; i < region_cells.size(); ++i) {
    EXPECT_EQ(phys_cells[i], region_cells[i]);
  }
}

TEST(ConnectivityTest, TorusComponentCrossesWraparound) {
  const Mesh2D m(6, 6, Topology::Torus);
  // Cells straddling the x = 0 / x = 5 seam form one component on a torus.
  const CellSet s{m, {{5, 2}, {0, 2}, {1, 2}}};
  const auto comps = connected_components(s);
  ASSERT_EQ(comps.size(), 1u);
  // The unwrapped frame is one contiguous horizontal run of three cells.
  const auto& r = comps[0].region;
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.bounding_box().width(), 3);
  EXPECT_EQ(r.bounding_box().height(), 1);
}

TEST(ConnectivityTest, SameCellsOnMeshStaySplitAcrossSeam) {
  const Mesh2D m(6, 6, Topology::Mesh);
  const CellSet s{m, {{5, 2}, {0, 2}, {1, 2}}};
  EXPECT_EQ(connected_components(s).size(), 2u);
}

TEST(ConnectivityTest, TorusUnwrappedFrameMapsBackToMeshCells) {
  const Mesh2D m(5, 5, Topology::Torus);
  const CellSet s{m, {{4, 0}, {0, 0}, {4, 4}, {0, 4}}};  // 2x2 across corner
  const auto comps = connected_components(s, Connectivity::Four);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].region.size(), 4u);
  EXPECT_TRUE(comps[0].region.is_rectangle());
  // Every frame cell wraps back to a member of the original set; on a torus
  // the physical addresses are materialized separately from the frame.
  EXPECT_EQ(comps[0].mesh_cells.size(), comps[0].region.size());
  for (Coord cell : comps[0].cells()) {
    EXPECT_TRUE(s.contains(cell));
  }
}

TEST(ConnectivityTest, DoubleSeamComponentUnwrapsWithConsistentShift) {
  // A component spanning the x-seam AND the y-seam simultaneously: cells on
  // all four sides of the corner. The unwrapped frame must be one planar
  // translate of the component — (frame - mesh) is a single constant vector
  // modulo the machine dimensions for every cell, and the frame itself is
  // connected even though the mesh coordinates are split across both seams.
  const Mesh2D m(7, 6, Topology::Torus);
  const CellSet s{m, {{6, 5}, {0, 5}, {6, 0}, {0, 0}, {1, 0}, {6, 1}}};
  const auto comps = connected_components(s, Connectivity::Four);
  ASSERT_EQ(comps.size(), 1u);
  const auto& comp = comps[0];
  ASSERT_EQ(comp.region.size(), s.size());
  EXPECT_TRUE(comp.region.is_connected(geom::Connectivity::Four));
  EXPECT_FALSE(comp.region.is_rectangle());
  const auto frame = comp.region.cells();
  const auto cells = comp.cells();
  const auto wrap = [](std::int32_t v, std::int32_t n) {
    return ((v % n) + n) % n;
  };
  const std::int32_t dx = wrap(frame[0].x - cells[0].x, m.width());
  const std::int32_t dy = wrap(frame[0].y - cells[0].y, m.height());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(wrap(frame[i].x - cells[i].x, m.width()), dx)
        << "inconsistent x-shift at " << mesh::to_string(cells[i]);
    EXPECT_EQ(wrap(frame[i].y - cells[i].y, m.height()), dy)
        << "inconsistent y-shift at " << mesh::to_string(cells[i]);
    EXPECT_TRUE(s.contains(cells[i]));
  }
}

TEST(ConnectivityTest, ComponentRegionsConvenienceMatches) {
  const CellSet s{Mesh2D(8, 8), {{0, 0}, {1, 0}, {5, 5}}};
  const auto comps = connected_components(s);
  const auto regions = component_regions(s);
  ASSERT_EQ(comps.size(), regions.size());
  for (std::size_t i = 0; i < comps.size(); ++i) {
    EXPECT_EQ(comps[i].region, regions[i]);
  }
}

TEST(ConnectivityTest, ComponentSizesSumToSetSize) {
  const CellSet s{Mesh2D(10, 10),
                  {{1, 1}, {1, 2}, {4, 4}, {9, 9}, {9, 8}, {8, 8}, {0, 9}}};
  std::size_t total = 0;
  for (const auto& comp : connected_components(s)) {
    total += comp.region.size();
  }
  EXPECT_EQ(total, s.size());
}

TEST(ConnectivityTest, SingleCellComponentsHoldNoHeapCells) {
  for (const Topology t : {Topology::Mesh, Topology::Torus}) {
    const CellSet s{Mesh2D(9, 7, t), {{0, 0}, {4, 3}, {8, 0}, {6, 1}, {7, 1}}};
    const auto comps = connected_components(s);
    ASSERT_EQ(comps.size(), t == Topology::Torus ? 3u : 4u);
    for (const Component& c : comps) {
      if (c.region.size() != 1) continue;
      EXPECT_EQ(c.region.cells().data(), &c.region.bounding_box().lo);
      // Torus singletons still carry their physical address.
      EXPECT_EQ(c.mesh_cells.size(), t == Topology::Torus ? 1u : 0u);
      EXPECT_EQ(c.cells().front(), c.region.cells().front());
    }
  }
}

TEST(ConnectivityTest, RunStartsBoundTheComponentCount) {
  // Widths on and off whole words; runs that cross a word boundary count
  // once.
  for (const std::int32_t w : {5, 64, 65, 130}) {
    for (const Topology t : {Topology::Mesh, Topology::Torus}) {
      const Mesh2D m(w, 6, t);
      CellSet s(m);
      std::size_t expected = 0;
      for (std::int32_t y = 0; y < 6; ++y) {
        bool prev = false;
        for (std::int32_t x = 0; x < w; ++x) {
          const bool in = (x * 7 + y * 3) % 5 < 2 || (x > 60 && x < 70);
          if (in) s.insert({x, y});
          if (in && !prev) ++expected;
          prev = in;
        }
      }
      BitPlane plane(m);
      plane.pack(s.data());
      EXPECT_EQ(plane.run_starts(), expected) << "width " << w;
      EXPECT_LE(connected_components(s, Connectivity::Four).size(), expected);
      EXPECT_LE(connected_components(s, Connectivity::Eight).size(),
                expected);
    }
  }
}

TEST(ConnectivityTest, GatherComponentsBuildsInPlaceAndVisitsEveryCell) {
  const CellSet s{Mesh2D(12, 12, Topology::Torus),
                  {{0, 0}, {11, 0}, {0, 11}, {5, 5}, {5, 6}, {6, 6}, {9, 2}}};
  const auto expected = connected_components(s, Connectivity::Eight);

  struct Built {
    Component component;
    mesh::Coord seed;
    std::vector<mesh::Coord> visited;
  };
  std::vector<Built> built;
  BitPlane plane(s.topology());
  plane.pack(s.data());
  gather_components(
      std::move(plane), Connectivity::Eight,
      [&built](mesh::Coord seed) -> Component& {
        built.push_back({{}, seed, {}});
        return built.back().component;
      },
      [&built](mesh::Coord cell) { built.back().visited.push_back(cell); });

  ASSERT_EQ(built.size(), expected.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i].component.region, expected[i].region);
    EXPECT_EQ(built[i].component.mesh_cells, expected[i].mesh_cells);
    // The seed is the component's first cell in row-major order, and the
    // walk visits each physical cell once.
    const auto cells = built[i].component.cells();
    EXPECT_EQ(built[i].seed, *std::min_element(cells.begin(), cells.end(),
                                               [](Coord a, Coord b) {
                                                 return a.y < b.y ||
                                                        (a.y == b.y &&
                                                         a.x < b.x);
                                               }));
    std::vector<mesh::Coord> visited = built[i].visited;
    std::vector<mesh::Coord> all(cells.begin(), cells.end());
    std::sort(visited.begin(), visited.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(visited, all);
  }
}

}  // namespace
}  // namespace ocp::grid
