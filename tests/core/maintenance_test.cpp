// Online maintenance: incremental relabeling equals full recomputation.
#include <gtest/gtest.h>

#include "core/maintenance.hpp"
#include "fault/generators.hpp"
#include "geometry/convexity.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

TEST(MaintenanceTest, StartsEquivalentToPipeline) {
  const Mesh2D m(16, 16);
  stats::Rng rng(1);
  const auto faults = fault::uniform_random(m, 20, rng);
  const MaintainedLabeling live(faults);
  PipelineOptions opts{.engine = Engine::Reference};
  const auto batch = run_pipeline(faults, opts);
  EXPECT_EQ(live.safety(), batch.safety);
  EXPECT_EQ(live.activation(), batch.activation);
  EXPECT_EQ(live.blocks().size(), batch.blocks.size());
  EXPECT_EQ(live.regions().size(), batch.regions.size());
}

TEST(MaintenanceTest, IncrementalEqualsRecomputeOnRandomSequences) {
  const Mesh2D m(20, 20);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    stats::Rng rng(seed);
    MaintainedLabeling live(grid::CellSet(m),
                            seed % 2 == 0 ? SafeUnsafeDef::Def2b
                                          : SafeUnsafeDef::Def2a);
    grid::CellSet accumulated(m);
    for (int event = 0; event < 30; ++event) {
      const Coord node = m.coord(static_cast<std::size_t>(
          rng.uniform_int(0, m.node_count() - 1)));
      live.add_fault(node);
      accumulated.insert(node);

      PipelineOptions opts{.definition = seed % 2 == 0
                               ? SafeUnsafeDef::Def2b
                               : SafeUnsafeDef::Def2a,
                           .engine = Engine::Reference};
      const auto batch = run_pipeline(accumulated, opts);
      ASSERT_EQ(live.safety(), batch.safety)
          << "seed " << seed << " event " << event;
      ASSERT_EQ(live.activation(), batch.activation)
          << "seed " << seed << " event " << event;
      ASSERT_EQ(live.blocks().size(), batch.blocks.size());
      ASSERT_EQ(live.regions().size(), batch.regions.size());
    }
  }
}

TEST(MaintenanceTest, DuplicateFaultIsNoOp) {
  const Mesh2D m(10, 10);
  MaintainedLabeling live(grid::CellSet{m, {{4, 4}}});
  EXPECT_TRUE(live.add_fault({4, 4}).no_op());
  EXPECT_EQ(live.faults().size(), 1u);
}

TEST(MaintenanceTest, OutOfMeshFaultIsNoOp) {
  const Mesh2D m(10, 10);
  MaintainedLabeling live{grid::CellSet(m)};
  EXPECT_TRUE(live.add_fault({-1, 3}).no_op());
  EXPECT_TRUE(live.add_fault({10, 3}).no_op());
  EXPECT_TRUE(live.faults().empty());
}

TEST(MaintenanceTest, DiagonalSecondFaultMergesBlocks) {
  const Mesh2D m(12, 12);
  MaintainedLabeling live(grid::CellSet{m, {{5, 5}}});
  ASSERT_EQ(live.blocks().size(), 1u);
  const EventDelta delta = live.add_fault({6, 6});
  // The new fault plus the two bridging nodes turn unsafe.
  EXPECT_EQ(delta.safety_changed, 3u);
  // The dirty extent is the merged 2x2 block.
  EXPECT_EQ(delta.dirty_cells.size(), 4u);
  EXPECT_FALSE(delta.no_op());
  ASSERT_EQ(live.blocks().size(), 1u);
  EXPECT_EQ(live.blocks()[0].size(), 4u);
  EXPECT_TRUE(live.blocks()[0].region().is_rectangle());
}

TEST(MaintenanceTest, DeltaCoversEveryFlippedCell) {
  // The dirty extent must be a superset of the actual label flips — it is
  // what the serving layer uses to decide which snapshot pages to copy.
  const Mesh2D m(20, 20);
  stats::Rng rng(17);
  MaintainedLabeling live{grid::CellSet(m)};
  for (int event = 0; event < 40; ++event) {
    const auto before_safety = live.safety();
    const auto before_activation = live.activation();
    const Coord node = m.coord(
        static_cast<std::size_t>(rng.uniform_int(0, m.node_count() - 1)));
    const bool duplicate = live.faults().contains(node);
    const EventDelta delta = live.add_fault(node);
    if (duplicate) {
      ASSERT_TRUE(delta.no_op());
      continue;
    }
    grid::CellSet dirty(m);
    for (const Coord c : delta.dirty_cells) dirty.insert(c);
    ASSERT_TRUE(dirty.contains(node));
    std::size_t safety_flips = 0;
    std::size_t activation_flips = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count());
         ++i) {
      const bool s = live.safety().at_index(i) != before_safety.at_index(i);
      const bool a =
          live.activation().at_index(i) != before_activation.at_index(i);
      safety_flips += s ? 1 : 0;
      activation_flips += a ? 1 : 0;
      if (s || a) {
        ASSERT_TRUE(dirty.contains(m.coord(i))) << "event " << event;
      }
    }
    ASSERT_EQ(delta.safety_changed, safety_flips) << "event " << event;
    ASSERT_EQ(delta.activation_changed, activation_flips)
        << "event " << event;
  }
}

TEST(MaintenanceTest, NewFaultCanRevokeEnabledStatus) {
  // Nodes activated by phase two can lose their support when a later fault
  // arrives; the maintained labeling must reflect that (this is why phase
  // two cannot be patched monotonically).
  const Mesh2D m(12, 12);
  MaintainedLabeling live(grid::CellSet{m, {{5, 5}, {6, 6}}});
  ASSERT_EQ((live.activation()[{5, 6}]), Activation::Enabled);
  ASSERT_EQ((live.activation()[{6, 5}]), Activation::Enabled);

  // Wall the 2x2 block in from the west and south; the bridging cells lose
  // their enabled neighbors one by one.
  for (Coord c : {Coord{4, 5}, Coord{4, 6}, Coord{5, 7}, Coord{6, 7},
                  Coord{7, 5}, Coord{5, 4}, Coord{6, 4}, Coord{7, 6},
                  Coord{4, 4}, Coord{7, 7}, Coord{4, 7}, Coord{7, 4}}) {
    live.add_fault(c);
  }
  EXPECT_EQ((live.activation()[{5, 6}]), Activation::Disabled);
  EXPECT_EQ((live.activation()[{6, 5}]), Activation::Disabled);
}

TEST(MaintenanceTest, RegionsStayConvexThroughEventStream) {
  const Mesh2D m(24, 24);
  stats::Rng rng(9);
  MaintainedLabeling live{grid::CellSet(m)};
  for (int event = 0; event < 60; ++event) {
    live.add_fault(m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() - 1))));
    for (const auto& region : live.regions()) {
      ASSERT_TRUE(geom::is_orthogonal_convex(region.region()));
    }
    for (const auto& block : live.blocks()) {
      ASSERT_TRUE(block.region().is_rectangle());
    }
  }
}

TEST(MaintenanceTest, WorksOnTorus) {
  const Mesh2D m(10, 10, mesh::Topology::Torus);
  MaintainedLabeling live{grid::CellSet(m)};
  live.add_fault({9, 5});
  live.add_fault({0, 6});  // diagonal across the seam
  ASSERT_EQ(live.blocks().size(), 1u);
  EXPECT_EQ(live.blocks()[0].size(), 4u);
}

}  // namespace
}  // namespace ocp::labeling
