// Fault removal: incremental repair equals full recomputation. The fuzz
// sweep drives random interleavings of add_fault/remove_fault and checks
// the maintained labeling bit-for-bit against a from-scratch pipeline run
// on the accumulated fault set after every event.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/maintenance.hpp"
#include "fault/generators.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

void expect_equivalent(const MaintainedLabeling& live,
                       const grid::CellSet& faults, SafeUnsafeDef def,
                       const char* context) {
  PipelineOptions opts{.definition = def, .engine = Engine::Reference};
  const auto batch = run_pipeline(faults, opts);
  ASSERT_EQ(live.safety(), batch.safety) << context;
  ASSERT_EQ(live.activation(), batch.activation) << context;
  ASSERT_EQ(live.blocks().size(), batch.blocks.size()) << context;
  ASSERT_EQ(live.regions().size(), batch.regions.size()) << context;
  for (std::size_t r = 0; r < batch.regions.size(); ++r) {
    ASSERT_EQ(live.regions()[r].size(), batch.regions[r].size()) << context;
    ASSERT_EQ(live.regions()[r].fault_count, batch.regions[r].fault_count)
        << context;
    ASSERT_EQ(live.regions()[r].parent_block, batch.regions[r].parent_block)
        << context;
    ASSERT_EQ(live.regions()[r].disabled_nonfaulty_count,
              batch.regions[r].disabled_nonfaulty_count)
        << context;
    ASSERT_EQ(live.regions()[r].region(), batch.regions[r].region())
        << context;
  }
  for (std::size_t b = 0; b < batch.blocks.size(); ++b) {
    ASSERT_EQ(live.blocks()[b].size(), batch.blocks[b].size()) << context;
    ASSERT_EQ(live.blocks()[b].region(), batch.blocks[b].region()) << context;
    ASSERT_EQ(live.blocks()[b].fault_count, batch.blocks[b].fault_count)
        << context;
    ASSERT_EQ(live.blocks()[b].unsafe_nonfaulty_count,
              batch.blocks[b].unsafe_nonfaulty_count)
        << context;
  }
  // Maintained planes the serving layer reads directly.
  const mesh::Mesh2D& m = faults.topology();
  grid::NodeGrid<std::int32_t> expected_keys(m, -1);
  for (const auto& region : batch.regions) {
    std::size_t key = static_cast<std::size_t>(m.node_count());
    for (const Coord c : region.component.cells()) {
      key = std::min(key, m.index(c));
    }
    for (const Coord c : region.component.cells()) {
      expected_keys[c] = static_cast<std::int32_t>(key);
    }
  }
  ASSERT_EQ(live.region_keys(), expected_keys) << context;
}

TEST(MaintenanceRemovalTest, RemoveOfNonFaultyOrOutOfMeshIsNoOp) {
  const Mesh2D m(10, 10);
  MaintainedLabeling live(grid::CellSet{m, {{4, 4}}});
  EXPECT_TRUE(live.remove_fault({5, 5}).no_op());   // healthy node
  EXPECT_TRUE(live.remove_fault({-1, 3}).no_op());  // outside the machine
  EXPECT_TRUE(live.remove_fault({10, 3}).no_op());
  EXPECT_EQ(live.faults().size(), 1u);
}

TEST(MaintenanceRemovalTest, AddThenRemoveRestoresPristineMachine) {
  const Mesh2D m(12, 12);
  MaintainedLabeling live{grid::CellSet(m)};
  (void)live.add_fault({5, 5});
  ASSERT_EQ(live.blocks().size(), 1u);
  const EventDelta delta = live.remove_fault({5, 5});
  EXPECT_EQ(delta.safety_changed, 1u);  // the node itself went unsafe -> safe
  EXPECT_EQ(delta.dirty_cells.size(), 1u);  // the old block was just the node
  EXPECT_TRUE(live.faults().empty());
  EXPECT_TRUE(live.blocks().empty());
  EXPECT_TRUE(live.regions().empty());
  expect_equivalent(live, grid::CellSet(m), SafeUnsafeDef::Def2b, "pristine");
}

TEST(MaintenanceRemovalTest, RepairSplitsAMergedBlock) {
  // Two diagonal faults form one 2x2 block; repairing one must shrink the
  // block back to the single remaining fault.
  const Mesh2D m(12, 12);
  MaintainedLabeling live(grid::CellSet{m, {{5, 5}, {6, 6}}});
  ASSERT_EQ(live.blocks().size(), 1u);
  ASSERT_EQ(live.blocks()[0].size(), 4u);

  const EventDelta delta = live.remove_fault({6, 6});
  // The repaired node and the two bridging nodes return to safe.
  EXPECT_EQ(delta.safety_changed, 3u);
  // The dirty extent is the old 2x2 block footprint.
  EXPECT_EQ(delta.dirty_cells.size(), 4u);
  ASSERT_EQ(live.blocks().size(), 1u);
  EXPECT_EQ(live.blocks()[0].size(), 1u);
  expect_equivalent(live, grid::CellSet{m, {{5, 5}}}, SafeUnsafeDef::Def2b,
                    "split");
}

TEST(MaintenanceRemovalTest, RepairCanReenableSacrificedNodes) {
  // Build the walled configuration that disables the bridging nodes of a
  // diagonal pair (see MaintenanceTest.NewFaultCanRevokeEnabledStatus),
  // then repair the wall fault by fault: the sacrificed nodes must win
  // their enabled status back once support returns.
  const Mesh2D m(12, 12);
  MaintainedLabeling live(grid::CellSet{m, {{5, 5}, {6, 6}}});
  const std::vector<Coord> wall = {{4, 5}, {4, 6}, {5, 7}, {6, 7},
                                   {7, 5}, {5, 4}, {6, 4}, {7, 6},
                                   {4, 4}, {7, 7}, {4, 7}, {7, 4}};
  for (const Coord c : wall) (void)live.add_fault(c);
  ASSERT_EQ((live.activation()[{5, 6}]), Activation::Disabled);
  ASSERT_EQ((live.activation()[{6, 5}]), Activation::Disabled);

  for (const Coord c : wall) (void)live.remove_fault(c);
  // Back to the bare diagonal pair, whose bridging nodes are enabled.
  EXPECT_EQ((live.activation()[{5, 6}]), Activation::Enabled);
  EXPECT_EQ((live.activation()[{6, 5}]), Activation::Enabled);
  expect_equivalent(live, grid::CellSet{m, {{5, 5}, {6, 6}}},
                    SafeUnsafeDef::Def2b, "unwalled");
}

TEST(MaintenanceRemovalTest, FuzzedInterleavingsMatchPipelineBitForBit) {
  struct Machine {
    std::int32_t w, h;
    mesh::Topology topology;
  };
  for (const Machine& machine : {Machine{16, 16, mesh::Topology::Mesh},
                                 Machine{19, 13, mesh::Topology::Mesh},
                                 Machine{16, 16, mesh::Topology::Torus},
                                 Machine{19, 13, mesh::Topology::Torus}}) {
    const Mesh2D m(machine.w, machine.h, machine.topology);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const SafeUnsafeDef def =
          seed % 2 == 0 ? SafeUnsafeDef::Def2b : SafeUnsafeDef::Def2a;
      stats::Rng rng(seed + 100);
      // Background fault density of the starting machine: 0-30%.
      grid::CellSet accumulated =
          fault::bernoulli(m, 0.1 * static_cast<double>(seed / 2), rng);
      MaintainedLabeling live(accumulated, def);
      for (int event = 0; event < 40; ++event) {
        // Bias toward adds so the machine carries a meaningful fault load;
        // removals pick a random currently-faulty node.
        const bool remove = !accumulated.empty() && rng.uniform() < 0.4;
        if (remove) {
          const auto members = accumulated.to_vector();
          const Coord node = members[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(members.size()) - 1))];
          live.remove_fault(node);
          accumulated.erase(node);
        } else {
          const Coord node = m.coord(static_cast<std::size_t>(
              rng.uniform_int(0, m.node_count() - 1)));
          live.add_fault(node);
          accumulated.insert(node);
        }
        ASSERT_EQ(live.faults(), accumulated);
        const std::string context =
            std::to_string(machine.w) + "x" + std::to_string(machine.h) +
            " topology " + std::to_string(static_cast<int>(machine.topology)) +
            " seed " + std::to_string(seed) + " event " +
            std::to_string(event);
        expect_equivalent(live, accumulated, def, context.c_str());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MaintenanceRemovalTest, DrainToEmptyRestoresAllSafe) {
  const Mesh2D m(16, 16);
  stats::Rng rng(9);
  const auto faults = fault::uniform_random(m, 24, rng);
  MaintainedLabeling live(faults);
  for (const Coord c : faults.to_vector()) {
    live.remove_fault(c);
  }
  EXPECT_TRUE(live.faults().empty());
  EXPECT_TRUE(live.blocks().empty());
  EXPECT_TRUE(live.regions().empty());
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    ASSERT_EQ(live.safety().at_index(i), Safety::Safe);
    ASSERT_EQ(live.activation().at_index(i), Activation::Enabled);
  }
}

}  // namespace
}  // namespace ocp::labeling
