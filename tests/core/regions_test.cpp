// Faulty-block and disabled-region extraction tests.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

TEST(RegionsTest, NoFaultsNoRegions) {
  const Mesh2D m(10, 10);
  const auto result = run_pipeline(grid::CellSet(m));
  EXPECT_TRUE(result.blocks.empty());
  EXPECT_TRUE(result.regions.empty());
  EXPECT_EQ(result.unsafe_nonfaulty_total(), 0u);
  EXPECT_EQ(result.enabled_total(), 0u);
}

TEST(RegionsTest, SingleFaultSingletonBlockAndRegion) {
  const Mesh2D m(10, 10);
  const auto result = run_pipeline(grid::CellSet{m, {{5, 5}}});
  ASSERT_EQ(result.blocks.size(), 1u);
  ASSERT_EQ(result.regions.size(), 1u);
  EXPECT_EQ(result.blocks[0].size(), 1u);
  EXPECT_EQ(result.blocks[0].fault_count, 1u);
  EXPECT_EQ(result.blocks[0].unsafe_nonfaulty_count, 0u);
  EXPECT_EQ(result.regions[0].size(), 1u);
  EXPECT_EQ(result.regions[0].parent_block, 0u);
}

TEST(RegionsTest, BlockCountsPartitionBlockSize) {
  const Mesh2D m(20, 20);
  stats::Rng rng(1);
  const auto faults = fault::uniform_random(m, 30, rng);
  const auto result = run_pipeline(faults);
  for (const auto& block : result.blocks) {
    EXPECT_EQ(block.fault_count + block.unsafe_nonfaulty_count, block.size());
  }
}

TEST(RegionsTest, BlocksPartitionUnsafeSet) {
  const Mesh2D m(20, 20);
  stats::Rng rng(2);
  const auto faults = fault::uniform_random(m, 40, rng);
  const auto result = run_pipeline(faults);
  std::size_t total = 0;
  for (const auto& block : result.blocks) total += block.size();
  EXPECT_EQ(total, unsafe_cells(result.safety).size());
}

TEST(RegionsTest, RegionsPartitionDisabledSet) {
  const Mesh2D m(20, 20);
  stats::Rng rng(3);
  const auto faults = fault::uniform_random(m, 40, rng);
  const auto result = run_pipeline(faults);
  std::size_t total = 0;
  for (const auto& region : result.regions) total += region.size();
  EXPECT_EQ(total, disabled_cells(result.activation).size());
}

TEST(RegionsTest, EveryFaultLandsInExactlyOneRegion) {
  const Mesh2D m(24, 24);
  stats::Rng rng(4);
  const auto faults = fault::uniform_random(m, 50, rng);
  const auto result = run_pipeline(faults);
  std::size_t region_faults = 0;
  for (const auto& region : result.regions) region_faults += region.fault_count;
  EXPECT_EQ(region_faults, faults.size());
  std::size_t block_faults = 0;
  for (const auto& block : result.blocks) block_faults += block.fault_count;
  EXPECT_EQ(block_faults, faults.size());
}

TEST(RegionsTest, ParentBlockContainsItsRegions) {
  const Mesh2D m(24, 24);
  stats::Rng rng(5);
  const auto faults = fault::uniform_random(m, 60, rng);
  const auto result = run_pipeline(faults);
  for (const auto& region : result.regions) {
    ASSERT_LT(region.parent_block, result.blocks.size());
    const auto& parent = result.blocks[region.parent_block].region();
    for (Coord c : region.component.cells()) {
      EXPECT_TRUE(parent.contains(c));
    }
  }
}

TEST(RegionsTest, EnabledTotalsAreConsistent) {
  const Mesh2D m(24, 24);
  stats::Rng rng(6);
  const auto faults = fault::uniform_random(m, 45, rng);
  const auto result = run_pipeline(faults);
  EXPECT_EQ(result.enabled_total() + result.disabled_nonfaulty_total(),
            result.unsafe_nonfaulty_total());
  // Cross-check against a direct count of unsafe-but-enabled cells.
  std::size_t direct = 0;
  for (std::size_t i = 0; i < result.safety.size(); ++i) {
    if (result.safety.at_index(i) == Safety::Unsafe &&
        result.activation.at_index(i) == Activation::Enabled) {
      ++direct;
    }
  }
  EXPECT_EQ(result.enabled_total(), direct);
}

TEST(RegionsTest, MismatchedGridsThrow) {
  const Mesh2D m(8, 8);
  const grid::CellSet faults{m, {{4, 4}}};
  // Activation grid claims a disabled cell where safety says safe ->
  // extract_disabled_regions must reject the pair.
  grid::NodeGrid<Safety> safety(m, Safety::Safe);
  grid::NodeGrid<Activation> act(m, Activation::Enabled);
  act[{2, 2}] = Activation::Disabled;
  EXPECT_THROW(extract_disabled_regions(faults, act, {}),
               std::invalid_argument);
  // The same with a real block elsewhere: (2,2) is still in none.
  safety[{4, 4}] = Safety::Unsafe;
  act[{4, 4}] = Activation::Disabled;
  const auto blocks = extract_faulty_blocks(faults, safety);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_THROW(extract_disabled_regions(faults, act, blocks),
               std::invalid_argument);
  act[{2, 2}] = Activation::Enabled;
  const auto regions = extract_disabled_regions(faults, act, blocks);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].parent_block, 0u);
}

TEST(RegionsTest, ParentBlocksFollowTheBlockHoldingEachRegion) {
  // Three blocks in row-major seed order; the disabled regions inside them
  // come in a different order than their blocks.
  const Mesh2D m(12, 10);
  const grid::CellSet faults{m, {{8, 5}, {1, 3}, {2, 3}, {5, 7}, {6, 8}}};
  grid::NodeGrid<Safety> safety(m, Safety::Safe);
  grid::NodeGrid<Activation> act(m, Activation::Enabled);
  const auto mark = [&](mesh::Coord c, bool disabled) {
    safety[c] = Safety::Unsafe;
    if (disabled) act[c] = Activation::Disabled;
  };
  // Block 0: a 2x6 column at x 8..9, y 0..5, disabled only at (8,5).
  for (std::int32_t y = 0; y <= 5; ++y) {
    mark({8, y}, y == 5);
    mark({9, y}, false);
  }
  // Block 1: row y 3, x 1..2, both disabled.
  mark({1, 3}, true);
  mark({2, 3}, true);
  // Block 2: the 2x2 square x 5..6, y 7..8, disabled on its diagonal.
  mark({5, 7}, true);
  mark({6, 7}, false);
  mark({5, 8}, false);
  mark({6, 8}, true);

  const auto blocks = extract_faulty_blocks(faults, safety);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_TRUE(blocks[0].region().contains({8, 0}));
  EXPECT_TRUE(blocks[1].region().contains({1, 3}));
  EXPECT_TRUE(blocks[2].region().contains({5, 7}));
  EXPECT_EQ(blocks[0].fault_count, 1u);
  EXPECT_EQ(blocks[0].unsafe_nonfaulty_count, 11u);

  const auto regions = extract_disabled_regions(faults, act, blocks);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0].region(), geom::Region({{1, 3}, {2, 3}}));
  EXPECT_EQ(regions[0].parent_block, 1u);
  EXPECT_EQ(regions[1].region(), geom::Region(mesh::Coord{8, 5}));
  EXPECT_EQ(regions[1].parent_block, 0u);
  EXPECT_EQ(regions[2].region(), geom::Region({{5, 7}, {6, 8}}));
  EXPECT_EQ(regions[2].parent_block, 2u);
  EXPECT_EQ(regions[2].fault_count, 2u);
  EXPECT_EQ(regions[2].disabled_nonfaulty_count, 0u);
}

}  // namespace
}  // namespace ocp::labeling
