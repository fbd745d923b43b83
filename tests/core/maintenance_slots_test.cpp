// Stable block/region ids in the maintained labeling: an event's work is
// local to the event. The work-counter pins are deterministic (no timing):
// one fault added and then removed far from every other block must report
// the same plane writes and record rebuilds on a 256x256 machine as on a
// 1024x1024 one, whatever the number of background blocks. (The views
// derived from the slot maps are checked against the reference pipeline
// after every event in maintenance_removal_test.cpp.)
#include <gtest/gtest.h>

#include "core/maintenance.hpp"
#include "fault/generators.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

struct WorkCounts {
  std::size_t dirty = 0;
  std::size_t cells_written = 0;
  std::size_t blocks_rebuilt = 0;
  std::size_t regions_rebuilt = 0;
  bool operator==(const WorkCounts&) const = default;
};

WorkCounts counts_of(const EventDelta& d) {
  return {d.dirty_cells.size(), d.cells_written, d.blocks_rebuilt,
          d.regions_rebuilt};
}

/// A side x side machine with 0.5% uniform background faults, none within
/// 8 cells of the probe node at its centre.
MaintainedLabeling background(std::int32_t side, Coord probe) {
  const Mesh2D m(side, side);
  stats::Rng rng(static_cast<std::uint64_t>(side));
  grid::CellSet faults = fault::uniform_random(
      m, static_cast<std::size_t>(m.node_count()) / 200, rng);
  for (std::int32_t y = probe.y - 8; y <= probe.y + 8; ++y) {
    for (std::int32_t x = probe.x - 8; x <= probe.x + 8; ++x) {
      faults.erase({x, y});
    }
  }
  return MaintainedLabeling(std::move(faults));
}

TEST(MaintenanceSlotsTest, IsolatedEventWorkIsIndependentOfMachineSize) {
  std::vector<std::pair<WorkCounts, WorkCounts>> per_size;
  for (const std::int32_t side : {256, 1024}) {
    const Coord probe{side / 2, side / 2};
    MaintainedLabeling live = background(side, probe);
    ASSERT_GT(live.blocks().size(),
              static_cast<std::size_t>(side * side / 400))
        << "the background must hold many blocks";
    const EventDelta add = live.add_fault(probe);
    const EventDelta remove = live.remove_fault(probe);
    per_size.emplace_back(counts_of(add), counts_of(remove));
  }
  // A lone fault is a one-cell block and a one-cell region: the add resets
  // the cell's two key entries and writes one block key and one region key;
  // the repair only resets them.
  const WorkCounts add_expected{1, 4, 1, 1};
  const WorkCounts remove_expected{1, 2, 0, 0};
  for (const auto& [add, remove] : per_size) {
    EXPECT_EQ(add, add_expected);
    EXPECT_EQ(remove, remove_expected);
  }
  EXPECT_EQ(per_size[0], per_size[1]);
}

TEST(MaintenanceSlotsTest, MergingEventRebuildsOnlyTheMergedComponent) {
  // Two separate blocks, then a fault that joins them (Def 2b: the corner
  // fault makes its diagonal gap unsafe). Only the merged block's cells are
  // written, and exactly one block record is rebuilt.
  const Mesh2D m(64, 64);
  MaintainedLabeling live(grid::CellSet{m, {{10, 10}, {11, 11}, {40, 40}}});
  ASSERT_EQ(live.blocks().size(), 2u);
  const EventDelta d = live.add_fault({12, 12});
  EXPECT_EQ(live.blocks().size(), 2u);
  EXPECT_EQ(d.blocks_rebuilt, 1u);
  // Cells written: two resets per area cell plus one block key per unsafe
  // cell plus one region key per disabled cell, all inside the area.
  std::size_t unsafe = 0;
  std::size_t disabled = 0;
  for (const Coord c : d.dirty_cells) {
    if (live.safety()[c] == Safety::Unsafe) ++unsafe;
    if (live.activation()[c] == Activation::Disabled) ++disabled;
  }
  EXPECT_EQ(d.cells_written, 2 * d.dirty_cells.size() + unsafe + disabled);
}

TEST(MaintenanceSlotsTest, CopiesShareRecordsWithoutSeeingEachOthersEvents) {
  const Mesh2D m(24, 24);
  stats::Rng rng(5);
  MaintainedLabeling original(fault::bernoulli(m, 0.1, rng));
  const std::vector<FaultyBlock> before = original.blocks();
  MaintainedLabeling copy = original;
  // Events on the copy replace records in chunks the original still uses.
  for (const FaultyBlock& block : before) {
    static_cast<void>(copy.remove_fault(block.component.cells().front()));
  }
  static_cast<void>(original.add_fault({0, 0}));
  static_cast<void>(original.remove_fault({0, 0}));
  const PipelineResult want = run_pipeline(
      original.faults(), {.engine = Engine::Reference});
  ASSERT_EQ(original.blocks().size(), want.blocks.size());
  for (std::size_t b = 0; b < want.blocks.size(); ++b) {
    EXPECT_EQ(original.blocks()[b].region(), want.blocks[b].region());
  }
  const PipelineResult copied = run_pipeline(
      copy.faults(), {.engine = Engine::Reference});
  ASSERT_EQ(copy.blocks().size(), copied.blocks.size());
  for (std::size_t b = 0; b < copied.blocks.size(); ++b) {
    EXPECT_EQ(copy.blocks()[b].region(), copied.blocks[b].region());
  }
}

}  // namespace
}  // namespace ocp::labeling
