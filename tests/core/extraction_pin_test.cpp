// Extraction identity pins: fixed seeded machines (mesh and torus, widths
// on and off whole 64-bit words) and a hand-built torus whose components
// cross each wrap seam and the corner. The digests and cell lists were
// recorded from the byte-set extraction that preceded the bit-plane one;
// any change to component order, frame unwrapping, physical addresses,
// counts or parent blocks fails here.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "svc/snapshot.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// FNV-1a over every component in extraction order: region (frame) cells,
/// physical cells, counts and parent block.
std::uint64_t component_digest(const PipelineResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  const auto mix_component = [&](const grid::Component& c) {
    mix(static_cast<std::int64_t>(c.region.size()));
    for (const Coord cell : c.region.cells()) {
      mix(cell.x);
      mix(cell.y);
    }
    mix(static_cast<std::int64_t>(c.mesh_cells.size()));
    for (const Coord cell : c.mesh_cells) {
      mix(cell.x);
      mix(cell.y);
    }
  };
  mix(static_cast<std::int64_t>(r.blocks.size()));
  for (const FaultyBlock& b : r.blocks) {
    mix_component(b.component);
    mix(static_cast<std::int64_t>(b.fault_count));
    mix(static_cast<std::int64_t>(b.unsafe_nonfaulty_count));
  }
  mix(static_cast<std::int64_t>(r.regions.size()));
  for (const DisabledRegion& g : r.regions) {
    mix_component(g.component);
    mix(static_cast<std::int64_t>(g.parent_block));
    mix(static_cast<std::int64_t>(g.fault_count));
    mix(static_cast<std::int64_t>(g.disabled_nonfaulty_count));
  }
  return h;
}

std::uint64_t label_digest(const grid::CellSet& faults, PipelineResult r) {
  const svc::Snapshot snap(0, faults, std::move(r.safety),
                           std::move(r.activation), std::move(r.blocks),
                           std::move(r.regions), routing::Hand::Right);
  return snap.label_digest();
}

struct PinnedMachine {
  std::int32_t width;
  std::int32_t height;
  mesh::Topology topology;
  double fault_rate;
  SafeUnsafeDef def;
  std::uint64_t seed;
  std::size_t blocks;
  std::size_t regions;
  std::uint64_t component_digest;
  std::uint64_t label_digest;
};

TEST(ExtractionPinTest, SeededMachinesMatchPinnedExtraction) {
  const PinnedMachine pins[] = {
      {64, 48, mesh::Topology::Mesh, 0.10, SafeUnsafeDef::Def2b,
       11, 194, 198, 5032107263140578470ULL, 15057044048263207826ULL},
      {64, 48, mesh::Topology::Torus, 0.03, SafeUnsafeDef::Def2a,
       12, 76, 81, 7797701096581142542ULL, 11436670402027707248ULL},
      {130, 70, mesh::Topology::Torus, 0.08, SafeUnsafeDef::Def2b,
       13, 498, 502, 18370157168873191298ULL, 1866130081445636117ULL},
      {65, 33, mesh::Topology::Mesh, 0.04, SafeUnsafeDef::Def2a,
       14, 63, 69, 3794881897317518653ULL, 3868739079736558213ULL},
      {256, 256, mesh::Topology::Mesh, 0.02, SafeUnsafeDef::Def2b,
       15, 1211, 1211, 16002690872098349936ULL, 4992197642857477441ULL},
      {127, 61, mesh::Topology::Torus, 0.05, SafeUnsafeDef::Def2b,
       16, 301, 305, 9762765105639683914ULL, 690738111618272243ULL},
  };
  for (const PinnedMachine& pin : pins) {
    const Mesh2D m(pin.width, pin.height, pin.topology);
    stats::Rng rng(pin.seed);
    const grid::CellSet faults = fault::uniform_random(
        m,
        static_cast<std::size_t>(static_cast<double>(m.node_count()) *
                                 pin.fault_rate),
        rng);
    PipelineOptions opts;
    opts.definition = pin.def;
    PipelineResult r = run_pipeline(faults, opts);
    const std::string what = m.describe() + " seed " + std::to_string(pin.seed);
    EXPECT_EQ(r.blocks.size(), pin.blocks) << what;
    EXPECT_EQ(r.regions.size(), pin.regions) << what;
    EXPECT_EQ(component_digest(r), pin.component_digest) << what;
    EXPECT_EQ(label_digest(faults, std::move(r)), pin.label_digest) << what;
  }
}

/// "frame -> mesh" cell pairs of one component, in region order.
std::string describe(const grid::Component& c) {
  std::ostringstream os;
  const auto frame = c.region.cells();
  const auto phys = c.cells();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    os << "(" << frame[i].x << "," << frame[i].y << ")";
    if (!(phys[i] == frame[i])) {
      os << "=(" << phys[i].x << "," << phys[i].y << ")";
    }
    os << " ";
  }
  return os.str();
}

TEST(ExtractionPinTest, TorusSeamComponentsKeepTheirFrames) {
  // A 2x2 fault block across the x seam (columns 19|0), one across the y
  // seam (rows 11|0), and a diagonal fault pair across the corner, which
  // Definition 2b grows into a 2x2 block whose disabled region is the
  // 8-connected diagonal pair.
  const Mesh2D m(20, 12, mesh::Topology::Torus);
  const grid::CellSet faults{m,
                             {{19, 5}, {0, 5}, {19, 6}, {0, 6},
                              {8, 11}, {8, 0}, {9, 11}, {9, 0},
                              {19, 11}, {0, 0}}};
  const PipelineResult r = run_pipeline(faults);
  std::vector<std::string> blocks;
  for (const FaultyBlock& b : r.blocks) blocks.push_back(describe(b.component));
  std::vector<std::string> regions;
  std::vector<std::size_t> parents;
  for (const DisabledRegion& g : r.regions) {
    regions.push_back(describe(g.component));
    parents.push_back(g.parent_block);
  }
  EXPECT_EQ(blocks, (std::vector<std::string>{
                        "(-1,-1)=(19,11) (0,-1)=(0,11) (-1,0)=(19,0) (0,0) ",
                        "(8,-1)=(8,11) (9,-1)=(9,11) (8,0) (9,0) ",
                        "(-1,5)=(19,5) (0,5) (-1,6)=(19,6) (0,6) "}));
  EXPECT_EQ(regions, (std::vector<std::string>{
                         "(-1,-1)=(19,11) (0,0) ",
                         "(8,-1)=(8,11) (9,-1)=(9,11) (8,0) (9,0) ",
                         "(-1,5)=(19,5) (0,5) (-1,6)=(19,6) (0,6) "}));
  EXPECT_EQ(parents, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace ocp::labeling
