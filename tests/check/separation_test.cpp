// Separation checks of the InvariantOracle: tampered blocks and regions trip
// kBlockSeparation / kRegionSeparation / kExtraction, and the id-plane probe
// reports exactly what a cell-by-cell comparison of every pair reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "check/oracle.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "grid/connectivity.hpp"
#include "stats/rng.hpp"

namespace ocp::check {
namespace {

using labeling::PipelineResult;
using labeling::SafeUnsafeDef;
using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

/// The one component formed by `cells`.
grid::Component component_of(const Mesh2D& m,
                             std::initializer_list<Coord> cells) {
  auto comps = grid::connected_components(grid::CellSet(m, cells),
                                          grid::Connectivity::Eight);
  EXPECT_EQ(comps.size(), 1u);
  return std::move(comps.front());
}

/// Two lone faults far apart: two one-cell blocks and regions, in this order.
PipelineResult two_lone_faults(const grid::CellSet& faults,
                               SafeUnsafeDef def) {
  labeling::PipelineOptions popts;
  popts.definition = def;
  auto result = labeling::run_pipeline(faults, popts);
  EXPECT_EQ(result.blocks.size(), 2u);
  EXPECT_EQ(result.regions.size(), 2u);
  return result;
}

OracleOptions only(std::uint32_t checks, SafeUnsafeDef def) {
  OracleOptions opts;
  opts.definition = def;
  opts.checks = checks;
  return opts;
}

TEST(OracleTest, BlocksTwoApartTripSeparationUnderDef2a) {
  const Mesh2D m(10, 10);
  const grid::CellSet faults(m, {{2, 2}, {7, 7}});
  auto result = two_lone_faults(faults, SafeUnsafeDef::Def2a);
  result.blocks[1].component = component_of(m, {{4, 2}});
  const auto report = check_pipeline(
      faults, result, only(kBlockSeparation, SafeUnsafeDef::Def2a));
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].check, kBlockSeparation);
  EXPECT_EQ(report.violations[0].detail,
            "blocks #0 and #1 at distance 2 < 3 (Def2a)");
  // Distance 2 is legal under Definition 2b.
  EXPECT_TRUE(check_pipeline(faults, result,
                             only(kBlockSeparation, SafeUnsafeDef::Def2b))
                  .ok());
}

TEST(OracleTest, AdjacentBlocksTripSeparationUnderDef2b) {
  const Mesh2D m(10, 10);
  const grid::CellSet faults(m, {{2, 2}, {7, 7}});
  auto result = two_lone_faults(faults, SafeUnsafeDef::Def2b);
  result.blocks[1].component = component_of(m, {{2, 3}, {2, 4}});
  const auto report = check_pipeline(
      faults, result, only(kBlockSeparation, SafeUnsafeDef::Def2b));
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].check, kBlockSeparation);
  EXPECT_EQ(report.violations[0].detail,
            "blocks #0 and #1 at distance 1 < 2 (Def2b)");
}

TEST(OracleTest, AdjacentRegionsTripRegionSeparation) {
  const Mesh2D m(10, 10);
  const grid::CellSet faults(m, {{2, 2}, {7, 7}});
  auto result = two_lone_faults(faults, SafeUnsafeDef::Def2b);
  result.regions[1].component = component_of(m, {{3, 2}});
  const auto report = check_pipeline(
      faults, result, only(kRegionSeparation, SafeUnsafeDef::Def2b));
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].check, kRegionSeparation);
  EXPECT_EQ(report.violations[0].detail, "regions #0 and #1 at distance 1 < 2");
}

TEST(OracleTest, CloseBlocksAcrossTheTorusSeamTripSeparation) {
  // (0, 5) and (9, 6) are 10 apart on a mesh but 2 apart on the torus.
  const Mesh2D m(10, 10, Topology::Torus);
  const grid::CellSet faults(m, {{0, 5}, {5, 8}});
  auto result = two_lone_faults(faults, SafeUnsafeDef::Def2a);
  result.blocks[1].component = component_of(m, {{9, 6}});
  auto report = check_pipeline(faults, result,
                               only(kBlockSeparation, SafeUnsafeDef::Def2a));
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].detail,
            "blocks #0 and #1 at distance 2 < 3 (Def2a)");

  // The same pair on the seam's far corner: (9, 9) is one hop from (0, 9).
  result.regions[0].component = component_of(m, {{0, 9}});
  result.regions[1].component = component_of(m, {{9, 9}});
  report = check_pipeline(faults, result,
                          only(kRegionSeparation, SafeUnsafeDef::Def2a));
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].detail, "regions #0 and #1 at distance 1 < 2");
}

TEST(OracleTest, RegionOutsideItsParentBlockTripsExtraction) {
  const Mesh2D m(10, 10);
  const grid::CellSet faults(m, {{2, 2}, {7, 7}});
  auto result = two_lone_faults(faults, SafeUnsafeDef::Def2b);
  const auto opts = only(kExtraction, SafeUnsafeDef::Def2b);
  ASSERT_TRUE(check_pipeline(faults, result, opts).ok());

  // Off every block.
  auto tampered = result;
  tampered.regions[0].component = component_of(m, {{2, 3}});
  auto report = check_pipeline(faults, tampered, opts);
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].check, kExtraction);
  EXPECT_EQ(report.violations[0].detail,
            "region #0 cell (2, 3) outside its parent block");

  // Inside a block, but not the one it names as its parent.
  tampered = result;
  tampered.regions[0].component = component_of(m, {{7, 7}});
  report = check_pipeline(faults, tampered, opts);
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].detail,
            "region #0 cell (7, 7) outside its parent block");
}

// Differential test: the id-plane probe against every pair compared cell by
// cell, on labelings whose components were shifted into each other's
// neighbourhoods.

/// The separation check as a comparison of every pair of components, cell
/// by cell, reporting into `out` the way the oracle's collector does.
template <typename Parts>
void pairwise_separation(const Mesh2D& m, const std::vector<Parts>& parts,
                         std::int32_t min_dist, std::uint32_t check,
                         const std::string& kind, const std::string& suffix,
                         std::size_t max_violations, ViolationReport& out) {
  for (std::size_t i = 0; i < parts.size() && !out.truncated; ++i) {
    for (std::size_t j = i + 1; j < parts.size() && !out.truncated; ++j) {
      std::int32_t d = std::numeric_limits<std::int32_t>::max();
      for (Coord u : parts[i].component.cells()) {
        for (Coord v : parts[j].component.cells()) {
          d = std::min(d, m.distance(u, v));
        }
      }
      if (d >= min_dist) continue;
      if (out.violations.size() >= max_violations) {
        out.truncated = true;
        continue;
      }
      std::ostringstream os;
      os << kind << " #" << i << " and #" << j << " at distance " << d
         << " < " << min_dist << suffix;
      out.violations.push_back({check, os.str()});
    }
  }
}

/// Moves `comp` by `off`, wrapping on a torus; leaves it where it is when a
/// cell would leave a mesh.
void shift(const Mesh2D& m, grid::Component& comp, Coord off) {
  std::vector<Coord> frame;
  std::vector<Coord> cells;
  const auto frame_cells = comp.region.cells();
  const auto phys_cells = comp.cells();
  for (std::size_t k = 0; k < frame_cells.size(); ++k) {
    const Coord c{phys_cells[k].x + off.x, phys_cells[k].y + off.y};
    if (!m.is_torus() && !m.contains(c)) return;
    frame.push_back({frame_cells[k].x + off.x, frame_cells[k].y + off.y});
    cells.push_back(m.wrap(c));
  }
  // A translation keeps the frame's row-major order.
  comp.region = geom::Region::from_sorted(std::move(frame));
  comp.mesh_cells = m.is_torus() ? std::move(cells) : std::vector<Coord>{};
}

/// Shifts about 30% of `parts` by up to 3 cells per axis; false when two
/// components then share a cell.
template <typename Parts>
bool scatter(const Mesh2D& m, std::vector<Parts>& parts, stats::Rng& rng) {
  grid::CellSet seen(m);
  for (auto& p : parts) {
    if (rng.bernoulli(0.3)) {
      shift(m, p.component,
            {static_cast<std::int32_t>(rng.uniform_int(-3, 3)),
             static_cast<std::int32_t>(rng.uniform_int(-3, 3))});
    }
    for (Coord c : p.component.cells()) {
      if (seen.contains(c)) return false;
      seen.insert(c);
    }
  }
  return true;
}

TEST(OracleTest, SeparationProbeMatchesPairwiseReference) {
  stats::Rng master(22);
  int compared = 0;
  int violating = 0;
  int truncated = 0;
  for (int k = 0; k < 2400; ++k) {
    stats::Rng rng(master.fork_seed());
    const Mesh2D m(static_cast<std::int32_t>(rng.uniform_int(1, 30)),
                   static_cast<std::int32_t>(rng.uniform_int(1, 30)),
                   k % 2 == 0 ? Topology::Mesh : Topology::Torus);
    const auto def = k % 4 < 2 ? SafeUnsafeDef::Def2a : SafeUnsafeDef::Def2b;
    const auto f = static_cast<std::size_t>(rng.uniform_int(
        0, std::max<std::int64_t>(1, m.node_count() / 6)));
    const auto faults = fault::uniform_random(m, f, rng);
    labeling::PipelineOptions popts;
    popts.definition = def;
    popts.engine = labeling::Engine::Reference;
    auto result = labeling::run_pipeline(faults, popts);
    if (!scatter(m, result.blocks, rng) || !scatter(m, result.regions, rng)) {
      continue;
    }

    auto opts = only(kBlockSeparation | kRegionSeparation, def);
    opts.max_violations = k % 3 == 0 ? 3 : 32;
    const std::int32_t block_dist = def == SafeUnsafeDef::Def2a ? 3 : 2;
    ViolationReport expected;
    pairwise_separation(m, result.blocks, block_dist, kBlockSeparation,
                        "blocks", std::string(" (") + to_string(def) + ")",
                        opts.max_violations, expected);
    pairwise_separation(m, result.regions, 2, kRegionSeparation, "regions",
                        "", opts.max_violations, expected);

    const auto actual = check_pipeline(faults, result, opts);
    ASSERT_EQ(actual.to_string(), expected.to_string())
        << m.describe() << " " << to_string(def) << " instance " << k;
    ++compared;
    violating += !expected.ok();
    truncated += expected.truncated;
  }
  // The shifts must exercise both outcomes and the cap.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(violating, 300);
  EXPECT_GT(truncated, 10);
}

}  // namespace
}  // namespace ocp::check
