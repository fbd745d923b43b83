// Lemma 2 and Lemma 3 checks of the InvariantOracle: the per-row quadrant
// extents report exactly what the quadrant predicates of src/geometry report
// when applied cell by cell, on regions with cells toggled in and out.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "check/oracle.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "geometry/convexity.hpp"
#include "stats/rng.hpp"

namespace ocp::check {
namespace {

using labeling::PipelineResult;
using mesh::Coord;
using mesh::Mesh2D;

std::string context(std::size_t index, const geom::Region& r) {
  std::ostringstream os;
  os << "region #" << index << " (" << r.size() << " cells):\n"
     << r.to_ascii();
  return os.str();
}

/// Lemmas 2 and 3 over every region, one quadrant query at a time, reporting
/// into `out` the way the oracle's collector does.
void cell_by_cell_lemmas(const PipelineResult& result,
                         std::size_t max_violations, ViolationReport& out) {
  const auto add = [&](std::uint32_t check, std::string detail) {
    if (out.violations.size() >= max_violations) {
      out.truncated = true;
      return;
    }
    out.violations.push_back({check, std::move(detail)});
  };
  for (std::size_t r = 0; r < result.regions.size() && !out.truncated; ++r) {
    const geom::Region& shape = result.regions[r].region();
    for (Coord u : shape.cells()) {
      if (out.truncated) break;
      for (geom::Quadrant q : geom::kAllQuadrants) {
        if (!geom::quadrant_has_corner(shape, u, q)) {
          add(kLemma2, "quadrant without corner, origin " +
                           mesh::to_string(u) + " in " + context(r, shape));
          break;
        }
      }
    }
    const geom::Rect box = shape.bounding_box();
    for (std::int32_t x = box.lo.x - 1; x <= box.hi.x + 1 && !out.truncated;
         ++x) {
      for (std::int32_t y = box.lo.y - 1; y <= box.hi.y + 1 && !out.truncated;
           ++y) {
        const Coord u{x, y};
        if (shape.contains(u)) continue;
        const auto cells = shape.cells();
        const bool all = std::all_of(
            geom::kAllQuadrants.begin(), geom::kAllQuadrants.end(),
            [&](geom::Quadrant q) {
              return std::any_of(cells.begin(), cells.end(), [&](Coord c) {
                return geom::in_quadrant(u, q, c);
              });
            });
        if (all) {
          add(kLemma3, "outside node " + mesh::to_string(u) +
                           " sees region cells in all quadrants of " +
                           context(r, shape));
        }
      }
    }
  }
}

/// Toggles up to four cells of `comp`'s bounding box grown by one (inside
/// the mesh), keeping at least one cell.
void toggle_cells(const Mesh2D& m, grid::Component& comp, stats::Rng& rng) {
  const auto old = comp.region.cells();
  std::vector<Coord> cells(old.begin(), old.end());
  const geom::Rect box = comp.region.bounding_box();
  const auto flips = rng.uniform_int(1, 4);
  for (std::int64_t k = 0; k < flips; ++k) {
    const Coord c{static_cast<std::int32_t>(
                      rng.uniform_int(box.lo.x - 1, box.hi.x + 1)),
                  static_cast<std::int32_t>(
                      rng.uniform_int(box.lo.y - 1, box.hi.y + 1))};
    if (!m.contains(c)) continue;
    const auto it = std::find(cells.begin(), cells.end(), c);
    if (it == cells.end()) {
      cells.push_back(c);
    } else if (cells.size() > 1) {
      cells.erase(it);
    }
  }
  comp.region = geom::Region(std::move(cells));
}

TEST(OracleTest, LemmaQuadrantExtentsMatchCellByCellReference) {
  stats::Rng master(23);
  int lemma2 = 0;
  int lemma3 = 0;
  int truncated = 0;
  for (int k = 0; k < 1200; ++k) {
    stats::Rng rng(master.fork_seed());
    const Mesh2D m(static_cast<std::int32_t>(rng.uniform_int(1, 30)),
                   static_cast<std::int32_t>(rng.uniform_int(1, 30)));
    const auto f = static_cast<std::size_t>(rng.uniform_int(
        0, std::max<std::int64_t>(1, m.node_count() / 4)));
    const auto faults = fault::uniform_random(m, f, rng);
    auto result = labeling::run_pipeline(faults);
    for (auto& region : result.regions) {
      if (rng.bernoulli(0.5)) toggle_cells(m, region.component, rng);
    }

    OracleOptions opts;
    opts.checks = kLemma2 | kLemma3;
    opts.max_violations = k % 3 == 0 ? 3 : 32;
    ViolationReport expected;
    cell_by_cell_lemmas(result, opts.max_violations, expected);

    const auto actual = check_pipeline(faults, result, opts);
    ASSERT_EQ(actual.to_string(), expected.to_string())
        << m.describe() << " instance " << k;
    for (const auto& v : expected.violations) {
      lemma2 += v.check == kLemma2;
      lemma3 += v.check == kLemma3;
    }
    truncated += expected.truncated;
  }
  // Lemma 2 holds for every finite cell set: in each closed quadrant of a
  // member u, the member of greatest |dy| and then |dx| from u has both of
  // its outward neighbours outside the set, so it is a corner. The
  // comparison pins that the extents find that corner; the toggles must
  // trip Lemma 3 and the cap.
  EXPECT_EQ(lemma2, 0);
  EXPECT_GT(lemma3, 100);
  EXPECT_GT(truncated, 10);
}

}  // namespace
}  // namespace ocp::check
