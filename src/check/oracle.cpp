#include "check/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <span>
#include <sstream>

#include "geometry/boundary.hpp"
#include "geometry/convexity.hpp"
#include "geometry/staircase.hpp"

namespace ocp::check {

namespace {

using labeling::Activation;
using labeling::PipelineResult;
using labeling::SafeUnsafeDef;
using labeling::Safety;
using mesh::Coord;

/// Accumulates violations, honouring the max_violations cap.
class Collector {
 public:
  explicit Collector(const OracleOptions& opts) : opts_(opts) {}

  [[nodiscard]] bool enabled(std::uint32_t check) const noexcept {
    return (opts_.checks & check) != 0;
  }

  /// True while the pass should keep looking.
  [[nodiscard]] bool open() const noexcept { return !report_.truncated; }

  void add(std::uint32_t check, std::string detail) {
    if (report_.violations.size() >= opts_.max_violations) {
      report_.truncated = true;
      return;
    }
    report_.violations.push_back({check, std::move(detail)});
  }

  [[nodiscard]] ViolationReport take() { return std::move(report_); }

 private:
  const OracleOptions& opts_;
  ViolationReport report_;
};

std::string region_context(const char* kind, std::size_t index,
                           const geom::Region& r) {
  std::ostringstream os;
  os << kind << " #" << index << " (" << r.size() << " cells):\n"
     << r.to_ascii();
  return os.str();
}

/// Whether a component's unwrapped frame spans a full torus dimension. The
/// paper's corner lemmas (Lemma 1-3), Theorem 2 and the Corollary are proven
/// for the planar case; a region that wraps a whole ring has no corners in
/// that dimension (any frame corner at the cut is an unwrapping artifact), so
/// those checks are replaced by the cylinder analogue below.
struct WrapFlags {
  bool x = false;
  bool y = false;

  [[nodiscard]] bool any() const noexcept { return x || y; }
};

WrapFlags component_wrap(const mesh::Mesh2D& m, const geom::Region& frame) {
  if (!m.is_torus() || frame.empty()) return {};
  const geom::Rect box = frame.bounding_box();
  return {box.hi.x - box.lo.x + 1 >= m.width(),
          box.hi.y - box.lo.y + 1 >= m.height()};
}

/// Torus-native orthogonal convexity: every row and column intersection of
/// the machine-coordinate cell set forms one contiguous arc on its ring
/// (possibly the full ring). This is what "no concavity" means once a shape
/// wraps; for non-wrapping shapes it coincides with the planar definition.
bool rows_and_cols_are_arcs(const mesh::Mesh2D& m,
                            std::span<const Coord> cells) {
  grid::CellSet present(m);
  for (Coord c : cells) present.insert(c);
  for (std::int32_t y = 0; y < m.height(); ++y) {
    int boundaries = 0;
    for (std::int32_t x = 0; x < m.width(); ++x) {
      if (present.contains({x, y}) &&
          !present.contains({(x + 1) % m.width(), y})) {
        ++boundaries;
      }
    }
    if (boundaries > 1) return false;
  }
  for (std::int32_t x = 0; x < m.width(); ++x) {
    int boundaries = 0;
    for (std::int32_t y = 0; y < m.height(); ++y) {
      if (present.contains({x, y}) &&
          !present.contains({x, (y + 1) % m.height()})) {
        ++boundaries;
      }
    }
    if (boundaries > 1) return false;
  }
  return true;
}

/// Per machine cell, row-major: one plus the index of the component
/// holding it, 0 off every component. A cell listed by several components
/// keeps the highest index.
template <typename Parts>
std::vector<std::uint32_t> component_ids(const mesh::Mesh2D& m,
                                         const std::vector<Parts>& parts) {
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(m.node_count()));
  for (std::uint32_t k = 0; k < parts.size(); ++k) {
    for (Coord c : parts[k].component.cells()) ids[m.index(c)] = k + 1;
  }
  return ids;
}

/// Reports each pair i < j of `parts` closer than `min_dist` in machine
/// distance once, at its minimum distance, in (i, j) order. Probing every
/// cell's ball of radius `min_dist - 1` in the id plane is exact: a pair
/// that close has a cell pair within that radius. The centre probe reports
/// a cell shared with a higher-indexed component at distance 0.
template <typename Parts>
void check_separation(const mesh::Mesh2D& m, const std::vector<Parts>& parts,
                      const std::vector<std::uint32_t>& ids,
                      std::int32_t min_dist, std::uint32_t check,
                      const std::string& kind, const std::string& suffix,
                      Collector& out) {
  std::map<std::pair<std::size_t, std::size_t>, std::int32_t> close;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (Coord c : parts[i].component.cells()) {
      for (std::int32_t dy = 1 - min_dist; dy < min_dist; ++dy) {
        const std::int32_t reach = min_dist - 1 - std::abs(dy);
        for (std::int32_t dx = -reach; dx <= reach; ++dx) {
          const Coord v = m.wrap({c.x + dx, c.y + dy});
          if (!m.contains(v)) continue;
          // Off every component (0), this one, or a lower one, which
          // found the pair from its own side.
          const std::uint32_t id = ids[m.index(v)];
          if (id <= i + 1) continue;
          std::int32_t& d =
              close.try_emplace({i, id - 1}, min_dist).first->second;
          d = std::min(d, m.distance(c, v));
        }
      }
    }
  }
  for (const auto& [pair, d] : close) {
    if (!out.open()) break;
    std::ostringstream os;
    os << kind << " #" << pair.first << " and #" << pair.second
       << " at distance " << d << " < " << min_dist << suffix;
    out.add(check, os.str());
  }
}

void check_blocks(const grid::CellSet& faults, const PipelineResult& result,
                  const std::vector<std::uint32_t>& block_ids,
                  const OracleOptions& opts, Collector& out) {
  const mesh::Mesh2D& m = faults.topology();

  if (out.enabled(kBlockRectangle)) {
    for (std::size_t b = 0; b < result.blocks.size() && out.open(); ++b) {
      const auto& block = result.blocks[b];
      if (component_wrap(m, block.region()).any()) {
        if (!rows_and_cols_are_arcs(m, block.component.cells())) {
          out.add(kBlockRectangle,
                  "wrapped faulty block is not a band (some ring "
                  "intersection is not one arc): " +
                      region_context("block", b, block.region()));
        }
      } else if (!block.region().is_rectangle()) {
        out.add(kBlockRectangle,
                "non-rectangular faulty " +
                    region_context("block", b, block.region()));
      }
    }
  }

  if (out.enabled(kBlockSeparation)) {
    check_separation(m, result.blocks, block_ids,
                     opts.definition == SafeUnsafeDef::Def2a ? 3 : 2,
                     kBlockSeparation, "blocks",
                     std::string(" (") + to_string(opts.definition) + ")", out);
  }

  if (out.enabled(kBlockFaultContent)) {
    for (std::size_t b = 0; b < result.blocks.size() && out.open(); ++b) {
      const auto& block = result.blocks[b];
      const geom::Region block_faults =
          component_frame_faults(block.component, faults);
      if (block_faults.empty()) {
        out.add(kBlockFaultContent,
                "fault-free faulty " +
                    region_context("block", b, block.region()));
        continue;
      }
      if (block.fault_count != block_faults.size() ||
          block.fault_count + block.unsafe_nonfaulty_count != block.size()) {
        std::ostringstream os;
        os << "block #" << b << " count mismatch: fault_count="
           << block.fault_count << " unsafe_nonfaulty="
           << block.unsafe_nonfaulty_count << " size=" << block.size()
           << " actual faults=" << block_faults.size();
        out.add(kBlockFaultContent, os.str());
      }
      // The block rectangle never extends past the bounding box of its
      // faults: unsafe status grows only between faults. Bounding boxes are
      // frame-relative, so this is meaningful only for non-wrapping blocks
      // (a full ring of unsafe cells has no canonical frame window).
      if (!block.region().empty() && !component_wrap(m, block.region()).any() &&
          !(block.region().bounding_box() == block_faults.bounding_box())) {
        out.add(kBlockFaultContent,
                "block exceeds the bounding box of its faults in " +
                    region_context("block", b, block.region()));
      }
    }
  }
}

/// Which closed quadrants of a point hold a cell of a fixed list, in O(1)
/// per query: for each row of a bounding box, the least and greatest x of
/// the cells in the rows at or below it (prefix) and at or above it
/// (suffix). Lemma 2 asks it about a region's corners, Lemma 3 about all of
/// its cells.
class QuadrantExtents {
 public:
  QuadrantExtents(const geom::Rect& box, std::span<const Coord> cells)
      : lo_y_(box.lo.y),
        prefix_(static_cast<std::size_t>(std::max(0, box.height()))),
        suffix_(prefix_.size()) {
    for (Coord c : cells) {
      Extent& row = prefix_[static_cast<std::size_t>(c.y - lo_y_)];
      row.min_x = std::min(row.min_x, c.x);
      row.max_x = std::max(row.max_x, c.x);
    }
    suffix_ = prefix_;
    for (std::size_t i = 1; i < prefix_.size(); ++i) {
      prefix_[i].add(prefix_[i - 1]);
      suffix_[prefix_.size() - 1 - i].add(suffix_[prefix_.size() - i]);
    }
  }

  /// True when quadrant `q` anchored at `u` holds one of the cells.
  [[nodiscard]] bool any(Coord u, geom::Quadrant q) const {
    const bool up = q == geom::Quadrant::PosPos || q == geom::Quadrant::NegPos;
    const bool right =
        q == geom::Quadrant::PosPos || q == geom::Quadrant::PosNeg;
    const std::vector<Extent>& side = up ? suffix_ : prefix_;
    const auto rows = static_cast<std::int64_t>(side.size());
    const std::int64_t row = std::int64_t{u.y} - lo_y_;
    // No row of the box lies on the quadrant's side of `u`.
    if (rows == 0 || (up ? row >= rows : row < 0)) return false;
    const Extent& e = side[static_cast<std::size_t>(
        std::clamp<std::int64_t>(row, 0, rows - 1))];
    return right ? e.max_x >= u.x : e.min_x <= u.x;
  }

 private:
  struct Extent {
    std::int32_t min_x = std::numeric_limits<std::int32_t>::max();
    std::int32_t max_x = std::numeric_limits<std::int32_t>::min();

    void add(const Extent& o) {
      min_x = std::min(min_x, o.min_x);
      max_x = std::max(max_x, o.max_x);
    }
  };

  std::int32_t lo_y_;
  std::vector<Extent> prefix_;
  std::vector<Extent> suffix_;
};

void check_regions(const grid::CellSet& faults, const PipelineResult& result,
                   Collector& out) {
  const mesh::Mesh2D& m = faults.topology();

  for (std::size_t r = 0; r < result.regions.size() && out.open(); ++r) {
    const auto& region = result.regions[r];
    const geom::Region& shape = region.region();
    // Regions wrapping a full torus dimension fall outside the paper's
    // planar theorems: Theorem 1 is asserted in its cylinder form and the
    // corner lemmas / closure equalities are skipped (frame corners at the
    // cut are unwrapping artifacts, not protocol corners).
    const bool wrapped = component_wrap(m, shape).any();

    if (out.enabled(kTheorem1)) {
      if (wrapped) {
        if (!rows_and_cols_are_arcs(m, region.component.cells())) {
          out.add(kTheorem1,
                  "wrapped disabled region is not orthogonally convex on "
                  "the torus (some ring intersection is not one arc): " +
                      region_context("region", r, shape));
        }
      } else {
        const bool definitional =
            geom::is_orthogonal_convex(shape) &&
            shape.is_connected(geom::Connectivity::Eight);
        const bool fast = geom::is_orthogonal_convex_polygon_fast(shape);
        if (!definitional || !fast) {
          std::ostringstream os;
          os << "not an orthogonal convex polygon (definitional="
             << definitional << ", staircase=" << fast << ") ";
          out.add(kTheorem1, os.str() + region_context("region", r, shape));
        }
      }
    }

    if (!wrapped && out.enabled(kLemma1)) {
      const auto frame_cells = shape.cells();
      const auto phys_cells = region.component.cells();
      for (std::size_t i = 0; i < frame_cells.size() && out.open(); ++i) {
        if (geom::is_corner_node(shape, frame_cells[i]) &&
            !faults.contains(phys_cells[i])) {
          out.add(kLemma1, "nonfaulty corner node at " +
                               mesh::to_string(phys_cells[i]) + " in " +
                               region_context("region", r, shape));
        }
      }
    }

    if (!wrapped && out.enabled(kLemma2)) {
      const QuadrantExtents corner_extents(shape.bounding_box(),
                                           geom::corner_nodes(shape));
      for (Coord u : shape.cells()) {
        if (!out.open()) break;
        for (geom::Quadrant q : geom::kAllQuadrants) {
          if (!corner_extents.any(u, q)) {
            out.add(kLemma2, "quadrant without corner, origin " +
                                 mesh::to_string(u) + " in " +
                                 region_context("region", r, shape));
            break;
          }
        }
      }
    }

    if (!wrapped && out.enabled(kLemma3)) {
      const geom::Rect box = shape.bounding_box();
      const QuadrantExtents cell_extents(box, shape.cells());
      for (std::int32_t x = box.lo.x - 1; x <= box.hi.x + 1 && out.open();
           ++x) {
        for (std::int32_t y = box.lo.y - 1; y <= box.hi.y + 1 && out.open();
             ++y) {
          const Coord u{x, y};
          if (shape.contains(u)) continue;
          const bool all_quadrants =
              std::all_of(geom::kAllQuadrants.begin(),
                          geom::kAllQuadrants.end(), [&](geom::Quadrant q) {
                            return cell_extents.any(u, q);
                          });
          if (all_quadrants) {
            out.add(kLemma3, "outside node " + mesh::to_string(u) +
                                 " sees region cells in all quadrants of " +
                                 region_context("region", r, shape));
          }
        }
      }
    }

    if (!wrapped && out.enabled(kTheorem2)) {
      const geom::Region seed = component_frame_faults(region.component, faults);
      if (!(geom::rectilinear_convex_closure(seed) == shape)) {
        out.add(kTheorem2,
                "region is not the rectilinear convex closure of its "
                "faults: " +
                    region_context("region", r, shape));
      }
    }

    if (out.enabled(kRegionFaultContent)) {
      const geom::Region seed = component_frame_faults(region.component, faults);
      if (seed.empty()) {
        out.add(kRegionFaultContent,
                "fault-free disabled " + region_context("region", r, shape));
      } else if (region.fault_count != seed.size() ||
                 region.fault_count + region.disabled_nonfaulty_count !=
                     region.size()) {
        std::ostringstream os;
        os << "region #" << r << " count mismatch: fault_count="
           << region.fault_count << " disabled_nonfaulty="
           << region.disabled_nonfaulty_count << " size=" << region.size()
           << " actual faults=" << seed.size();
        out.add(kRegionFaultContent, os.str());
      }
    }

    if (!wrapped && out.enabled(kRingTrace)) {
      const geom::Region ring = geom::outer_ring(shape);
      const auto walk = geom::trace_outer_ring(shape);
      bool walk_ok = walk.size() == ring.size();
      for (Coord c : walk) {
        if (!ring.contains(c)) walk_ok = false;
      }
      if (!walk_ok) {
        std::ostringstream os;
        os << "ring walk covers " << walk.size() << " of " << ring.size()
           << " ring cells around ";
        out.add(kRingTrace, os.str() + region_context("region", r, shape));
      }
    }
  }

  if (out.enabled(kRegionSeparation)) {
    check_separation(m, result.regions, component_ids(m, result.regions), 2,
                     kRegionSeparation, "regions", "", out);
  }

  if (out.enabled(kCorollary)) {
    std::vector<std::size_t> disabled_nonfaulty(result.blocks.size(), 0);
    bool parents_ok = true;
    for (const auto& region : result.regions) {
      if (region.parent_block >= result.blocks.size()) {
        parents_ok = false;  // reported by kExtraction
        continue;
      }
      disabled_nonfaulty[region.parent_block] +=
          region.disabled_nonfaulty_count;
    }
    if (parents_ok) {
      for (std::size_t b = 0; b < result.blocks.size() && out.open(); ++b) {
        // Rectilinear closure is a planar notion; a wrapped block's regions
        // wrap too (each region sits inside its parent block), so the
        // blockwise bound is asserted for non-wrapping blocks only.
        if (component_wrap(m, result.blocks[b].region()).any()) continue;
        const geom::Region seed =
            component_frame_faults(result.blocks[b].component, faults);
        if (seed.empty()) continue;  // reported by kBlockFaultContent
        const geom::Region closure = geom::rectilinear_convex_closure(seed);
        const std::size_t closure_nonfaulty = closure.size() - seed.size();
        if (disabled_nonfaulty[b] > closure_nonfaulty) {
          std::ostringstream os;
          os << "block #" << b << " keeps " << disabled_nonfaulty[b]
             << " nonfaulty nodes disabled; the minimal single polygon "
                "keeps "
             << closure_nonfaulty;
          out.add(kCorollary, os.str());
        }
      }
    }
  }
}

void check_labeling(const grid::CellSet& faults, const PipelineResult& result,
                    const std::vector<std::uint32_t>& block_ids,
                    Collector& out) {
  const mesh::Mesh2D& m = faults.topology();
  const auto node_count = static_cast<std::size_t>(m.node_count());

  if (out.enabled(kStatusLattice)) {
    for (std::size_t i = 0; i < node_count && out.open(); ++i) {
      const bool faulty = faults.contains(m.coord(i));
      const Safety sf = result.safety.at_index(i);
      const Activation ac = result.activation.at_index(i);
      if (faulty && (sf != Safety::Unsafe || ac != Activation::Disabled)) {
        out.add(kStatusLattice, "faulty node " + mesh::to_string(m.coord(i)) +
                                    " labeled " + to_string(sf) + "/" +
                                    to_string(ac));
      }
      if (ac == Activation::Disabled && sf != Safety::Unsafe) {
        out.add(kStatusLattice, "disabled node " +
                                    mesh::to_string(m.coord(i)) +
                                    " is not unsafe");
      }
    }
  }

  if (out.enabled(kExtraction)) {
    std::size_t unsafe_cells = 0;
    std::size_t disabled_cells = 0;
    for (std::size_t i = 0; i < node_count; ++i) {
      unsafe_cells += result.safety.at_index(i) == Safety::Unsafe;
      disabled_cells +=
          result.activation.at_index(i) == Activation::Disabled;
    }
    std::size_t block_cells = 0;
    std::size_t block_faults = 0;
    for (const auto& b : result.blocks) {
      block_cells += b.size();
      block_faults += b.fault_count;
    }
    std::size_t region_cells = 0;
    std::size_t region_faults = 0;
    for (const auto& r : result.regions) {
      region_cells += r.size();
      region_faults += r.fault_count;
    }
    if (block_cells != unsafe_cells) {
      std::ostringstream os;
      os << "blocks cover " << block_cells << " cells but the labeling has "
         << unsafe_cells << " unsafe cells";
      out.add(kExtraction, os.str());
    }
    if (region_cells != disabled_cells) {
      std::ostringstream os;
      os << "regions cover " << region_cells
         << " cells but the labeling has " << disabled_cells
         << " disabled cells";
      out.add(kExtraction, os.str());
    }
    if (block_faults != faults.size() || region_faults != faults.size()) {
      std::ostringstream os;
      os << "fault totals: blocks account for " << block_faults
         << ", regions for " << region_faults << ", machine has "
         << faults.size();
      out.add(kExtraction, os.str());
    }
    for (std::size_t r = 0; r < result.regions.size() && out.open(); ++r) {
      const auto& region = result.regions[r];
      if (region.parent_block >= result.blocks.size()) {
        std::ostringstream os;
        os << "region #" << r << " parent block index "
           << region.parent_block << " out of range ("
           << result.blocks.size() << " blocks)";
        out.add(kExtraction, os.str());
        continue;
      }
      // Every disabled cell is unsafe, so the region must sit inside its
      // parent block.
      for (Coord c : region.component.cells()) {
        if (block_ids[m.index(c)] != region.parent_block + 1) {
          out.add(kExtraction, "region #" + std::to_string(r) + " cell " +
                                   mesh::to_string(c) +
                                   " outside its parent block");
          break;
        }
      }
    }
  }
}

void check_convergence(const grid::CellSet& faults,
                       const PipelineResult& result,
                       const OracleOptions& opts, Collector& out) {
  if (!out.enabled(kConvergence)) return;
  // Reference-engine results carry zeroed statistics; a distributed run
  // always executes at least the final all-quiet detection round.
  if (result.safety_stats.rounds_executed == 0 &&
      result.activation_stats.rounds_executed == 0) {
    return;
  }

  const auto progress = [&](const char* phase, const sim::RoundStats& stats,
                            std::size_t change_budget) {
    if (static_cast<std::size_t>(stats.rounds_to_quiesce) >
        change_budget + 1) {
      std::ostringstream os;
      os << phase << " took " << stats.rounds_to_quiesce
         << " rounds with only " << change_budget
         << " possible status changes";
      out.add(kConvergence, os.str());
    }
  };
  progress("phase one", result.safety_stats, result.unsafe_nonfaulty_total());
  progress("phase two", result.activation_stats, result.enabled_total());

  bool strict = opts.round_bound == RoundBound::Strict;
  if (opts.round_bound == RoundBound::Auto) {
    const double density =
        static_cast<double>(faults.size()) /
        static_cast<double>(faults.topology().node_count());
    strict = density <= kStrictBoundDensity;
  }
  if (strict) {
    std::int32_t max_diam = 0;
    for (const auto& block : result.blocks) {
      max_diam = std::max(max_diam, block.region().diameter());
    }
    const std::int32_t bound = std::max(max_diam, 1);
    const auto diameter_bound = [&](const char* phase,
                                    const sim::RoundStats& stats) {
      if (stats.rounds_to_quiesce > bound) {
        std::ostringstream os;
        os << phase << " took " << stats.rounds_to_quiesce
           << " rounds, above the max block diameter " << bound;
        out.add(kConvergence, os.str());
      }
    };
    diameter_bound("phase one", result.safety_stats);
    diameter_bound("phase two", result.activation_stats);
  }
}

/// Re-evaluates the genuine node-local rules against the FINAL planes. Both
/// rules are monotone, so support once gained persists to the fixpoint:
/// every unsafe / enabled transition must still be explainable by the final
/// neighborhood (justification), and no remaining safe / disabled node may
/// satisfy its transition condition (quiescence — a runner that stops a
/// round early leaves exactly this kind of enabled-but-unapplied rule).
void check_fixpoint(const grid::CellSet& faults, const PipelineResult& result,
                    const OracleOptions& opts, Collector& out) {
  if (!out.enabled(kFixpoint)) return;
  const mesh::Mesh2D& m = faults.topology();
  const auto node_count = static_cast<std::size_t>(m.node_count());

  for (std::size_t i = 0; i < node_count && out.open(); ++i) {
    const Coord c = m.coord(i);
    if (faults.contains(c)) continue;

    // Phase one: <rule> of Definition 2a / 2b on the final safety plane
    // (ghost neighbors are permanently safe).
    const auto neighbor_safety = [&](mesh::Dir d) {
      const auto n = m.neighbor(c, d);
      return n ? result.safety[*n] : Safety::Safe;
    };
    bool rule_fires = false;
    if (opts.definition == SafeUnsafeDef::Def2a) {
      int unsafe_neighbors = 0;
      for (mesh::Dir d : mesh::kAllDirs) {
        if (neighbor_safety(d) == Safety::Unsafe) ++unsafe_neighbors;
      }
      rule_fires = unsafe_neighbors >= 2;
    } else {
      const bool unsafe_x = neighbor_safety(mesh::Dir::East) == Safety::Unsafe ||
                            neighbor_safety(mesh::Dir::West) == Safety::Unsafe;
      const bool unsafe_y =
          neighbor_safety(mesh::Dir::North) == Safety::Unsafe ||
          neighbor_safety(mesh::Dir::South) == Safety::Unsafe;
      rule_fires = unsafe_x && unsafe_y;
    }
    const bool is_unsafe = result.safety.at_index(i) == Safety::Unsafe;
    if (!is_unsafe && rule_fires) {
      out.add(kFixpoint, "phase one not quiesced: safe node " +
                             mesh::to_string(c) +
                             " satisfies the unsafe condition");
    } else if (is_unsafe && !rule_fires) {
      out.add(kFixpoint, "unjustified unsafe node " + mesh::to_string(c) +
                             " (final neighborhood cannot derive it)");
    }

    // Phase two (unsafe nonfaulty nodes only): Definition 3 on the final
    // activation plane (ghost neighbors are permanently enabled).
    if (!is_unsafe) continue;
    int enabled_neighbors = 0;
    for (mesh::Dir d : mesh::kAllDirs) {
      const auto n = m.neighbor(c, d);
      if (!n || result.activation[*n] == Activation::Enabled) {
        ++enabled_neighbors;
      }
    }
    const bool enabled = result.activation.at_index(i) == Activation::Enabled;
    if (!enabled && enabled_neighbors >= 2) {
      out.add(kFixpoint, "phase two not quiesced: disabled node " +
                             mesh::to_string(c) + " has " +
                             std::to_string(enabled_neighbors) +
                             " enabled neighbors");
    } else if (enabled && enabled_neighbors < 2) {
      out.add(kFixpoint, "unjustified enabled node " + mesh::to_string(c) +
                             " (fewer than two enabled neighbors at the "
                             "fixpoint)");
    }
  }
}

}  // namespace

const char* check_name(std::uint32_t check) noexcept {
  switch (check) {
    case kBlockRectangle: return "block-rectangle";
    case kBlockSeparation: return "block-separation";
    case kBlockFaultContent: return "block-fault-content";
    case kTheorem1: return "theorem1-orthogonal-convex";
    case kLemma1: return "lemma1-corners-faulty";
    case kLemma2: return "lemma2-quadrant-corners";
    case kLemma3: return "lemma3-empty-quadrant";
    case kTheorem2: return "theorem2-fault-closure";
    case kCorollary: return "corollary-blockwise";
    case kRegionSeparation: return "region-separation";
    case kRegionFaultContent: return "region-fault-content";
    case kStatusLattice: return "status-lattice";
    case kExtraction: return "extraction";
    case kConvergence: return "convergence";
    case kRingTrace: return "ring-trace";
    case kFixpoint: return "fixpoint";
    case kMetamorphic: return "metamorphic";
    case kScheduleIndependence: return "schedule-independence";
    case kEngineEquivalence: return "engine-equivalence";
    case kChaosPoisoned: return "chaos-poisoned";
    case kAllocOverlap: return "alloc-overlap";
    case kAllocIndex: return "alloc-index-equivalence";
    case kAllocEviction: return "alloc-eviction-completeness";
    case kAllocConservation: return "alloc-conservation";
    default: return "unknown-check";
  }
}

std::string ViolationReport::to_string() const {
  std::ostringstream os;
  for (const auto& v : violations) {
    os << check_name(v.check) << ": " << v.detail << "\n";
  }
  if (truncated) os << "(report truncated)\n";
  return os.str();
}

void ViolationReport::merge(ViolationReport other) {
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
  truncated = truncated || other.truncated;
}

geom::Region component_frame_faults(const grid::Component& comp,
                                    const grid::CellSet& faults) {
  std::vector<Coord> cells;
  const auto frame_cells = comp.region.cells();
  const auto phys_cells = comp.cells();
  for (std::size_t i = 0; i < frame_cells.size(); ++i) {
    if (faults.contains(phys_cells[i])) cells.push_back(frame_cells[i]);
  }
  return geom::Region(std::move(cells));
}

ViolationReport check_pipeline(const grid::CellSet& faults,
                               const labeling::PipelineResult& result,
                               const OracleOptions& opts) {
  Collector out(opts);
  const std::vector<std::uint32_t> block_ids =
      component_ids(faults.topology(), result.blocks);
  check_blocks(faults, result, block_ids, opts, out);
  check_regions(faults, result, out);
  check_labeling(faults, result, block_ids, out);
  check_convergence(faults, result, opts, out);
  check_fixpoint(faults, result, opts, out);
  return out.take();
}

}  // namespace ocp::check
