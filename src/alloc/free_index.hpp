// Incremental free-region index: maximal-free-rectangle search over a mesh
// whose busy set (disabled regions, faulty blocks, live placements) changes
// a few cells per epoch.
//
// The index keeps one plane of per-cell "left runs": `run(x, y)` is the
// number of consecutive free cells in row `y` ending at `(x, y)` (0 when the
// cell is busy). A width-w x height-h submesh fits with its top-left corner
// at `(x, y)` iff `run(x + w - 1, y') >= w` for the h rows y' = y .. y+h-1 —
// so anchor enumeration is the classic staircase sweep: walk rows once,
// counting per column how many consecutive rows satisfy the run predicate,
// and emit an anchor whenever the counter reaches h. One pass, O(W x H),
// no per-anchor rectangle scan.
//
// The incremental part is the point (ISSUE 10 pins it >= 4x cheaper than a
// rebuild on single-fault epochs at 64 x 64): flipping one cell only changes
// runs in its own row, from the flipped cell rightward up to (exclusive)
// the next busy cell — everything beyond is computed from a busy cell's 0
// and cannot have moved. `set_busy` patches exactly that range, and the
// cumulative `cells_patched()` counter makes the O(dirty-row-segment) claim
// a testable number instead of a timing assertion. Epoch turnover therefore
// costs O(sum of dirty-row segments), never O(W x H); a from-scratch
// `build` exists for the oracle's equivalence check and for the bench that
// pins the speedup.
//
// Torus note: placements are submeshes in machine coordinates and never
// wrap. A torus machine wraps routes, not job footprints, so rows end at
// x = width - 1 for run purposes on both topologies (documented in
// DESIGN.md sec. 14).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "mesh/mesh2d.hpp"

namespace ocp::alloc {

/// Area of the largest fully free rectangle of a width x height plane whose
/// rows `busy_row(y)` hands over: `width` bytes, nonzero where the cell is
/// busy. The largest rectangle under a histogram, one histogram per row
/// (heights[x] counts consecutive free cells upward ending at the current
/// row), stack-based, O(W x H). The one kernel behind the index's
/// `largest_free_rect_area` and the published view's lazily computed
/// fragmentation.
template <typename BusyRow>
[[nodiscard]] std::int64_t largest_free_rect_area(std::int32_t width,
                                                  std::int32_t height,
                                                  BusyRow&& busy_row) {
  std::vector<std::int32_t> heights(static_cast<std::size_t>(width), 0);
  std::vector<std::int32_t> stack;
  stack.reserve(static_cast<std::size_t>(width) + 1);
  std::int64_t best = 0;
  for (std::int32_t y = 0; y < height; ++y) {
    const std::uint8_t* busy = busy_row(y);
    for (std::size_t x = 0; x < heights.size(); ++x) {
      heights[x] = busy[x] != 0 ? 0 : heights[x] + 1;
    }
    stack.clear();
    for (std::int32_t x = 0; x <= width; ++x) {
      const std::int32_t h =
          x < width ? heights[static_cast<std::size_t>(x)] : 0;
      while (!stack.empty() &&
             heights[static_cast<std::size_t>(stack.back())] >= h) {
        const std::int32_t xs = stack.back();
        stack.pop_back();
        const std::int32_t span = stack.empty() ? x : x - stack.back() - 1;
        best = std::max(best, static_cast<std::int64_t>(span) *
                                  heights[static_cast<std::size_t>(xs)]);
      }
      if (x < width) stack.push_back(x);
    }
  }
  return best;
}

class FreeRegionIndex {
 public:
  /// All cells free.
  explicit FreeRegionIndex(const mesh::Mesh2D& machine);

  /// From-scratch construction: `busy_of(c)` decides each cell. Used by the
  /// oracle's equivalence check and the rebuild bench; the engine maintains
  /// its index incrementally via `set_busy`.
  template <typename Fn>
  [[nodiscard]] static FreeRegionIndex build(const mesh::Mesh2D& machine,
                                             Fn&& busy_of) {
    FreeRegionIndex idx(machine);
    for (std::int32_t y = 0; y < machine.height(); ++y) {
      std::int32_t run = 0;
      for (std::int32_t x = 0; x < machine.width(); ++x) {
        const std::size_t i = idx.cell_index({x, y});
        const bool busy = static_cast<bool>(busy_of(mesh::Coord{x, y}));
        idx.busy_[i] = busy ? 1 : 0;
        run = busy ? 0 : run + 1;
        idx.run_[i] = run;
        if (busy) --idx.free_cells_;
      }
    }
    return idx;
  }

  /// Flips one cell; patches runs in its row rightward up to the next busy
  /// cell. No-op when the cell already has the requested state.
  void set_busy(mesh::Coord c, bool busy);

  [[nodiscard]] bool busy(mesh::Coord c) const {
    return busy_[cell_index(c)] != 0;
  }
  /// The busy bytes (0 or 1) of row `y`, `machine().width()` of them.
  [[nodiscard]] std::span<const std::uint8_t> busy_row(std::int32_t y) const {
    return {busy_.data() + cell_index({0, y}),
            static_cast<std::size_t>(machine_.width())};
  }
  /// Left-run value at `c` (exposed for the equivalence check).
  [[nodiscard]] std::int32_t run_at(mesh::Coord c) const {
    return run_[cell_index(c)];
  }

  /// Enumerates every top-left anchor of a free w x h submesh in row-major
  /// (y, then x) order. `fn(anchor) -> bool` returns false to stop early.
  template <typename Fn>
  void for_each_anchor(std::int32_t w, std::int32_t h, Fn&& fn) const {
    if (w <= 0 || h <= 0 || w > machine_.width() || h > machine_.height()) return;
    // cnt[xe]: consecutive rows ending at the current row whose run at
    // column xe admits width w.
    std::vector<std::int32_t> cnt(static_cast<std::size_t>(machine_.width()), 0);
    for (std::int32_t yb = 0; yb < machine_.height(); ++yb) {
      const std::int32_t* row =
          run_.data() +
          static_cast<std::size_t>(yb) *
              static_cast<std::size_t>(machine_.width());
      for (std::int32_t xe = w - 1; xe < machine_.width(); ++xe) {
        cnt[static_cast<std::size_t>(xe)] =
            row[xe] >= w ? cnt[static_cast<std::size_t>(xe)] + 1 : 0;
      }
      if (yb < h - 1) continue;
      const std::int32_t y = yb - h + 1;
      for (std::int32_t xe = w - 1; xe < machine_.width(); ++xe) {
        if (cnt[static_cast<std::size_t>(xe)] >= h) {
          if (!fn(mesh::Coord{xe - w + 1, y})) return;
        }
      }
    }
  }

  /// First anchor in (y, x) order, if any (the first-fit strategy).
  [[nodiscard]] std::optional<mesh::Coord> first_anchor(std::int32_t w,
                                                        std::int32_t h) const;

  /// Free cells from `c` rightward (0 when `c` is busy). Strategy scoring.
  [[nodiscard]] std::int32_t row_extent_right(mesh::Coord c) const;
  /// Free cells from `c` downward (0 when `c` is busy).
  [[nodiscard]] std::int32_t col_extent_down(mesh::Coord c) const;

  [[nodiscard]] std::size_t free_cells() const noexcept { return free_cells_; }
  /// Area of the largest fully free rectangle (`alloc::largest_free_rect_area`
  /// over the busy plane, O(W x H)); the numerator of the fragmentation
  /// metric largest-free-rect / total-free.
  [[nodiscard]] std::int64_t largest_free_rect_area() const;

  /// Cumulative count of run cells rewritten by `set_busy` — the
  /// deterministic work measure behind the incremental-vs-rebuild pin.
  [[nodiscard]] std::uint64_t cells_patched() const noexcept {
    return cells_patched_;
  }

  /// Busy planes and run planes agree cell-for-cell (oracle check).
  [[nodiscard]] bool equivalent_to(const FreeRegionIndex& other) const;

  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return machine_;
  }

 private:
  [[nodiscard]] std::size_t cell_index(mesh::Coord c) const {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(
                                               machine_.width()) +
           static_cast<std::size_t>(c.x);
  }

  mesh::Mesh2D machine_;
  std::vector<std::uint8_t> busy_;
  std::vector<std::int32_t> run_;
  std::size_t free_cells_ = 0;
  std::uint64_t cells_patched_ = 0;
};

}  // namespace ocp::alloc
