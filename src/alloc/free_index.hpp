// Incremental free-region index: maximal-free-rectangle search over a mesh
// whose busy set (disabled regions, faulty blocks, live placements) changes
// a few cells per epoch.
//
// The index holds one `grid::BitPlane` of free cells, 64 columns to a word;
// the pad bits past a row's end are zero, so they read as busy. A
// width-w x height-h submesh fits with its top-left corner at `(x, y)` iff
// columns x .. x+w-1 are free in each of the h rows y .. y+h-1. Anchor
// enumeration works a word at a time per anchor row: AND the h rows' words
// (a word stops early once it is 0), then shrink the result to width w
// with log2(w) shift-ANDs that carry bits across word boundaries; the set
// bits left are the anchors, emitted by `countr_zero` in (y, x) order. No
// per-anchor rectangle scan, no per-cell counters.
//
// Epoch turnover is the point: `set_busy` flips one bit, so a turnover
// costs O(dirty cells), never O(W x H). The cumulative `cells_patched()`
// counter (one per effective flip) keeps that a testable number. A
// from-scratch `build` exists for the oracle's equivalence check and for
// the bench that pins the speedup. Run lengths and extents are derived
// from the bits on demand.
//
// Torus note: placements are submeshes in machine coordinates and never
// wrap. A torus machine wraps routes, not job footprints, so rows end at
// x = width - 1 on both topologies (documented in DESIGN.md sec. 14).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "grid/bit_plane.hpp"
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

/// Writes the busy bytes (1 where the free bit is clear) of columns
/// x0 .. x0 + out.size() - 1 of one free-cell row, eight cells per
/// multiply: the byte is copied into every lane, lane i keeps its bit i,
/// and adding 0x7f carries a nonzero lane into its top bit. The columns
/// must not cross a word boundary unless x0 is a multiple of 64: a whole
/// row, or a page row (pages are at most 32 columns wide and start at a
/// multiple of their width).
inline void expand_busy(std::span<const std::uint64_t> free_row,
                        std::int32_t x0, std::span<std::uint8_t> out) {
  constexpr std::uint64_t kLow = 0x0101010101010101ULL;  // bit 0 of each lane
  for (std::size_t j = 0; j < out.size(); j += 64) {
    const std::size_t x = static_cast<std::size_t>(x0) + j;
    const std::uint64_t busy = ~(free_row[x / 64] >> x % 64);
    std::uint64_t lanes[8] = {};  // a fixed trip count, so it unrolls
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t byte = (busy >> 8 * i & 0xff) * kLow;
      lanes[i] = (((byte & 0x8040201008040201ULL) + 0x7f * kLow) >> 7) & kLow;
    }
    std::memcpy(&out[j], lanes, std::min<std::size_t>(64, out.size() - j));
  }
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
      for (std::int32_t x = 0; x < machine.width(); ++x) {
        if (busy_of(mesh::Coord{x, y})) idx.free_.take({x, y});
      }
    }
    idx.free_cells_ = idx.free_.count();
    return idx;
  }

  /// Flips one cell's bit. No-op when the cell already has the requested
  /// state.
  void set_busy(mesh::Coord c, bool busy) {
    if (busy != free_.contains(c)) return;
    if (busy) {
      free_.take(c);
      --free_cells_;
    } else {
      free_.insert(c);
      ++free_cells_;
    }
    ++cells_patched_;
  }

  [[nodiscard]] bool busy(mesh::Coord c) const { return !free_.contains(c); }
  /// The free-cell words of row `y` (`grid::BitPlane` layout, pad bits 0).
  [[nodiscard]] std::span<const std::uint64_t> free_row(std::int32_t y) const {
    return {free_.row(y), free_.words_per_row()};
  }
  /// Consecutive free cells in row `c.y` ending at `c` (0 when busy).
  [[nodiscard]] std::int32_t run_at(mesh::Coord c) const;

  /// Enumerates every top-left anchor of a free w x h submesh in row-major
  /// (y, then x) order. `fn(anchor) -> bool` returns false to stop early.
  template <typename Fn>
  void for_each_anchor(std::int32_t w, std::int32_t h, Fn&& fn) const {
    const mesh::Mesh2D& m = machine();
    if (w <= 0 || h <= 0 || w > m.width() || h > m.height()) return;
    std::vector<std::uint64_t> fit(free_.words_per_row());
    for (std::int32_t y = 0; y + h <= m.height(); ++y) {
      if (!anchors_in_row(y, w, h, fit)) continue;
      for (std::size_t k = 0; k < fit.size(); ++k) {
        for (std::uint64_t word = fit[k]; word != 0; word &= word - 1) {
          const std::int32_t x =
              static_cast<std::int32_t>(64 * k) + std::countr_zero(word);
          if (!fn(mesh::Coord{x, y})) return;
        }
      }
    }
  }

  /// First anchor in (y, x) order, if any (the first-fit strategy).
  [[nodiscard]] std::optional<mesh::Coord> first_anchor(std::int32_t w,
                                                        std::int32_t h) const {
    std::optional<mesh::Coord> found;
    for_each_anchor(w, h, [&](mesh::Coord a) {
      found = a;
      return false;
    });
    return found;
  }

  /// Free cells from `c` rightward (0 when `c` is busy). Strategy scoring.
  [[nodiscard]] std::int32_t row_extent_right(mesh::Coord c) const;
  /// Free cells from `c` downward (0 when `c` is busy).
  [[nodiscard]] std::int32_t col_extent_down(mesh::Coord c) const;

  [[nodiscard]] std::size_t free_cells() const noexcept { return free_cells_; }
  /// Area of the largest fully free rectangle (`alloc::largest_free_rect_area`
  /// over the busy bytes expanded row by row, O(W x H)); the numerator of
  /// the fragmentation metric largest-free-rect / total-free.
  [[nodiscard]] std::int64_t largest_free_rect_area() const;

  /// Cumulative count of effective `set_busy` flips, each of which rewrites
  /// exactly one cell's bit (no-op calls count 0): the deterministic work
  /// measure behind the incremental-vs-rebuild pin.
  [[nodiscard]] std::uint64_t cells_patched() const noexcept {
    return cells_patched_;
  }

  /// Free planes and free-cell counts agree (oracle check).
  [[nodiscard]] bool equivalent_to(const FreeRegionIndex& other) const;

  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return free_.topology();
  }

 private:
  /// Sets `fit` to the anchors of free w x h submeshes in row `y`, one bit
  /// per column; false when there are none.
  bool anchors_in_row(std::int32_t y, std::int32_t w, std::int32_t h,
                      std::span<std::uint64_t> fit) const;

  grid::BitPlane free_;
  std::size_t free_cells_ = 0;
  std::uint64_t cells_patched_ = 0;
};

}  // namespace ocp::alloc
