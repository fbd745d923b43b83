// Copy-on-write per-node planes, chunked into fixed-size pages.
//
// A `PagedPlane<T>` stores one value per mesh node, split along the page
// grid of a `grid::TileGrid` (pages of at most 32x32 cells, dense row-major
// inside the page) into refcounted pages. The page table is a directory of
// refcounted chunks of 16 page handles. Publication of a new epoch builds a
// successor plane that copies the directory (one handle per 16 pages),
// clones the chunks that hold a dirty page (16 handle copies each) and
// rebuilds exactly the dirty pages; every other page and chunk is owned
// jointly with the predecessor. So the per-epoch cost of a serving plane is
// O(dirty pages + pages / 16), and retiring an epoch frees only its own
// directory, cloned chunks and rebuilt pages. (16, not 64: a retired clone
// drops one refcount per handle, mostly on cold page headers; at 1024x1024
// with ~8 dirty pages per plane, 64-handle chunks made the page part of a
// retirement ~1.5x dearer, and the longer directory costs less than that.) Planes are immutable after
// construction; sharing needs no synchronization beyond the shared_ptr
// refcounts.
//
// Pages are built and read a row at a time: a builder fills one page row
// per call from whatever flat source it has (a labeling plane, a busy
// plane), and `row()` hands a scan a contiguous span instead of a page
// lookup per cell.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "grid/tiles.hpp"

namespace ocp::svc {

/// How many pages a plane-building step copied (rebuilt) vs shared with
/// its predecessor. A fresh build counts every page as copied.
struct PageStats {
  std::size_t copied = 0;
  std::size_t shared = 0;
};

template <typename T>
class PagedPlane {
  static constexpr std::uint32_t kChunkShift = 4;
  static constexpr std::uint32_t kChunkPages = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkPages - 1;
  using Page = std::shared_ptr<const T[]>;
  using Chunk = std::array<Page, kChunkPages>;

 public:
  PagedPlane() = default;

  /// Fresh plane: every page filled row by row. `fill_row(y, x0, out)`
  /// writes the values of cells (x0, y) .. (x0 + out.size() - 1, y) into
  /// `out`, one call per row of each page.
  template <typename Fn>
  static PagedPlane build(const grid::TileGrid& grid, Fn&& fill_row,
                          PageStats& stats) {
    PagedPlane plane;
    plane.chunks_.resize((grid.page_count() + kChunkMask) >> kChunkShift);
    for (auto& chunk : plane.chunks_) chunk = std::make_shared<Chunk>();
    for (std::uint32_t p = 0; p < grid.page_count(); ++p) {
      (*plane.chunks_[p >> kChunkShift])[p & kChunkMask] =
          make_page(grid, p, fill_row);
    }
    stats.copied += grid.page_count();
    return plane;
  }

  /// Successor plane: the pages in `dirty_pages` are rebuilt through
  /// `fill_row`, every other page is shared with `prev`.
  template <typename Fn>
  static PagedPlane next(const PagedPlane& prev, const grid::TileGrid& grid,
                         const grid::PageSet& dirty_pages, Fn&& fill_row,
                         PageStats& stats) {
    PagedPlane plane;
    plane.chunks_ = prev.chunks_;
    for (const std::uint32_t p : dirty_pages.ids()) {
      std::shared_ptr<Chunk>& chunk = plane.chunks_[p >> kChunkShift];
      // Still the predecessor's chunk: take a private copy before writing.
      if (chunk == prev.chunks_[p >> kChunkShift]) {
        chunk = std::make_shared<Chunk>(*chunk);
      }
      (*chunk)[p & kChunkMask] = make_page(grid, p, fill_row);
    }
    stats.copied += dirty_pages.size();
    stats.shared += grid.page_count() - dirty_pages.size();
    return plane;
  }

  /// The value at node `c`. Precondition: the plane was built over a grid
  /// congruent to `grid` and `grid.machine().contains(c)`.
  [[nodiscard]] T at(const grid::TileGrid& grid, mesh::Coord c) const {
    return page(grid.page_of(c))[grid.offset_in_page(c)];
  }

  /// The values of row `y` inside page `p`: cells (page_bounds(p).x0, y) ..
  /// (page_bounds(p).x1 - 1, y). Precondition: page_bounds(p).y0 <= y <
  /// page_bounds(p).y1.
  [[nodiscard]] std::span<const T> row(const grid::TileGrid& grid,
                                       std::uint32_t p,
                                       std::int32_t y) const {
    const grid::TileGrid::CellRect b = grid.page_bounds(p);
    const auto first = static_cast<std::size_t>(y - b.y0)
                       << grid.page_shift();
    return {page(p) + first, static_cast<std::size_t>(b.x1 - b.x0)};
  }

  /// True when this plane and `other` serve page `p` from the same page
  /// object (test hook for the sharing structure).
  [[nodiscard]] bool shares_page_with(const PagedPlane& other,
                                      std::uint32_t p) const noexcept {
    return page(p) == other.page(p);
  }

 private:
  [[nodiscard]] const T* page(std::uint32_t p) const noexcept {
    return (*chunks_[p >> kChunkShift])[p & kChunkMask].get();
  }

  template <typename Fn>
  static Page make_page(const grid::TileGrid& grid, std::uint32_t p,
                        Fn&& fill_row) {
    std::shared_ptr<T[]> page =
        std::make_shared_for_overwrite<T[]>(grid.page_cells());
    const grid::TileGrid::CellRect b = grid.page_bounds(p);
    const auto width = static_cast<std::size_t>(b.x1 - b.x0);
    for (std::int32_t y = b.y0; y < b.y1; ++y) {
      const auto first = static_cast<std::size_t>(y - b.y0)
                         << grid.page_shift();
      fill_row(y, b.x0, std::span<T>(page.get() + first, width));
    }
    return page;
  }

  /// Never written through once the plane is built: a successor writes
  /// only the chunks it cloned.
  std::vector<std::shared_ptr<Chunk>> chunks_;
};

}  // namespace ocp::svc
