// Copy-on-write per-node planes, chunked into per-tile pages.
//
// A `PagedPlane<T>` stores one value per mesh node, split along a
// `grid::TileGrid` into refcounted pages (one per tile, dense row-major
// inside the tile). Publication of a new epoch builds a successor plane
// that *shares* every page whose tile the epoch's delta did not touch and
// rebuilds only the dirty ones — so the per-epoch cost of the serving
// planes is O(dirty tiles), not O(mesh), and untouched pages are owned
// jointly by every epoch that serves them. Planes are immutable after
// construction; sharing needs no synchronization beyond the shared_ptr
// refcounts.
//
// Pages are built and read a row at a time: a builder fills one tile row
// per call from whatever flat source it has (a labeling plane, a busy
// plane), and `row()` hands a scan a contiguous span instead of a tile
// lookup and page dereference per cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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
 public:
  PagedPlane() = default;

  /// Fresh plane: every page filled row by row. `fill_row(y, x0, out)`
  /// writes the values of cells (x0, y) .. (x0 + out.size() - 1, y) into
  /// `out`, one call per row of each tile.
  template <typename Fn>
  static PagedPlane build(const grid::TileGrid& tiles, Fn&& fill_row,
                          PageStats& stats) {
    PagedPlane plane;
    plane.pages_.reserve(tiles.tile_count());
    for (std::uint32_t t = 0; t < tiles.tile_count(); ++t) {
      plane.pages_.push_back(make_page(tiles, t, fill_row));
      ++stats.copied;
    }
    return plane;
  }

  /// Successor plane: pages of tiles outside `dirty_tiles` are shared with
  /// `prev` (a refcount bump); dirty tiles are rebuilt through `fill_row`.
  template <typename Fn>
  static PagedPlane next(const PagedPlane& prev, const grid::TileGrid& tiles,
                         std::uint64_t dirty_tiles, Fn&& fill_row,
                         PageStats& stats) {
    PagedPlane plane;
    plane.pages_.reserve(tiles.tile_count());
    for (std::uint32_t t = 0; t < tiles.tile_count(); ++t) {
      if ((dirty_tiles >> t) & 1u) {
        plane.pages_.push_back(make_page(tiles, t, fill_row));
        ++stats.copied;
      } else {
        plane.pages_.push_back(prev.pages_[t]);
        ++stats.shared;
      }
    }
    return plane;
  }

  /// The value at node `c`. Precondition: the plane was built over a tile
  /// grid congruent to `tiles` and `tiles.machine().contains(c)`.
  [[nodiscard]] T at(const grid::TileGrid& tiles, mesh::Coord c) const {
    return (*pages_[tiles.tile_of(c)])[tiles.offset_in_tile(c)];
  }

  /// The values of row `y` inside tile `t`: cells (bounds(t).x0, y) ..
  /// (bounds(t).x1 - 1, y). Precondition: bounds(t).y0 <= y < bounds(t).y1.
  [[nodiscard]] std::span<const T> row(const grid::TileGrid& tiles,
                                       std::uint32_t t,
                                       std::int32_t y) const {
    const grid::TileGrid::TileRect b = tiles.bounds(t);
    const auto first = static_cast<std::size_t>(y - b.y0) << tiles.shift();
    return {pages_[t]->data() + first, static_cast<std::size_t>(b.x1 - b.x0)};
  }

  [[nodiscard]] std::size_t page_count() const noexcept {
    return pages_.size();
  }

  /// True when this plane and `other` serve tile `t` from the same page
  /// object (test hook for the sharing structure).
  [[nodiscard]] bool shares_page_with(const PagedPlane& other,
                                      std::uint32_t t) const noexcept {
    return pages_[t] == other.pages_[t];
  }

 private:
  using Page = std::vector<T>;

  template <typename Fn>
  static std::shared_ptr<const Page> make_page(const grid::TileGrid& tiles,
                                               std::uint32_t t,
                                               Fn&& fill_row) {
    auto page = std::make_shared<Page>(tiles.page_cells());
    const grid::TileGrid::TileRect b = tiles.bounds(t);
    const auto width = static_cast<std::size_t>(b.x1 - b.x0);
    for (std::int32_t y = b.y0; y < b.y1; ++y) {
      const auto first = static_cast<std::size_t>(y - b.y0) << tiles.shift();
      fill_row(y, b.x0, std::span<T>(page->data() + first, width));
    }
    return page;
  }

  std::vector<std::shared_ptr<const Page>> pages_;
};

}  // namespace ocp::svc
