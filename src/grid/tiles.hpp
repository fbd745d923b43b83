// Tile and page decomposition of a 2-D mesh for change tracking.
//
// The incremental epoch engine (src/svc) tracks which parts of the machine
// an event batch touched at two granularities:
//  * coarse *tiles* for route-cache invalidation and shard seams: route-cache
//    entries carry the tile footprint their computation consulted, and "does
//    this route cross the dirty region" must stay a single AND. Tiles are
//    square power-of-two blocks sized so that the machine never spans more
//    than 8x8 = 64 of them, so a tile set is always one `std::uint64_t`;
//  * fine *pages* for storage: snapshot planes are chunked into pages shared
//    copy-on-write across epochs, and an epoch rebuilds exactly the pages
//    that hold a dirty cell. A page's side is min(tile side, 32), so pages
//    subdivide tiles: at up to 256x256 a page is a tile, at 1024x1024 each
//    128x128 tile holds 16 pages of 32x32 and a plane has 1,024 of them.
// A `PageSet` names a set of pages (or any ids) in O(set) space to build,
// walk and clear, so no per-epoch step pays for the page count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh2d.hpp"

namespace ocp::grid {

/// A set of ids over a fixed universe [0, n): one bit per id to answer
/// membership, plus the ids in insertion order to walk and clear it.
/// Building, walking and clearing cost O(set), never O(n).
class PageSet {
 public:
  PageSet() = default;
  explicit PageSet(std::uint32_t universe)
      : words_((static_cast<std::size_t>(universe) + 63) / 64, 0) {}

  /// Adds `id` (< universe); false when it was already present.
  bool insert(std::uint32_t id) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ids_.push_back(id);
    return true;
  }
  [[nodiscard]] bool contains(std::uint32_t id) const noexcept {
    return ((words_[id >> 6] >> (id & 63)) & 1u) != 0;
  }
  /// The members in insertion order.
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  void clear() noexcept {
    for (const std::uint32_t id : ids_) words_[id >> 6] = 0;
    ids_.clear();
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> ids_;
};

class TileGrid {
 public:
  explicit TileGrid(const mesh::Mesh2D& m)
      : mesh_(m),
        shift_(shift_for(std::max(m.width(), m.height()))),
        page_shift_(std::min(shift_, kMaxPageShift)) {
    tiles_x_ = (m.width() + tile_side() - 1) >> shift_;
    tiles_y_ = (m.height() + tile_side() - 1) >> shift_;
    pages_x_ = (m.width() + page_side() - 1) >> page_shift_;
    pages_y_ = (m.height() + page_side() - 1) >> page_shift_;
  }

  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept { return mesh_; }

  // -- coarse tiles: route footprints and shard seams ----------------------
  /// log2 of the tile edge length in cells (>= 3, so tiles are 8x8 at
  /// minimum and the densest machine still amortizes page headers).
  [[nodiscard]] std::uint32_t shift() const noexcept { return shift_; }
  [[nodiscard]] std::int32_t tile_side() const noexcept {
    return std::int32_t{1} << shift_;
  }
  [[nodiscard]] std::int32_t tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] std::int32_t tiles_y() const noexcept { return tiles_y_; }
  /// Total number of tiles; by construction <= 64.
  [[nodiscard]] std::uint32_t tile_count() const noexcept {
    return static_cast<std::uint32_t>(tiles_x_ * tiles_y_);
  }

  /// Tile id of a node; precondition: machine().contains(c).
  [[nodiscard]] std::uint32_t tile_of(mesh::Coord c) const noexcept {
    return static_cast<std::uint32_t>((c.y >> shift_) * tiles_x_ +
                                      (c.x >> shift_));
  }

  /// Single-tile bitmask of the tile containing `c`.
  [[nodiscard]] std::uint64_t bit_of(mesh::Coord c) const noexcept {
    return std::uint64_t{1} << tile_of(c);
  }

  /// Bitmask of the tiles containing `c` and its (up to four) physical
  /// neighbors — wrapped on a torus, clipped at a mesh boundary. This is
  /// the footprint a labeling or routing decision at `c` can consult.
  [[nodiscard]] std::uint64_t padded_bits(mesh::Coord c) const noexcept {
    std::uint64_t bits = bit_of(c);
    for (mesh::Dir d : mesh::kAllDirs) {
      if (const auto n = mesh_.neighbor(c, d)) bits |= bit_of(*n);
    }
    return bits;
  }

  // -- fine pages: copy-on-write storage ------------------------------------
  /// log2 of the page edge length: min(shift(), 5).
  [[nodiscard]] std::uint32_t page_shift() const noexcept {
    return page_shift_;
  }
  [[nodiscard]] std::int32_t page_side() const noexcept {
    return std::int32_t{1} << page_shift_;
  }
  [[nodiscard]] std::int32_t pages_x() const noexcept { return pages_x_; }
  [[nodiscard]] std::int32_t pages_y() const noexcept { return pages_y_; }
  [[nodiscard]] std::uint32_t page_count() const noexcept {
    return static_cast<std::uint32_t>(pages_x_ * pages_y_);
  }

  /// Page id of a node (row-major over the page grid); precondition:
  /// machine().contains(c).
  [[nodiscard]] std::uint32_t page_of(mesh::Coord c) const noexcept {
    return static_cast<std::uint32_t>((c.y >> page_shift_) * pages_x_ +
                                      (c.x >> page_shift_));
  }

  /// Dense row-major offset of a node within its page.
  [[nodiscard]] std::uint32_t offset_in_page(mesh::Coord c) const noexcept {
    const std::int32_t mask = page_side() - 1;
    return static_cast<std::uint32_t>(((c.y & mask) << page_shift_) +
                                      (c.x & mask));
  }

  /// Number of cells a page must hold (edge pages leave slots unused).
  [[nodiscard]] std::uint32_t page_cells() const noexcept {
    return std::uint32_t{1} << (2 * page_shift_);
  }

  /// Inclusive-exclusive cell bounds [x0, x1) x [y0, y1) of page `p`,
  /// clipped to the machine.
  struct CellRect {
    std::int32_t x0, y0, x1, y1;
  };
  [[nodiscard]] CellRect page_bounds(std::uint32_t p) const noexcept {
    const auto px = static_cast<std::int32_t>(p) % pages_x_;
    const auto py = static_cast<std::int32_t>(p) / pages_x_;
    return {px << page_shift_, py << page_shift_,
            std::min(mesh_.width(), (px + 1) << page_shift_),
            std::min(mesh_.height(), (py + 1) << page_shift_)};
  }

  /// The pages covering the tiles of `tile_mask`.
  [[nodiscard]] PageSet pages_of_tiles(std::uint64_t tile_mask) const {
    PageSet pages(page_count());
    const std::uint32_t per_side = shift_ - page_shift_;
    for (std::uint32_t t = 0; t < tile_count(); ++t) {
      if (((tile_mask >> t) & 1u) == 0) continue;
      const auto tx = static_cast<std::int32_t>(t) % tiles_x_;
      const auto ty = static_cast<std::int32_t>(t) / tiles_x_;
      const std::int32_t py1 = std::min(pages_y_, (ty + 1) << per_side);
      const std::int32_t px1 = std::min(pages_x_, (tx + 1) << per_side);
      for (std::int32_t py = ty << per_side; py < py1; ++py) {
        for (std::int32_t px = tx << per_side; px < px1; ++px) {
          pages.insert(static_cast<std::uint32_t>(py * pages_x_ + px));
        }
      }
    }
    return pages;
  }

 private:
  static constexpr std::uint32_t kMaxPageShift = 5;  // 32x32 pages

  [[nodiscard]] static constexpr std::uint32_t shift_for(
      std::int32_t longest_side) noexcept {
    std::uint32_t s = 3;  // 8x8 tiles at minimum
    while ((std::int64_t{8} << s) < longest_side) ++s;
    return s;
  }

  mesh::Mesh2D mesh_;
  std::uint32_t shift_;
  std::uint32_t page_shift_;
  std::int32_t tiles_x_;
  std::int32_t tiles_y_;
  std::int32_t pages_x_;
  std::int32_t pages_y_;
};

}  // namespace ocp::grid
