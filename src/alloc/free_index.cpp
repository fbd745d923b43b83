#include "alloc/free_index.hpp"

namespace ocp::alloc {

namespace {

/// `fit &= fit >> s` over a row of words: bit x keeps its value only if bit
/// x + s is set too, carrying bits across word boundaries; zeros enter past
/// the row's end. Reads only words at or above the one it writes, so it
/// works in place. Returns the OR of the result.
std::uint64_t and_shifted(std::span<std::uint64_t> fit, std::int32_t s) {
  const std::size_t q = static_cast<std::size_t>(s) / 64;
  const std::size_t r = static_cast<std::size_t>(s) % 64;
  std::uint64_t any = 0;
  for (std::size_t k = 0; k < fit.size(); ++k) {
    const std::uint64_t lo = k + q < fit.size() ? fit[k + q] : 0;
    const std::uint64_t hi = k + q + 1 < fit.size() ? fit[k + q + 1] : 0;
    fit[k] &= r == 0 ? lo : lo >> r | hi << (64 - r);
    any |= fit[k];
  }
  return any;
}

}  // namespace

FreeRegionIndex::FreeRegionIndex(const mesh::Mesh2D& machine)
    : free_(machine),
      free_cells_(static_cast<std::size_t>(machine.node_count())) {
  free_.flip();
}

bool FreeRegionIndex::anchors_in_row(std::int32_t y, std::int32_t w,
                                     std::int32_t h,
                                     std::span<std::uint64_t> fit) const {
  // Columns free in all h rows.
  std::uint64_t any = 0;
  for (std::size_t k = 0; k < fit.size(); ++k) {
    std::uint64_t acc = free_.row(y)[k];
    for (std::int32_t dy = 1; dy < h && acc != 0; ++dy) {
      acc &= free_.row(y + dy)[k];
    }
    fit[k] = acc;
    any |= acc;
  }
  // Bit x holds iff columns x .. x+len-1 are; each step extends len by
  // s <= len, so the two windows overlap and their AND is one window.
  for (std::int32_t len = 1; len < w && any != 0;) {
    const std::int32_t s = std::min(len, w - len);
    any = and_shifted(fit, s);
    len += s;
  }
  return any != 0;
}

std::int32_t FreeRegionIndex::run_at(mesh::Coord c) const {
  // Back to the nearest busy cell at or left of `c` (column -1 if none).
  const std::uint64_t* row = free_.row(c.y);
  std::size_t k = static_cast<std::size_t>(c.x) / 64;
  std::uint64_t busy = ~row[k] & (~std::uint64_t{0} >> (63 - c.x % 64));
  while (busy == 0 && k > 0) busy = ~row[--k];
  if (busy == 0) return c.x + 1;
  return c.x - static_cast<std::int32_t>(64 * k + 63) +
         std::countl_zero(busy);
}

std::int32_t FreeRegionIndex::row_extent_right(mesh::Coord c) const {
  // Up to the nearest busy cell at or right of `c`; the zero pad bits stop
  // the search at the row's end.
  const std::uint64_t* row = free_.row(c.y);
  std::size_t k = static_cast<std::size_t>(c.x) / 64;
  std::uint64_t busy = ~row[k] & (~std::uint64_t{0} << (c.x % 64));
  while (busy == 0 && ++k < free_.words_per_row()) busy = ~row[k];
  if (busy == 0) return machine().width() - c.x;
  return static_cast<std::int32_t>(64 * k) + std::countr_zero(busy) - c.x;
}

std::int32_t FreeRegionIndex::col_extent_down(mesh::Coord c) const {
  std::int32_t y = c.y;
  while (y < machine().height() && free_.contains({c.x, y})) ++y;
  return y - c.y;
}

std::int64_t FreeRegionIndex::largest_free_rect_area() const {
  std::vector<std::uint8_t> busy(static_cast<std::size_t>(machine().width()));
  return alloc::largest_free_rect_area(
      machine().width(), machine().height(), [&](std::int32_t y) {
        expand_busy(free_row(y), 0, busy);
        return busy.data();
      });
}

bool FreeRegionIndex::equivalent_to(const FreeRegionIndex& other) const {
  return free_ == other.free_ && free_cells_ == other.free_cells_;
}

}  // namespace ocp::alloc
