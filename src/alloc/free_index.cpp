#include "alloc/free_index.hpp"

namespace ocp::alloc {

FreeRegionIndex::FreeRegionIndex(const mesh::Mesh2D& machine)
    : machine_(machine),
      busy_(static_cast<std::size_t>(machine.node_count()), 0),
      run_(static_cast<std::size_t>(machine.node_count()), 0),
      free_cells_(static_cast<std::size_t>(machine.node_count())) {
  for (std::int32_t y = 0; y < machine_.height(); ++y) {
    for (std::int32_t x = 0; x < machine_.width(); ++x) {
      run_[cell_index({x, y})] = x + 1;
    }
  }
}

void FreeRegionIndex::set_busy(mesh::Coord c, bool busy) {
  const std::size_t i = cell_index(c);
  if ((busy_[i] != 0) == busy) return;
  busy_[i] = busy ? 1 : 0;
  if (busy) {
    --free_cells_;
  } else {
    ++free_cells_;
  }
  // Runs right of a busy cell restart from 0, so the patch ends at the next
  // busy cell (its run is 0 and stays 0; cells beyond it derive from that 0).
  const std::size_t row_base =
      static_cast<std::size_t>(c.y) * static_cast<std::size_t>(machine_.width());
  std::int32_t run = c.x > 0 ? run_[row_base + static_cast<std::size_t>(c.x) -
                                    1]
                             : 0;
  for (std::int32_t x = c.x; x < machine_.width(); ++x) {
    const std::size_t j = row_base + static_cast<std::size_t>(x);
    if (busy_[j] != 0) {
      if (x > c.x) break;
      run = 0;
    } else {
      ++run;
    }
    run_[j] = run;
    ++cells_patched_;
  }
}

std::optional<mesh::Coord> FreeRegionIndex::first_anchor(std::int32_t w,
                                                         std::int32_t h) const {
  std::optional<mesh::Coord> found;
  for_each_anchor(w, h, [&](mesh::Coord a) {
    found = a;
    return false;
  });
  return found;
}

std::int32_t FreeRegionIndex::row_extent_right(mesh::Coord c) const {
  if (busy_[cell_index(c)] != 0) return 0;
  std::int32_t n = 0;
  for (std::int32_t x = c.x; x < machine_.width() && busy_[cell_index({x, c.y})] == 0;
       ++x) {
    ++n;
  }
  return n;
}

std::int32_t FreeRegionIndex::col_extent_down(mesh::Coord c) const {
  if (busy_[cell_index(c)] != 0) return 0;
  std::int32_t n = 0;
  for (std::int32_t y = c.y;
       y < machine_.height() && busy_[cell_index({c.x, y})] == 0; ++y) {
    ++n;
  }
  return n;
}

std::int64_t FreeRegionIndex::largest_free_rect_area() const {
  return alloc::largest_free_rect_area(
      machine_.width(), machine_.height(),
      [this](std::int32_t y) { return busy_row(y).data(); });
}

bool FreeRegionIndex::equivalent_to(const FreeRegionIndex& other) const {
  return machine_.width() == other.machine_.width() &&
         machine_.height() == other.machine_.height() && busy_ == other.busy_ &&
         run_ == other.run_ && free_cells_ == other.free_cells_;
}

}  // namespace ocp::alloc
