#include "geometry/region.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <ostream>
#include <queue>
#include <unordered_set>

namespace ocp::geom {

namespace {

/// Row-major ordering: by y, then x. Matches the sort order of `cells()`.
constexpr bool row_major_less(mesh::Coord a, mesh::Coord b) noexcept {
  return a.y < b.y || (a.y == b.y && a.x < b.x);
}

}  // namespace

Region::Region(std::vector<mesh::Coord> cells) : cells_(std::move(cells)) {
  std::sort(cells_.begin(), cells_.end(), row_major_less);
  cells_.erase(std::unique(cells_.begin(), cells_.end()), cells_.end());
  finish();
}

Region Region::from_sorted(std::vector<mesh::Coord> cells) {
  assert(std::adjacent_find(cells.begin(), cells.end(),
                            [](mesh::Coord a, mesh::Coord b) {
                              return !row_major_less(a, b);
                            }) == cells.end() &&
         "from_sorted: cells must be row-major sorted and duplicate-free");
  Region r;
  r.cells_ = std::move(cells);
  r.finish();
  return r;
}

void Region::finish() {
  if (cells_.empty()) return;
  bbox_ = Rect::cell(cells_.front());
  for (mesh::Coord c : cells_) bbox_ = bbox_.expanded(c);
  if (cells_.size() == 1) cells_ = {};  // the cell lives in bbox_
}

Region::Region(std::initializer_list<mesh::Coord> cells)
    : Region(std::vector<mesh::Coord>(cells)) {}

bool Region::contains(mesh::Coord c) const noexcept {
  // The empty region's inverted box contains nothing.
  if (!bbox_.contains(c)) return false;
  const auto all = cells();
  return std::binary_search(all.begin(), all.end(), c, row_major_less);
}

std::int32_t Region::diameter() const noexcept {
  const auto all = cells();
  if (all.size() <= 1) return 0;
  std::int32_t min_sum = all.front().x + all.front().y;
  std::int32_t max_sum = min_sum;
  std::int32_t min_dif = all.front().x - all.front().y;
  std::int32_t max_dif = min_dif;
  for (mesh::Coord c : all) {
    min_sum = std::min(min_sum, c.x + c.y);
    max_sum = std::max(max_sum, c.x + c.y);
    min_dif = std::min(min_dif, c.x - c.y);
    max_dif = std::max(max_dif, c.x - c.y);
  }
  return std::max(max_sum - min_sum, max_dif - min_dif);
}

std::size_t Region::component_count(Connectivity conn) const {
  if (empty()) return 0;
  static constexpr std::array<mesh::Coord, 8> kOffsets = {
      {{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}};
  const std::size_t degree = conn == Connectivity::Four ? 4 : 8;
  const auto all = cells();
  std::unordered_set<mesh::Coord> unvisited(all.begin(), all.end());
  std::size_t components = 0;
  while (!unvisited.empty()) {
    ++components;
    std::queue<mesh::Coord> frontier;
    const mesh::Coord seed = *unvisited.begin();
    unvisited.erase(unvisited.begin());
    frontier.push(seed);
    while (!frontier.empty()) {
      const mesh::Coord u = frontier.front();
      frontier.pop();
      for (std::size_t i = 0; i < degree; ++i) {
        const mesh::Coord v = u + kOffsets[i];
        if (auto it = unvisited.find(v); it != unvisited.end()) {
          unvisited.erase(it);
          frontier.push(v);
        }
      }
    }
  }
  return components;
}

bool Region::is_connected(Connectivity conn) const {
  return component_count(conn) <= 1;
}

std::int32_t Region::distance_to(const Region& other) const {
  assert(!empty() && !other.empty());
  std::int32_t best = std::numeric_limits<std::int32_t>::max();
  for (mesh::Coord a : cells()) {
    for (mesh::Coord b : other.cells()) {
      best = std::min(best, mesh::manhattan(a, b));
    }
  }
  return best;
}

Region Region::difference(const Region& other) const {
  std::vector<mesh::Coord> out;
  out.reserve(size());
  for (mesh::Coord c : cells()) {
    if (!other.contains(c)) out.push_back(c);
  }
  return Region(std::move(out));
}

Region Region::united(const Region& other) const {
  const auto mine = cells();
  const auto theirs = other.cells();
  std::vector<mesh::Coord> out(mine.begin(), mine.end());
  out.insert(out.end(), theirs.begin(), theirs.end());
  return Region(std::move(out));
}

std::string Region::to_ascii() const {
  if (empty()) return "(empty region)";
  std::string out;
  const auto w = static_cast<std::size_t>(bbox_.width());
  out.reserve((w + 1) * static_cast<std::size_t>(bbox_.height()));
  for (std::int32_t y = bbox_.hi.y; y >= bbox_.lo.y; --y) {
    for (std::int32_t x = bbox_.lo.x; x <= bbox_.hi.x; ++x) {
      out += contains({x, y}) ? '#' : '.';
    }
    out += '\n';
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Region& r) {
  os << "Region{" << r.size() << " cells";
  if (!r.empty()) {
    os << ", bbox " << r.bounding_box().lo << ".." << r.bounding_box().hi;
  }
  return os << "}";
}

}  // namespace ocp::geom
