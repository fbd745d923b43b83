#include "alloc/strategy.hpp"

#include <bit>

namespace ocp::alloc {

namespace {

/// True when `c` is outside the machine or busy in the index — the
/// "contact" predicate of the boundary-hugging score. The machine edge
/// counts as contact: cornering a job against the mesh boundary preserves
/// interior free rectangles exactly like cornering it against a DR.
bool contact_at(const FreeRegionIndex& index, mesh::Coord c) {
  const auto& m = index.machine();
  if (c.x < 0 || c.y < 0 || c.x >= m.width() || c.y >= m.height()) return true;
  return index.busy(c);
}

/// Busy or off-machine cells among columns x0 .. x1 (inside the machine)
/// of row `y`: the row's free bits counted a word at a time.
std::int32_t contact_in_row(const FreeRegionIndex& index, std::int32_t y,
                            std::int32_t x0, std::int32_t x1) {
  if (y < 0 || y >= index.machine().height()) return x1 - x0 + 1;
  const std::span<const std::uint64_t> row = index.free_row(y);
  std::int32_t n = x1 - x0 + 1;
  for (std::int32_t x = x0; x <= x1; x = (x | 63) + 1) {  // word by word
    std::uint64_t free = row[static_cast<std::size_t>(x) / 64] >> (x % 64);
    if (x1 - x < 63) free &= (std::uint64_t{1} << (x1 - x + 1)) - 1;
    n -= std::popcount(free);
  }
  return n;
}

class FirstFitStrategy final : public PlacementStrategy {
 public:
  StrategyKind kind() const noexcept override {
    return StrategyKind::FirstFit;
  }
  std::optional<mesh::Coord> choose(const FreeRegionIndex& index,
                                    std::int32_t w,
                                    std::int32_t h) const override {
    return index.first_anchor(w, h);
  }
};

class BestFitStrategy final : public PlacementStrategy {
 public:
  StrategyKind kind() const noexcept override { return StrategyKind::BestFit; }
  std::optional<mesh::Coord> choose(const FreeRegionIndex& index,
                                    std::int32_t w,
                                    std::int32_t h) const override {
    std::optional<mesh::Coord> best;
    std::int64_t best_score = 0;
    index.for_each_anchor(w, h, [&](mesh::Coord a) {
      const std::int64_t score = best_fit_score(index, a, w, h);
      // Strict < keeps the first (row-major smallest) anchor on ties.
      if (!best || score < best_score) {
        best = a;
        best_score = score;
      }
      return true;
    });
    return best;
  }
};

class BoundaryFitStrategy final : public PlacementStrategy {
 public:
  StrategyKind kind() const noexcept override {
    return StrategyKind::BoundaryFit;
  }
  std::optional<mesh::Coord> choose(const FreeRegionIndex& index,
                                    std::int32_t w,
                                    std::int32_t h) const override {
    std::optional<mesh::Coord> best;
    BoundaryContact best_contact;
    index.for_each_anchor(w, h, [&](mesh::Coord a) {
      const BoundaryContact c = boundary_contact(index, a, w, h);
      const bool better =
          !best || c.corners > best_contact.corners ||
          (c.corners == best_contact.corners && c.ring > best_contact.ring);
      if (better) {
        best = a;
        best_contact = c;
      }
      return true;
    });
    return best;
  }
};

}  // namespace

std::unique_ptr<PlacementStrategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::FirstFit: return std::make_unique<FirstFitStrategy>();
    case StrategyKind::BestFit: return std::make_unique<BestFitStrategy>();
    case StrategyKind::BoundaryFit:
      return std::make_unique<BoundaryFitStrategy>();
  }
  return std::make_unique<FirstFitStrategy>();
}

std::int64_t best_fit_score(const FreeRegionIndex& index, mesh::Coord anchor,
                            std::int32_t w, std::int32_t h) {
  // Slack of the free slab extending the placement right (width beyond w at
  // the anchor row) and down (height beyond h at the anchor column). The
  // extents are measured at the anchor, so the score is the area a tighter
  // hole would not waste.
  const std::int32_t we = index.row_extent_right(anchor);
  const std::int32_t he = index.col_extent_down(anchor);
  return static_cast<std::int64_t>(we - w) * h +
         static_cast<std::int64_t>(he - h) * w;
}

BoundaryContact boundary_contact(const FreeRegionIndex& index,
                                 mesh::Coord anchor, std::int32_t w,
                                 std::int32_t h) {
  const std::int32_t x0 = anchor.x;
  const std::int32_t y0 = anchor.y;
  const std::int32_t x1 = anchor.x + w - 1;
  const std::int32_t y1 = anchor.y + h - 1;
  BoundaryContact out;
  // Anchored corner: both orthogonal outside neighbors of a rect corner are
  // busy or off-machine — the placement is wedged into a concave pocket.
  const mesh::Coord corners[4] = {{x0, y0}, {x1, y0}, {x0, y1}, {x1, y1}};
  const std::int32_t dx[4] = {-1, 1, -1, 1};
  const std::int32_t dy[4] = {-1, -1, 1, 1};
  for (int i = 0; i < 4; ++i) {
    const bool side = contact_at(index, {corners[i].x + dx[i], corners[i].y});
    const bool vert = contact_at(index, {corners[i].x, corners[i].y + dy[i]});
    if (side && vert) ++out.corners;
  }
  out.ring = contact_in_row(index, y0 - 1, x0, x1) +
             contact_in_row(index, y1 + 1, x0, x1);
  for (std::int32_t y = y0; y <= y1; ++y) {
    if (contact_at(index, {x0 - 1, y})) ++out.ring;
    if (contact_at(index, {x1 + 1, y})) ++out.ring;
  }
  return out;
}

}  // namespace ocp::alloc
