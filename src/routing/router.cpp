#include "routing/router.hpp"

namespace ocp::routing {

const char* to_string(RouteStatus s) noexcept {
  switch (s) {
    case RouteStatus::Delivered: return "delivered";
    case RouteStatus::Blocked: return "blocked";
    case RouteStatus::Livelock: return "livelock";
    case RouteStatus::Invalid: return "invalid";
  }
  return "?";
}

std::int32_t Route::detour_hops() const noexcept {
  std::int32_t n = 0;
  for (std::uint8_t p : phase) n += p;
  return n;
}

std::optional<mesh::Dir> ecube_direction(mesh::Coord cur, mesh::Coord dst) {
  if (cur.x < dst.x) return mesh::Dir::East;
  if (cur.x > dst.x) return mesh::Dir::West;
  if (cur.y < dst.y) return mesh::Dir::North;
  if (cur.y > dst.y) return mesh::Dir::South;
  return std::nullopt;
}

std::optional<mesh::Dir> ecube_direction(const mesh::Mesh2D& m,
                                         mesh::Coord cur, mesh::Coord dst) {
  if (!m.is_torus()) return ecube_direction(cur, dst);
  // Per dimension: take the rotational direction with fewer hops; on a tie
  // prefer the positive direction.
  const auto axial = [](std::int32_t from, std::int32_t to, std::int32_t n,
                        mesh::Dir pos, mesh::Dir neg)
      -> std::optional<mesh::Dir> {
    if (from == to) return std::nullopt;
    const std::int32_t forward = ((to - from) % n + n) % n;
    return forward <= n - forward ? pos : neg;
  };
  if (auto d = axial(cur.x, dst.x, m.width(), mesh::Dir::East,
                     mesh::Dir::West)) {
    return d;
  }
  return axial(cur.y, dst.y, m.height(), mesh::Dir::North, mesh::Dir::South);
}

Route XYRouter::route(mesh::Coord src, mesh::Coord dst) const {
  Route r;
  if (!mesh_.contains(src) || !mesh_.contains(dst) ||
      blocked_->contains(src) || blocked_->contains(dst)) {
    return r;  // Invalid
  }
  r.path.push_back(src);
  mesh::Coord cur = src;
  while (cur != dst) {
    const auto dir = ecube_direction(mesh_, cur, dst);
    const auto next = mesh_.neighbor(cur, *dir);
    if (!next || blocked_->contains(*next)) {
      r.status = RouteStatus::Blocked;
      return r;
    }
    r.path.push_back(*next);
    r.phase.push_back(0);
    cur = *next;
  }
  r.status = RouteStatus::Delivered;
  return r;
}

template class BasicFaultRingRouter<grid::CellSet>;

}  // namespace ocp::routing
