// Fault-tolerant packet routing over labeled meshes.
//
// The paper's motivation: convex fault regions let misrouted messages slide
// around a region's boundary without backtracking, enabling deadlock-free
// fault-tolerant routing with few virtual channels (Boura-Das, Su-Shin,
// Chalasani-Boppana). This module implements
//
//  * `XYRouter` — plain dimension-order (e-cube) routing; fails when the
//    path hits a blocked node (no fault tolerance). The baseline.
//  * `FaultRingRouter` — e-cube routing that, upon hitting a blocked
//    region, follows the region's boundary ring (wall-following with a
//    configurable hand) until dimension-order progress can resume. With
//    orthogonal convex blocked regions, the detour never revisits a node;
//    with concave regions (e.g. U-shapes) it can fail — which is exactly
//    the paper's argument for convexifying fault regions.
//
// Routers treat a `blocked` cell set (union of faulty blocks, or union of
// disabled regions) as impassable; everything else is assumed enabled.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "grid/cell_set.hpp"
#include "mesh/mesh2d.hpp"
#include "routing/turns.hpp"

namespace ocp::routing {

/// Which side of the packet the blocked region is kept on during a detour.
enum class Hand : std::uint8_t { Left = 0, Right = 1 };

/// Why a route attempt ended.
enum class RouteStatus : std::uint8_t {
  Delivered = 0,
  /// Next e-cube hop blocked and the router has no detour rule.
  Blocked = 1,
  /// Detour wrapped around to its hit point without finding an exit
  /// (concave trap) or exceeded the step budget.
  Livelock = 2,
  /// Source or destination is itself blocked / outside the machine.
  Invalid = 3,
};

[[nodiscard]] const char* to_string(RouteStatus s) noexcept;

/// A computed route. `path` starts at the source and, when delivered, ends
/// at the destination. `phase[i]` tags the hop path[i] -> path[i+1]:
/// 0 = dimension-order progress, 1 = detour (ring traversal).
struct Route {
  RouteStatus status = RouteStatus::Invalid;
  std::vector<mesh::Coord> path;
  std::vector<std::uint8_t> phase;

  [[nodiscard]] bool delivered() const noexcept {
    return status == RouteStatus::Delivered;
  }
  /// Number of link traversals.
  [[nodiscard]] std::int32_t hops() const noexcept {
    return path.empty() ? 0 : static_cast<std::int32_t>(path.size()) - 1;
  }
  /// Hops spent in detour phase.
  [[nodiscard]] std::int32_t detour_hops() const noexcept;
};

/// Common interface of the routing algorithms.
class Router {
 public:
  virtual ~Router() = default;

  /// Computes the route from `src` to `dst` through nonblocked nodes.
  [[nodiscard]] virtual Route route(mesh::Coord src, mesh::Coord dst) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Plain dimension-order routing: correct X, then Y. Deterministic, minimal
/// and deadlock-free with one virtual channel, but gives up at the first
/// blocked hop.
class XYRouter final : public Router {
 public:
  XYRouter(const mesh::Mesh2D& m, const grid::CellSet& blocked)
      : mesh_(m), blocked_(&blocked) {}

  [[nodiscard]] Route route(mesh::Coord src, mesh::Coord dst) const override;
  [[nodiscard]] std::string name() const override { return "xy"; }

 private:
  mesh::Mesh2D mesh_;
  const grid::CellSet* blocked_;  // non-owning
};

/// Dimension-order routing with boundary-following detours around blocked
/// regions (the f-ring traversal of the fault-tolerant routing literature).
///
/// Detour rule: on hitting a blocked next hop, remember the current distance
/// to the destination and wall-follow with the configured hand; leave the
/// wall at the first node that is strictly closer to the destination than
/// the hit point and whose dimension-order hop is unblocked. For orthogonal
/// convex regions such an exit always exists; reaching the hit point again
/// reports `Livelock`.
///
/// `Blocked` is any source with `bool contains(mesh::Coord) const` (false
/// outside the machine): a `grid::CellSet`, or a serving snapshot's paged
/// status plane, which then needs no per-epoch copy of the blocked set.
template <typename Blocked>
class BasicFaultRingRouter final : public Router {
 public:
  BasicFaultRingRouter(const mesh::Mesh2D& m, const Blocked& blocked,
                       Hand hand = Hand::Right)
      : mesh_(m), blocked_(&blocked), hand_(hand) {}

  [[nodiscard]] Route route(mesh::Coord src, mesh::Coord dst) const override;
  [[nodiscard]] std::string name() const override {
    return hand_ == Hand::Right ? "ring-right" : "ring-left";
  }

 private:
  mesh::Mesh2D mesh_;
  const Blocked* blocked_;  // non-owning
  Hand hand_;
};

using FaultRingRouter = BasicFaultRingRouter<grid::CellSet>;

/// The dimension-order hop toward `dst` from `cur` (X first, then Y), or
/// nullopt when already there. Planar variant (no wraparound).
[[nodiscard]] std::optional<mesh::Dir> ecube_direction(mesh::Coord cur,
                                                       mesh::Coord dst);

/// Topology-aware variant: on a torus each dimension moves along its
/// shorter way around (ties break toward East/North); on a mesh this
/// equals the planar variant.
[[nodiscard]] std::optional<mesh::Dir> ecube_direction(
    const mesh::Mesh2D& m, mesh::Coord cur, mesh::Coord dst);

template <typename Blocked>
Route BasicFaultRingRouter<Blocked>::route(mesh::Coord src,
                                           mesh::Coord dst) const {
  Route r;
  if (!mesh_.contains(src) || !mesh_.contains(dst) ||
      blocked_->contains(src) || blocked_->contains(dst)) {
    return r;  // Invalid
  }
  r.path.push_back(src);
  mesh::Coord cur = src;

  bool detouring = false;
  std::int32_t hit_distance = 0;
  mesh::Dir heading = mesh::Dir::East;
  // Dense (cell, heading) detour states, for cycle detection.
  std::unordered_set<std::uint64_t> detour_seen;
  const auto detour_state = [this](mesh::Coord c, mesh::Dir d) {
    return (static_cast<std::uint64_t>(mesh_.index(c)) << 2) |
           static_cast<std::uint64_t>(d);
  };

  // Global budget: every detour exits strictly closer to the destination
  // than it began, so the walk cannot exceed a few boundary lengths; the
  // cap only trips on genuine livelock.
  const auto budget = static_cast<std::int64_t>(mesh_.node_count()) * 8;

  // Topology-aware passable step (wraps on a torus).
  const auto step_to = [&](mesh::Coord from,
                           mesh::Dir d) -> std::optional<mesh::Coord> {
    const auto next = mesh_.neighbor(from, d);
    if (!next || blocked_->contains(*next)) return std::nullopt;
    return next;
  };

  for (std::int64_t steps = 0; cur != dst; ++steps) {
    if (steps > budget) {
      r.status = RouteStatus::Livelock;
      return r;
    }
    if (!detouring) {
      const auto dir = ecube_direction(mesh_, cur, dst);
      if (const auto next = step_to(cur, *dir)) {
        r.path.push_back(*next);
        r.phase.push_back(0);
        cur = *next;
        continue;
      }
      // Hit: start wall-following with the blocked region on `hand_` side.
      detouring = true;
      hit_distance = mesh_.distance(cur, dst);
      heading = hand_ == Hand::Right ? left_of(*dir) : right_of(*dir);
      detour_seen.clear();
      detour_seen.insert(detour_state(cur, heading));
    }

    // Exit test: strictly closer than the hit point and able to resume
    // dimension-order progress.
    if (mesh_.distance(cur, dst) < hit_distance) {
      const auto dir = ecube_direction(mesh_, cur, dst);
      if (dir && step_to(cur, *dir)) {
        detouring = false;
        continue;
      }
    }

    // One wall-following step: prefer turning into the wall, then straight,
    // then away, then back.
    const mesh::Dir into_wall =
        hand_ == Hand::Right ? right_of(heading) : left_of(heading);
    const mesh::Dir away =
        hand_ == Hand::Right ? left_of(heading) : right_of(heading);
    const std::array<mesh::Dir, 4> preference = {into_wall, heading, away,
                                                 mesh::opposite(heading)};
    bool moved = false;
    for (mesh::Dir d : preference) {
      const auto next = step_to(cur, d);
      if (!next) continue;
      cur = *next;
      heading = d;
      r.path.push_back(cur);
      r.phase.push_back(1);
      moved = true;
      break;
    }
    if (!moved) {
      // Completely walled in (single-cell pocket).
      r.status = RouteStatus::Livelock;
      return r;
    }
    if (!detour_seen.insert(detour_state(cur, heading)).second) {
      // Same cell with the same heading twice within one detour: the wall
      // walk is cycling without ever reaching an exit point.
      r.status = RouteStatus::Livelock;
      return r;
    }
  }
  r.status = RouteStatus::Delivered;
  return r;
}

extern template class BasicFaultRingRouter<grid::CellSet>;

}  // namespace ocp::routing
