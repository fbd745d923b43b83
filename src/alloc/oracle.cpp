#include "alloc/oracle.hpp"

#include <sstream>
#include <vector>

namespace ocp::alloc {

namespace {

std::string coord_str(mesh::Coord c) {
  std::ostringstream os;
  os << "(" << c.x << "," << c.y << ")";
  return os.str();
}

}  // namespace

check::ViolationReport check_engine(const AllocEngine& engine,
                                    const svc::Snapshot& snap,
                                    std::uint32_t checks) {
  check::ViolationReport report;
  const auto& machine = engine.machine();
  auto fail = [&](std::uint32_t check, std::string detail) {
    report.violations.push_back({check, std::move(detail)});
  };

  // Independent occupancy recompute from the live-job table.
  std::vector<std::int64_t> owner(
      static_cast<std::size_t>(machine.node_count()), -1);
  for (const auto& [id, job] : engine.live()) {
    const geom::Rect r = job.rect;
    const bool inside = machine.contains(r.lo) && machine.contains(r.hi) &&
                        r.lo.x <= r.hi.x && r.lo.y <= r.hi.y;
    if (!inside) {
      if (checks & check::kAllocOverlap) {
        fail(check::kAllocOverlap,
             "job " + std::to_string(id) + " footprint " + coord_str(r.lo) +
                 ".." + coord_str(r.hi) + " leaves the machine");
      }
      continue;
    }
    for (std::int32_t y = r.lo.y; y <= r.hi.y; ++y) {
      for (std::int32_t x = r.lo.x; x <= r.hi.x; ++x) {
        const mesh::Coord c{x, y};
        const std::size_t i = static_cast<std::size_t>(y) *
                                  static_cast<std::size_t>(machine.width()) +
                              static_cast<std::size_t>(x);
        if ((checks & check::kAllocOverlap) && owner[i] >= 0) {
          fail(check::kAllocOverlap,
               "jobs " + std::to_string(owner[i]) + " and " +
                   std::to_string(id) + " both cover " + coord_str(c));
        }
        owner[i] = static_cast<std::int64_t>(id);
        const bool cell_blocked = snap.status_of(c) != svc::NodeStatus::Enabled;
        if ((checks & check::kAllocOverlap) && cell_blocked) {
          fail(check::kAllocOverlap, "job " + std::to_string(id) +
                                         " covers non-enabled cell " +
                                         coord_str(c));
        }
        if ((checks & check::kAllocEviction) && cell_blocked) {
          fail(check::kAllocEviction,
               "job " + std::to_string(id) + " survived on blocked cell " +
                   coord_str(c) + " after epoch " +
                   std::to_string(snap.epoch()));
        }
      }
    }
  }

  if (checks & check::kAllocEviction) {
    if (engine.epoch() != snap.epoch()) {
      fail(check::kAllocEviction,
           "engine observed epoch " + std::to_string(engine.epoch()) +
               " but the snapshot serves epoch " +
               std::to_string(snap.epoch()));
    }
  }

  if (checks & check::kAllocIndex) {
    const FreeRegionIndex rebuilt =
        FreeRegionIndex::build(machine, [&](mesh::Coord c) {
          const std::size_t i = static_cast<std::size_t>(c.y) *
                                    static_cast<std::size_t>(machine.width()) +
                                static_cast<std::size_t>(c.x);
          return snap.status_of(c) != svc::NodeStatus::Enabled || owner[i] >= 0;
        });
    if (!engine.index().equivalent_to(rebuilt)) {
      fail(check::kAllocIndex,
           "incremental free-region index diverged from the from-scratch "
           "rebuild at epoch " +
               std::to_string(snap.epoch()));
    }
    // The published view's frozen busy plane must be the index's busy
    // plane: a busy flip whose tile was not marked dirty leaves a stale
    // shared page behind.
    const auto view = engine.view();
    std::size_t view_free = 0;
    for (std::int32_t y = 0; y < machine.height(); ++y) {
      for (std::int32_t x = 0; x < machine.width(); ++x) {
        const mesh::Coord c{x, y};
        const bool want = snap.status_of(c) != svc::NodeStatus::Enabled;
        if (engine.blocked_at(c) != want) {
          fail(check::kAllocIndex,
               "blocked plane disagrees with the snapshot at " + coord_str(c));
        }
        if (view->busy_at(c) != engine.index().busy(c)) {
          fail(check::kAllocIndex,
               "published view's busy plane disagrees with the index at " +
                   coord_str(c));
        }
        if (!view->busy_at(c)) ++view_free;
      }
    }
    if (view->free_cells != engine.index().free_cells() ||
        view_free != view->free_cells) {
      fail(check::kAllocIndex,
           "published view counts " + std::to_string(view->free_cells) +
               " free cells, its busy plane " + std::to_string(view_free) +
               ", the index " + std::to_string(engine.index().free_cells()));
    }
  }

  if (checks & check::kAllocConservation) {
    const AllocStats& s = engine.stats();
    const std::uint64_t accounted =
        static_cast<std::uint64_t>(engine.live().size()) +
        static_cast<std::uint64_t>(engine.pending().size()) + s.completed +
        s.released + s.rejected + s.shed;
    if (s.submitted != accounted) {
      fail(check::kAllocConservation,
           "submitted " + std::to_string(s.submitted) + " != live " +
               std::to_string(engine.live().size()) + " + pending " +
               std::to_string(engine.pending().size()) + " + completed " +
               std::to_string(s.completed) + " + released " +
               std::to_string(s.released) + " + rejected " +
               std::to_string(s.rejected) + " + shed " +
               std::to_string(s.shed));
    }
    if (engine.pending().size() > engine.config().queue_capacity) {
      fail(check::kAllocConservation,
           "pending queue depth " + std::to_string(engine.pending().size()) +
               " exceeds capacity " +
               std::to_string(engine.config().queue_capacity));
    }
  }

  return report;
}

}  // namespace ocp::alloc
