#include "alloc/engine.hpp"

#include <algorithm>

namespace ocp::alloc {

namespace {

std::uint64_t pack_coord(mesh::Coord c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
         static_cast<std::uint32_t>(c.y);
}

geom::Rect rect_at(mesh::Coord anchor, std::int32_t w, std::int32_t h) {
  return geom::Rect{anchor, {anchor.x + w - 1, anchor.y + h - 1}};
}

}  // namespace

AllocEngine::AllocEngine(const svc::Snapshot& snap, AllocConfig config)
    : config_(std::move(config)),
      machine_(snap.machine()),
      strategy_(make_strategy(config_.strategy)),
      index_(machine_),
      tiles_(machine_),
      dirty_pages_(tiles_.page_count()),
      blocked_(static_cast<std::size_t>(machine_.node_count()), 0),
      occupant_(static_cast<std::size_t>(machine_.node_count()), -1) {
  for (std::int32_t y = 0; y < machine_.height(); ++y) {
    for (std::int32_t x = 0; x < machine_.width(); ++x) {
      const mesh::Coord c{x, y};
      if (snap.status_of(c) != svc::NodeStatus::Enabled) {
        blocked_[cell_index(c)] = 1;
        ++blocked_count_;
      }
    }
  }
  // Baseline via from-scratch build: the incremental patch counter starts
  // at zero, so it measures epoch turnovers only.
  index_ = FreeRegionIndex::build(
      machine_, [&](mesh::Coord c) { return blocked_[cell_index(c)] != 0; });
  epoch_ = snap.epoch();
  publish_view();
}

std::int64_t AllocView::largest_free_rect() const {
  std::call_once(largest_once_, [this] {
    // Gather each machine row from its pages' rows.
    const mesh::Mesh2D& m = tiles_.machine();
    std::vector<std::uint8_t> row(static_cast<std::size_t>(m.width()));
    largest_free_rect_ = largest_free_rect_area(
        m.width(), m.height(), [&](std::int32_t y) {
          const std::uint32_t p0 = tiles_.page_of({0, y});
          std::uint8_t* out = row.data();
          for (std::int32_t px = 0; px < tiles_.pages_x(); ++px) {
            const std::span<const std::uint8_t> part =
                busy_.row(tiles_, p0 + static_cast<std::uint32_t>(px), y);
            out = std::copy(part.begin(), part.end(), out);
          }
          return row.data();
        });
  });
  return largest_free_rect_;
}

double AllocView::fragmentation() const {
  if (free_cells == 0) return 1.0;
  return static_cast<double>(largest_free_rect()) /
         static_cast<double>(free_cells);
}

void AllocEngine::note(Note code, std::uint64_t id, geom::Rect rect,
                       std::uint64_t extra) {
  const std::uint64_t vals[5] = {static_cast<std::uint64_t>(code), id,
                                 pack_coord(rect.lo), pack_coord(rect.hi),
                                 extra};
  for (const std::uint64_t v : vals) digest_.mix_bytes(v);
}

void AllocEngine::set_busy(mesh::Coord c, bool busy) {
  index_.set_busy(c, busy);
  dirty_pages_.insert(tiles_.page_of(c));
}

void AllocEngine::place_live(const JobRequest& request, mesh::Coord anchor,
                             std::uint32_t evictions) {
  const geom::Rect rect = rect_at(anchor, request.width, request.height);
  for (std::int32_t y = rect.lo.y; y <= rect.hi.y; ++y) {
    for (std::int32_t x = rect.lo.x; x <= rect.hi.x; ++x) {
      const mesh::Coord c{x, y};
      occupant_[cell_index(c)] = static_cast<std::int64_t>(request.id);
      set_busy(c, true);
    }
  }
  occupied_count_ += static_cast<std::size_t>(rect.area());
  live_.emplace(request.id, LiveJob{request, rect, request.lifetime_ticks,
                                    evictions});
}

void AllocEngine::free_cells_of(const geom::Rect& rect) {
  for (std::int32_t y = rect.lo.y; y <= rect.hi.y; ++y) {
    for (std::int32_t x = rect.lo.x; x <= rect.hi.x; ++x) {
      const mesh::Coord c{x, y};
      const std::size_t i = cell_index(c);
      occupant_[i] = -1;
      set_busy(c, blocked_[i] != 0);
    }
  }
  occupied_count_ -= static_cast<std::size_t>(rect.area());
}

SubmitResult AllocEngine::submit(const JobRequest& request) {
  ++stats_.submitted;
  config_.trace.counter("alloc.submitted", 1);
  const bool bad_dims = request.width <= 0 || request.height <= 0 ||
                        request.width > machine_.width() ||
                        request.height > machine_.height();
  const bool duplicate =
      live_.count(request.id) != 0 ||
      std::any_of(pending_.begin(), pending_.end(), [&](const PendingJob& p) {
        return p.request.id == request.id;
      });
  if (bad_dims || duplicate) {
    ++stats_.rejected;
    config_.trace.counter("alloc.rejected", 1);
    note(Note::kRejected, request.id, geom::Rect{}, bad_dims ? 1 : 2);
    publish_view();
    return {SubmitOutcome::Rejected, {}};
  }
  if (const auto anchor =
          strategy_->choose(index_, request.width, request.height)) {
    place_live(request, *anchor, 0);
    ++stats_.placed;
    config_.trace.counter("alloc.placed", 1);
    const geom::Rect rect = live_.at(request.id).rect;
    note(Note::kPlaced, request.id, rect, 0);
    publish_view();
    return {SubmitOutcome::Placed, rect};
  }
  if (pending_.size() < config_.queue_capacity) {
    pending_.push_back(PendingJob{request, 0, 0});
    ++stats_.queued;
    config_.trace.counter("alloc.queued", 1);
    note(Note::kQueued, request.id, geom::Rect{}, 0);
    publish_view();
    return {SubmitOutcome::Queued, {}};
  }
  ++stats_.rejected;
  config_.trace.counter("alloc.rejected", 1);
  note(Note::kRejected, request.id, geom::Rect{}, 3);
  publish_view();
  return {SubmitOutcome::Rejected, {}};
}

bool AllocEngine::release(std::uint64_t id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  const geom::Rect rect = it->second.rect;
  free_cells_of(rect);
  live_.erase(it);
  ++stats_.released;
  config_.trace.counter("alloc.released", 1);
  note(Note::kReleased, id, rect, 0);
  drain_pending();
  publish_view();
  return true;
}

std::size_t AllocEngine::tick() {
  ++tick_;
  // Expiry pass: collect first (ascending id order is the map order), then
  // complete — completing frees cells, which must not perturb the scan.
  std::vector<std::uint64_t> expiring;
  for (auto& [id, job] : live_) {
    if (job.request.lifetime_ticks == 0) continue;
    if (job.remaining_ticks > 0) --job.remaining_ticks;
    if (job.remaining_ticks == 0) expiring.push_back(id);
  }
  for (const std::uint64_t id : expiring) {
    const auto it = live_.find(id);
    const geom::Rect rect = it->second.rect;
    free_cells_of(rect);
    live_.erase(it);
    ++stats_.completed;
    config_.trace.counter("alloc.completed", 1);
    note(Note::kCompleted, id, rect, 0);
  }
  drain_pending();
  publish_view();
  return expiring.size();
}

EpochOutcome AllocEngine::observe_epoch(const svc::Snapshot& snap,
                                        std::span<const mesh::Coord> dirty) {
  obs::Span span(config_.trace, "alloc.observe_epoch");
  EpochOutcome out;
  out.epoch = snap.epoch();
  // Pass 1: refresh the blocked plane over the dirty cells (idempotent, so
  // duplicate dirty entries are harmless) and collect hit jobs.
  std::vector<std::uint64_t> evict_ids;
  for (const mesh::Coord c : dirty) {
    if (!machine_.contains(c)) continue;
    const std::size_t i = cell_index(c);
    const bool now_blocked = snap.status_of(c) != svc::NodeStatus::Enabled;
    if ((blocked_[i] != 0) == now_blocked) continue;
    blocked_[i] = now_blocked ? 1 : 0;
    if (now_blocked) {
      ++blocked_count_;
      ++out.newly_blocked;
      if (occupant_[i] >= 0) {
        evict_ids.push_back(static_cast<std::uint64_t>(occupant_[i]));
      }
      set_busy(c, true);
    } else {
      --blocked_count_;
      ++out.newly_unblocked;
      // An unblocked cell can have no occupant; it is free now.
      set_busy(c, false);
    }
  }
  std::sort(evict_ids.begin(), evict_ids.end());
  evict_ids.erase(std::unique(evict_ids.begin(), evict_ids.end()),
                  evict_ids.end());
  // Pass 2: evict hit jobs in ascending id order, then recover each —
  // immediate re-place, backed-off re-queue, or shed.
  for (const std::uint64_t id : evict_ids) {
    const auto it = live_.find(id);
    LiveJob job = it->second;
    free_cells_of(job.rect);
    live_.erase(it);
    ++stats_.evicted;
    ++out.evicted;
    config_.trace.counter("alloc.evicted", 1);
    note(Note::kEvicted, id, job.rect, out.epoch);
    recover_evicted(std::move(job), out);
  }
  drain_pending();
  epoch_ = out.epoch;
  ++stats_.epochs_observed;
  config_.trace.counter("alloc.epochs", 1);
  note(Note::kEpoch, out.epoch, geom::Rect{}, out.evicted);
  publish_view();
  return out;
}

void AllocEngine::recover_evicted(LiveJob job, EpochOutcome& out) {
  ++job.evictions;
  const JobRequest& request = job.request;
  if (const auto anchor =
          strategy_->choose(index_, request.width, request.height)) {
    place_live(request, *anchor, job.evictions);
    ++stats_.replaced;
    ++out.replaced;
    config_.trace.counter("alloc.replaced", 1);
    note(Note::kReplaced, request.id, live_.at(request.id).rect,
         job.evictions);
    return;
  }
  const bool retries_left = job.evictions <= config_.max_retries;
  if (retries_left && pending_.size() < config_.queue_capacity) {
    const std::uint32_t delay_us =
        svc::backoff_delay_us(config_.retry_backoff, job.evictions - 1);
    stats_.backoff_us += delay_us;
    // The hold is virtual: one tick per eviction survived keeps the engine
    // clock-free while the microsecond schedule lands in the stats.
    pending_.push_front(
        PendingJob{request, job.evictions, tick_ + job.evictions});
    ++stats_.requeued;
    ++out.requeued;
    config_.trace.counter("alloc.requeued", 1);
    note(Note::kRequeued, request.id, geom::Rect{}, job.evictions);
    return;
  }
  ++stats_.shed;
  ++out.shed;
  config_.trace.counter("alloc.shed", 1);
  note(Note::kShed, request.id, geom::Rect{}, job.evictions);
}

std::size_t AllocEngine::drain_pending() {
  std::size_t placed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->not_before_tick > tick_) {
      ++it;
      continue;
    }
    const auto anchor =
        strategy_->choose(index_, it->request.width, it->request.height);
    if (!anchor) {
      // Backfill: a blocked head does not starve placeable jobs behind it.
      ++it;
      continue;
    }
    const JobRequest request = it->request;
    place_live(request, *anchor, it->evictions);
    ++stats_.placed;
    config_.trace.counter("alloc.placed", 1);
    note(Note::kPlaced, request.id, live_.at(request.id).rect, 1);
    it = pending_.erase(it);
    ++placed;
  }
  return placed;
}

double AllocEngine::utilization() const {
  const std::size_t usable =
      static_cast<std::size_t>(machine_.node_count()) - blocked_count_;
  if (usable == 0) return 0.0;
  return static_cast<double>(occupied_count_) / static_cast<double>(usable);
}

void AllocEngine::publish_view() {
  // Rebuild only the pages with a busy flip since the last publish (every
  // page on the first one); the rest are shared with the previous view. No
  // O(W x H) pass: fragmentation is computed by the reader.
  const auto busy_rows = [this](std::int32_t y, std::int32_t x0,
                                std::span<std::uint8_t> out) {
    expand_busy(index_.free_row(y), x0, out);
  };
  svc::PageStats pages;
  auto next = std::make_shared<AllocView>(
      tiles_, view_ ? svc::PagedPlane<std::uint8_t>::next(
                          view_->busy_, tiles_, dirty_pages_, busy_rows, pages)
                    : svc::PagedPlane<std::uint8_t>::build(tiles_, busy_rows,
                                                           pages));
  dirty_pages_.clear();
  next->epoch = epoch_;
  next->tick = tick_;
  next->placement_digest = digest_.value;
  next->live = live_.size();
  next->pending = pending_.size();
  next->free_cells = index_.free_cells();
  next->submitted = stats_.submitted;
  next->completed = stats_.completed;
  next->shed = stats_.shed;
  next->utilization = utilization();
  std::unique_lock lock(view_mu_);
  view_ = std::move(next);
}

}  // namespace ocp::alloc
