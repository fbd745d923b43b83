// The job lifecycle engine: submits, places, evicts and re-places
// rectangular submesh jobs against `svc::Snapshot` epochs.
//
// Deliberately thread-free and single-writer, like `svc::IngestEngine`: one
// driver thread calls `submit` / `release` / `tick` / `observe_epoch`;
// reader threads poll the RCU-published `AllocView` (a shared_ptr handle
// behind a shared_mutex, same publish discipline as the snapshot slot).
// Every state transition is appended to an FNV-1a placement digest, so two
// drivers fed the same call sequence produce bit-identical digests — the
// replay-identity property the load generator and the chaos harness assert.
//
// Placement state is two per-cell planes plus the free-region index:
//  * blocked_  — cells unusable per the observed snapshot (status_of !=
//                Enabled: disabled regions and faulty blocks alike);
//  * occupant_ — live-job id per cell (-1 when unoccupied);
//  * index_    — one bit plane of free cells (free = neither blocked nor
//                occupied), one bit flip per changed cell.
//
// Epoch turnover (`observe_epoch`) is O(dirty): only the caller-provided
// dirty cells are re-read from the snapshot. A live job whose footprint
// gains a blocked cell is *evicted*: its cells are freed (except the newly
// blocked ones), then — in ascending job id order for determinism — the
// engine re-places it immediately if the strategy finds room, else re-queues
// it with a bounded-retry backoff (`svc::backoff_delay_us` accounts the
// retry schedule in microseconds; the hold is expressed in virtual ticks so
// the engine itself stays clock-free), else sheds it once the eviction
// count exceeds `max_retries` or the queue is full. The admission queue
// backfills: a blocked queue head never starves smaller placeable jobs
// behind it (scan order is deterministic, so replay identity holds).
//
// Every transition ends in one publish of the `AllocView`. Publishing is
// O(dirty pages): every busy flip marks its page, and the view's frozen busy
// plane rebuilds only those pages (expanding the index's free bits to busy
// bytes eight at a time), sharing the rest with the previous view.
// The O(W x H) fragmentation scan is left to the readers that ask for it.
//
// Conservation invariant (checked by `alloc::check_engine`):
//   submitted == live + pending + completed + released + rejected + shed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "alloc/free_index.hpp"
#include "alloc/strategy.hpp"
#include "geometry/rect.hpp"
#include "grid/tiles.hpp"
#include "obs/trace.hpp"
#include "stats/fnv.hpp"
#include "svc/backoff.hpp"
#include "svc/pages.hpp"
#include "svc/snapshot.hpp"

namespace ocp::alloc {

struct AllocConfig {
  StrategyKind strategy = StrategyKind::FirstFit;
  /// Bounded admission queue for jobs that do not fit right now.
  std::size_t queue_capacity = 64;
  /// Evictions a job survives (each with one immediate re-place attempt and
  /// a backed-off queue residency) before it is shed.
  std::uint32_t max_retries = 3;
  /// Accounts the eviction-retry schedule (stats_.backoff_us) and shapes the
  /// virtual-tick hold of a re-queued job.
  svc::BackoffPolicy retry_backoff{};
  /// Observability: alloc.* counters and epoch spans.
  obs::TraceConfig trace;
};

struct JobRequest {
  /// Caller-assigned, unique among non-finished jobs; must be < 2^63 (the
  /// occupant plane stores ids in int64 with -1 as "empty").
  std::uint64_t id = 0;
  std::int32_t width = 1;
  std::int32_t height = 1;
  /// Ticks the job runs once placed; 0 = runs until released.
  std::uint32_t lifetime_ticks = 0;
};

enum class SubmitOutcome : std::uint8_t { Placed = 0, Queued = 1, Rejected = 2 };

[[nodiscard]] constexpr const char* to_string(SubmitOutcome o) noexcept {
  switch (o) {
    case SubmitOutcome::Placed: return "placed";
    case SubmitOutcome::Queued: return "queued";
    case SubmitOutcome::Rejected: return "rejected";
  }
  return "?";
}

struct SubmitResult {
  SubmitOutcome outcome = SubmitOutcome::Rejected;
  /// Footprint when Placed.
  geom::Rect rect{};
};

struct LiveJob {
  JobRequest request;
  geom::Rect rect{};
  /// Ticks left (meaningful when request.lifetime_ticks > 0).
  std::uint32_t remaining_ticks = 0;
  /// Times this job has been evicted so far.
  std::uint32_t evictions = 0;
};

struct PendingJob {
  JobRequest request;
  std::uint32_t evictions = 0;
  /// Earliest tick a drain may retry this job (eviction backoff hold).
  std::uint64_t not_before_tick = 0;
};

/// Monotone counters; `submit`/`observe_epoch`/`tick` transitions only.
struct AllocStats {
  std::uint64_t submitted = 0;
  std::uint64_t placed = 0;   // immediate + drained placements
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;  // admission rejections (full queue, bad dims)
  std::uint64_t released = 0;
  std::uint64_t completed = 0;  // lifetime expiries
  std::uint64_t evicted = 0;
  std::uint64_t replaced = 0;  // evictions recovered by immediate re-place
  std::uint64_t requeued = 0;  // evictions parked back in the queue
  std::uint64_t shed = 0;      // dropped after bounded retries / full queue
  std::uint64_t epochs_observed = 0;
  /// Sum of `svc::backoff_delay_us` over every eviction retry hold.
  std::uint64_t backoff_us = 0;
};

/// What one `observe_epoch` call did.
struct EpochOutcome {
  std::uint64_t epoch = 0;
  std::size_t newly_blocked = 0;
  std::size_t newly_unblocked = 0;
  std::size_t evicted = 0;
  std::size_t replaced = 0;
  std::size_t requeued = 0;
  std::size_t shed = 0;
};

/// Immutable published view for reader threads (RCU slot). Besides the
/// scalar counters it carries the engine's busy plane (blocked OR occupied)
/// frozen at publish time, paged copy-on-write along the page grid of the
/// machine's `grid::TileGrid`: a view shares every page no busy flip
/// touched since its predecessor, so publishing costs O(dirty pages). The
/// O(W x H) largest-free-rectangle pass runs only when a reader asks for
/// `largest_free_rect()` / `fragmentation()`, once per view (memoized under
/// `std::call_once`, so concurrent readers of one view see one value).
class AllocView {
 public:
  AllocView(const grid::TileGrid& tiles, svc::PagedPlane<std::uint8_t> busy)
      : tiles_(tiles), busy_(std::move(busy)) {}

  AllocView(const AllocView&) = delete;
  AllocView& operator=(const AllocView&) = delete;

  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;
  std::uint64_t placement_digest = 0;
  std::size_t live = 0;
  std::size_t pending = 0;
  std::size_t free_cells = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  double utilization = 0.0;

  /// Area of the largest fully free rectangle of the frozen plane.
  [[nodiscard]] std::int64_t largest_free_rect() const;
  /// largest-free-rect / free cells; 1.0 when nothing is free (fully
  /// compact by convention).
  [[nodiscard]] double fragmentation() const;

  /// Busy (blocked or occupied) at publish time.
  [[nodiscard]] bool busy_at(mesh::Coord c) const {
    return busy_.at(tiles_, c) != 0;
  }
  [[nodiscard]] const grid::TileGrid& tiles() const noexcept { return tiles_; }
  /// True when this view and `prev` serve page `p` of the busy plane from
  /// the same page object (test hook for the sharing structure, like
  /// `svc::Snapshot::shares_pages_with`).
  [[nodiscard]] bool shares_page_with(const AllocView& prev,
                                      std::uint32_t p) const noexcept {
    return busy_.shares_page_with(prev.busy_, p);
  }

 private:
  friend class AllocEngine;

  grid::TileGrid tiles_;
  svc::PagedPlane<std::uint8_t> busy_;
  mutable std::once_flag largest_once_;
  mutable std::int64_t largest_free_rect_ = 0;
};

class AllocEngine {
 public:
  /// Reads the full blocked plane from `snap` (epoch baseline); later
  /// epochs arrive incrementally via `observe_epoch`.
  explicit AllocEngine(const svc::Snapshot& snap, AllocConfig config = {});

  AllocEngine(const AllocEngine&) = delete;
  AllocEngine& operator=(const AllocEngine&) = delete;

  /// Admission: place now, queue, or reject (bad dims / duplicate id /
  /// full queue). Single-writer.
  SubmitResult submit(const JobRequest& request);

  /// Frees a live job's cells and drains the queue into the freed space.
  /// False when `id` is not live.
  bool release(std::uint64_t id);

  /// Advances virtual time: expires lifetimes (ascending id), then drains
  /// the queue. Returns jobs completed this tick.
  std::size_t tick();

  /// Applies one epoch turnover from the snapshot's dirty cells (duplicates
  /// tolerated; cells outside the machine ignored). O(dirty) + eviction
  /// recovery work. Single-writer.
  EpochOutcome observe_epoch(const svc::Snapshot& snap,
                             std::span<const mesh::Coord> dirty);

  // -- driver-side accessors (single-writer, like the mutators) -----------
  [[nodiscard]] const FreeRegionIndex& index() const noexcept { return index_; }
  /// Live jobs keyed by id (ascending iteration = the deterministic order).
  [[nodiscard]] const std::map<std::uint64_t, LiveJob>& live() const noexcept {
    return live_;
  }
  [[nodiscard]] const std::deque<PendingJob>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] const AllocStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t current_tick() const noexcept { return tick_; }
  /// FNV-1a digest over every state transition since construction.
  [[nodiscard]] std::uint64_t placement_digest() const noexcept {
    return digest_.value;
  }
  [[nodiscard]] bool blocked_at(mesh::Coord c) const {
    return blocked_[cell_index(c)] != 0;
  }
  /// Live-job id occupying `c`, or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> occupant_at(mesh::Coord c) const {
    const std::int64_t o = occupant_[cell_index(c)];
    if (o < 0) return std::nullopt;
    return static_cast<std::uint64_t>(o);
  }
  /// Occupied cells / usable (non-blocked) cells; 0 when nothing is usable.
  [[nodiscard]] double utilization() const;
  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] const AllocConfig& config() const noexcept { return config_; }

  // -- reader side ---------------------------------------------------------
  /// The current published view (safe from any thread).
  [[nodiscard]] std::shared_ptr<const AllocView> view() const {
    std::shared_lock lock(view_mu_);
    return view_;
  }

 private:
  enum class Note : std::uint8_t {
    kPlaced = 1,
    kQueued = 2,
    kRejected = 3,
    kReleased = 4,
    kCompleted = 5,
    kEvicted = 6,
    kReplaced = 7,
    kRequeued = 8,
    kShed = 9,
    kEpoch = 10,
  };

  [[nodiscard]] std::size_t cell_index(mesh::Coord c) const {
    return static_cast<std::size_t>(c.y) *
               static_cast<std::size_t>(machine_.width()) +
           static_cast<std::size_t>(c.x);
  }
  void note(Note code, std::uint64_t id, geom::Rect rect, std::uint64_t extra);
  /// Flips one cell in the index and marks its page for the next publish.
  void set_busy(mesh::Coord c, bool busy);
  void place_live(const JobRequest& request, mesh::Coord anchor,
                  std::uint32_t evictions);
  void free_cells_of(const geom::Rect& rect);
  /// Re-place / re-queue / shed one evicted job; updates `out`.
  void recover_evicted(LiveJob job, EpochOutcome& out);
  std::size_t drain_pending();
  void publish_view();

  AllocConfig config_;
  mesh::Mesh2D machine_;
  std::unique_ptr<PlacementStrategy> strategy_;
  FreeRegionIndex index_;
  grid::TileGrid tiles_;
  /// Pages holding a busy flip since the last publish.
  grid::PageSet dirty_pages_;
  std::vector<std::uint8_t> blocked_;
  std::vector<std::int64_t> occupant_;
  std::size_t blocked_count_ = 0;
  std::size_t occupied_count_ = 0;
  std::map<std::uint64_t, LiveJob> live_;
  std::deque<PendingJob> pending_;
  AllocStats stats_;
  std::uint64_t epoch_ = 0;
  std::uint64_t tick_ = 0;
  /// Seeded with 1469598103934665603, the FNV offset basis short of its
  /// last decimal digit: every recorded placement digest starts there.
  stats::Fnv1a digest_{1469598103934665603ULL};

  mutable std::shared_mutex view_mu_;
  std::shared_ptr<const AllocView> view_;
};

}  // namespace ocp::alloc
