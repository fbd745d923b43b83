// The serving stack every workload drives from its single thread: seeded
// input generators, the ingest front (`Server`) and the job scheduler
// (`Scheduler`). Both have an untraced form that calls the public engines
// exactly as a user would and a traced form that drives the same public
// calls stage by stage under benchmark-owned spans.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "alloc/engine.hpp"
#include "bench.hpp"
#include "grid/tiles.hpp"
#include "svc/ingest.hpp"

namespace pb {

// -- inputs -----------------------------------------------------------------

/// `round(rate * cells)` distinct uniformly placed faults.
[[nodiscard]] ocp::grid::CellSet uniform_faults(const ocp::mesh::Mesh2D& m,
                                                double rate, Rng& rng);

/// Tracks the fault set while an event stream is generated so every event
/// is effective: a fault hits a healthy node, a repair a faulty one.
class FaultTracker {
 public:
  explicit FaultTracker(const ocp::grid::CellSet& initial);
  /// One batch of `events` events, each a repair with probability
  /// `repair_share` (when any node is faulty), else a fault. With
  /// probability `duplicate_share` an event repeats an earlier one of the
  /// batch (a node reported twice), which ingest coalesces away.
  std::vector<ocp::svc::FaultEvent> batch(std::size_t events,
                                          double repair_share,
                                          double duplicate_share, Rng& rng);

 private:
  ocp::grid::CellSet faults_;
  std::vector<ocp::mesh::Coord> faulty_;
};

/// Folds `batch` into `faults` (the driver's own record of the fault set).
void apply_events(ocp::grid::CellSet& faults,
                  std::span<const ocp::svc::FaultEvent> batch);

/// `n` jobs with ids first_id, first_id + 1, ... and no lifetime: they run
/// until the run ends. Side lengths are 1 + floor(u^2 * side_cap) for u in
/// [0, 1): small jobs dominate, a few are side_cap wide.
[[nodiscard]] std::vector<ocp::alloc::JobRequest> make_jobs(
    Rng& rng, std::size_t n, std::int32_t side_cap, std::uint64_t first_id);

// -- scheduler ----------------------------------------------------------------

/// The allocation engine plus the bookkeeping the end-to-end metrics need:
/// which jobs a fault evicted, when each is live again, and peak
/// utilization. Every call settles pending re-placements afterwards, so a
/// job re-placed by a tick or a drain is timed to the step that placed it.
class Scheduler {
 public:
  /// First-fit: the one strategy cheap enough to run next to the serving
  /// and labeling work of every workload.
  Scheduler(const ocp::svc::Snapshot& snap, const obs::TraceConfig& trace);

  ocp::alloc::SubmitOutcome submit(const ocp::alloc::JobRequest& job);
  void tick();
  /// Ticks once if evicted jobs wait in the queue (their backed-off hold
  /// counts ticks), else does nothing.
  void tick_if_waiting();
  /// Applies one epoch turnover. `since` is when the evicting batch was
  /// handed to the ingest front.
  void observe(const ocp::svc::Snapshot& snap,
               std::span<const ocp::mesh::Coord> dirty, Clock::time_point since);

  /// Starts the timed phase: forgets set-up peaks and samples.
  void begin_timed();
  [[nodiscard]] const ocp::alloc::AllocEngine& engine() const {
    return engine_;
  }
  [[nodiscard]] const Samples& replace_us() const { return replace_us_; }
  [[nodiscard]] double util_peak() const { return util_peak_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  /// Evicted jobs still waiting to be placed again.
  [[nodiscard]] std::size_t waiting() const { return waiting_.size(); }

 private:
  void settle();

  ocp::alloc::AllocEngine engine_;
  /// Traced run only: the same strategy, asked on the live index before
  /// each submit so its decision time is a span of its own.
  std::unique_ptr<ocp::alloc::PlacementStrategy> shadow_;
  obs::TraceConfig trace_;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> waiting_;
  /// Live jobs on the cells an epoch blocks (scratch of `observe`).
  std::vector<std::uint64_t> hit_;
  Samples replace_us_;
  double util_peak_ = 0;
  std::uint64_t rejected_ = 0;
};

/// One stderr line of scheduler outcomes (placed, evicted, re-placed at
/// once, re-queued, shed, rejected, still waiting) for diagnosis.
void report_scheduler(const Scheduler& sched);

/// What the traced run reports of the scheduler once its pass is over.
struct AllocCounts {
  ocp::alloc::AllocStats stats;
  std::uint64_t cells_patched = 0;
};
[[nodiscard]] AllocCounts alloc_counts(const Scheduler& sched);
/// Sets the alloc.* per-layer metrics from the traced pass.
void report_alloc_layers(const Tracer& tracer, const AllocCounts& c,
                         Result& r);

// -- ingest front -------------------------------------------------------------

/// Per-epoch layer counts the traced run reports.
struct EpochCounts {
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dirty_cells = 0;
  std::uint64_t pages_copied = 0;
  std::uint64_t pages_shared = 0;
  std::uint64_t routes_carried = 0;
  std::uint64_t routes_invalidated = 0;
  std::uint64_t route_hits = 0;
  std::uint64_t route_misses = 0;
};

/// Fault/repair batches in, snapshots out. Untraced, it is an
/// `svc::IngestEngine`. Traced, it performs the engine's stages itself in
/// the engine's order through public calls — coalesce, relabel, tile masks,
/// `Snapshot::next` — each under its own span, because `apply` cannot be
/// split from outside.
class Server {
 public:
  Server(ocp::grid::CellSet faults, const obs::TraceConfig& trace);

  struct Applied {
    bool published = false;
    std::uint64_t epoch = 0;
    /// Net fault-set changes (events minus those coalesced away).
    std::size_t applied = 0;
    /// Every cell whose served label may have changed (for the scheduler).
    std::span<const ocp::mesh::Coord> dirty;
  };
  Applied apply(std::span<const ocp::svc::FaultEvent> batch);

  /// The serving snapshot, acquired the way a query thread would.
  [[nodiscard]] const ocp::svc::Snapshot& acquire() const;
  [[nodiscard]] std::shared_ptr<const ocp::svc::Snapshot> snapshot() const;

  /// Untraced: wall time spent inside `apply`, and the number of calls.
  [[nodiscard]] double apply_s() const { return apply_s_; }
  [[nodiscard]] std::uint64_t applies() const { return applies_; }
  /// Traced: layer counts so far, including the serving cache's lookups.
  [[nodiscard]] EpochCounts counts() const;

 private:
  Applied apply_staged(std::span<const ocp::svc::FaultEvent> batch);

  obs::TraceConfig trace_;
  std::unique_ptr<ocp::svc::IngestEngine> engine_;
  double apply_s_ = 0;
  std::uint64_t applies_ = 0;
  std::vector<ocp::mesh::Coord> dirty_;

  // Traced form.
  std::unique_ptr<ocp::labeling::MaintainedLabeling> labeling_;
  std::unique_ptr<ocp::grid::TileGrid> tiles_;
  std::shared_ptr<const ocp::svc::Snapshot> current_;
  std::vector<std::pair<ocp::mesh::Coord, bool>> desired_;
  EpochCounts counts_;
};

}  // namespace pb
