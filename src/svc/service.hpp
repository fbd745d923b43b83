// The long-lived serving runtime: a fleet of tile-partitioned shards, each
// with its own ingest thread, behind one multi-threaded query front.
//
// `Service` runs one `Shard` (shard.hpp) per cell of a `ShardGrid`, each
// with its own bounded `EventQueue`, its own worker thread applying batches
// through its own single-writer `IngestEngine`, and its own RCU-published
// snapshot chain. The default shape is 1x1: one shard, one queue, one
// writer — the single-writer runtime is simply the fleet's smallest case,
// and pays nothing for the sharding (no halo bookkeeping, no route
// stitching; see `Shard::apply`). Larger shapes follow the paper's protocol:
// external events route to their owning shard's queue by coordinate; halo
// deltas emitted by one shard's apply are delivered (under the service
// mutex, before the producer clears its draining flag) into the target
// shards' inboxes, so the flush barrier's quiesce predicate is exact: every
// queue empty, every inbox empty, no shard mid-apply — precisely "no
// in-flight information anywhere", the paper's termination condition for
// its exchange rounds.
//
// Queries never funnel through shared mutable state. A point lookup maps
// the coordinate to its owning shard and acquires that shard's epoch via
// the thread-local one-atomic-load handle (`IngestEngine::acquire`); queries
// running concurrently with a publication simply see the previous epoch.
// `query_batch` answers every item against a composite epoch vector — the
// per-shard epochs all items of the batch were read at (one entry at 1x1).
// A route that never leaves its source's shard is that shard's cached
// segment; one that does is stitched: hops are adopted only after
// validation against the hopped-onto cell's owner, and authority switches
// at the first disagreement.
//
// Overload degrades gracefully at both edges instead of stalling: `submit`
// returns a typed `Overloaded` verdict when the owning queue is full; an
// optional in-flight cap returns `Overloaded` instead of queueing unbounded
// readers; batched queries carry a deadline that turns into typed per-item
// `Timeout` answers. `pause`/`resume` hold every worker (planned
// maintenance, deterministic overload tests); `flush` barriers until every
// accepted event is applied, published and gossiped to fixpoint;
// `wait_for_epoch` gives submitters read-your-writes on one shard.
//
// Chaos (src/chaos, disabled by default): an armed `FaultPlan` — shared, or
// one per shard via `shard_chaos` — injects failures at every seam: denials
// at admission, duplicate / deferred / stalled drain batches in the worker
// loop, poisoned oracle verdicts that withhold publications, and mid-batch
// kills that terminate a shard's worker after its engine crash-recovers to
// its last published snapshot. A killed shard keeps answering queries from
// its last good epoch (bounded staleness is exposed via
// `stale_epochs_pending`); `restart_shard` brings the writer back and
// replays the crash's requeued backlog to digest-identical convergence.
//
// `composite_digest` folds the per-shard snapshots into the exact digest a
// single writer's `Snapshot::label_digest()` produces over the same stream
// (shard.hpp, `composite_label_digest`). Digest equality at quiesce is the
// sharding correctness invariant the property tests pin.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "svc/shard.hpp"

namespace ocp::svc {

struct ServiceConfig {
  /// Shard grid (1x1 = the single writer). Clamped to the tile grid; more
  /// than 16 shards throw (see ShardGrid).
  std::int32_t shard_rows = 1;
  std::int32_t shard_cols = 1;
  /// Bounded MPSC admission queue per shard for fault/repair events.
  std::size_t queue_capacity = 1024;
  /// Max events drained into one ingest batch (burst coalescing window).
  std::size_t max_batch = 256;
  /// Query-front admission: maximum concurrently executing queries before
  /// `Overloaded` rejections. 0 = uncapped.
  std::size_t max_inflight_queries = 0;
  /// Start with every worker held (as if `pause()` ran before any event
  /// was drained); call `resume()` to begin applying.
  bool start_paused = false;
  /// Engine configuration shared by every shard. `chaos` applies to every
  /// shard unless overridden below; at more than one shard
  /// `collect_applied` is forced on (the dirty extent derives halo deltas).
  IngestConfig ingest;
  /// Per-shard chaos overrides, indexed by shard; shards beyond the vector
  /// use `ingest.chaos`. This is the per-shard kill/restart point: arm shard
  /// i's plan with publish stamps of shard i only.
  std::vector<chaos::ChaosConfig> shard_chaos;
};

/// Typed verdict of a query-front call.
enum class QueryStatus : std::uint8_t {
  Ok = 0,
  /// The in-flight cap was reached; the query was not executed.
  Overloaded = 1,
  /// The deadline expired before this (batch item / epoch wait) completed.
  Timeout = 2,
  /// The coordinates do not address machine nodes (or the shard index is
  /// out of range).
  InvalidArgument = 3,
};

[[nodiscard]] constexpr const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::Ok: return "ok";
    case QueryStatus::Overloaded: return "overloaded";
    case QueryStatus::Timeout: return "timeout";
    case QueryStatus::InvalidArgument: return "invalid-argument";
  }
  return "?";
}

/// Point answers carry the epoch of the shard that answered: the owner of
/// the queried node (a route's: the owner of its source).
struct StatusAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  NodeStatus node = NodeStatus::Enabled;
};

struct RegionAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  /// Index into the snapshot's disabled-region list, or -1 when enabled.
  std::int32_t region_id = -1;
  std::size_t region_size = 0;
  std::size_t fault_count = 0;
  std::size_t parent_block = 0;
};

struct RouteAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
  routing::Route route;
};

/// One item of a batched query.
enum class QueryKind : std::uint8_t { Status = 0, Region = 1, Route = 2 };

struct QueryItem {
  QueryKind kind = QueryKind::Status;
  mesh::Coord a;
  /// Route destination (Route items only).
  mesh::Coord b;
};

/// Compact per-item answer of a batch (routes are summarized; fetch the
/// full path with `query_route` when needed).
struct BatchItemAnswer {
  QueryStatus status = QueryStatus::Ok;
  NodeStatus node = NodeStatus::Enabled;
  std::int32_t region_id = -1;
  routing::RouteStatus route_status = routing::RouteStatus::Invalid;
  std::int32_t hops = 0;
};

/// One shard's contribution to a batch answer's consistency vector: the
/// epoch the batch read that shard at.
struct CompositeEpoch {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
};

struct BatchAnswer {
  QueryStatus status = QueryStatus::Ok;  // Ok, Overloaded, or Timeout
  /// Composite epoch vector, ascending shard order, only the shards the
  /// batch actually read (at 1x1: one entry once any item was answered).
  std::vector<CompositeEpoch> epochs;
  /// Items actually executed before any deadline expiry.
  std::size_t completed = 0;
  std::vector<BatchItemAnswer> items;
};

/// Aggregated fleet health for dashboards and tests.
struct ServiceStats {
  /// Serving epoch of every shard, in shard order.
  std::vector<std::uint64_t> shard_epochs;
  std::size_t queue_depth = 0;  // summed over shards
  std::uint64_t events_accepted = 0;
  std::uint64_t events_rejected = 0;
  std::uint64_t query_overloads = 0;
  /// `Overloaded` verdicts forced by the chaos plan (subset of rejected).
  std::uint64_t chaos_denied = 0;
  /// Bounded-staleness watermark: oracle-withheld publish attempts the
  /// stalest shard's serving epoch is currently behind by (0 = fresh).
  std::uint64_t stale_epochs_pending = 0;
  /// Shard reads answered from a stale (withheld-behind) epoch — the
  /// degraded mode in action: stale answers, never unavailability.
  std::uint64_t stale_queries_served = 0;
  /// Halo exchange volume: deltas delivered into inboxes and the synthetic
  /// events they expanded to — the coordination overhead of the sharding
  /// (always 0 at 1x1).
  std::uint64_t halo_deltas = 0;
  std::uint64_t halo_events = 0;
  /// Shards whose worker is down after a chaos kill.
  std::size_t shards_crashed = 0;
  IngestStats ingest;  // summed over shards
};

class Service {
 public:
  /// Labels `initial_faults` into every shard's epoch 0 and starts the
  /// workers (held when `config.start_paused`). Throws
  /// std::invalid_argument for a shape above 16 shards.
  explicit Service(grid::CellSet initial_faults, ServiceConfig config = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const ShardGrid& shard_grid() const noexcept { return grid_; }
  [[nodiscard]] std::uint32_t shard_of(mesh::Coord c) const noexcept {
    return grid_.shard_of(c);
  }

  // -- ingest edge ---------------------------------------------------------

  /// Admission-controlled submission to the owning shard's queue (any
  /// thread, non-blocking). Out-of-machine coordinates go to shard 0, whose
  /// engine counts them invalid — never fatal.
  SubmitStatus submit(FaultEvent event);

  /// Blocks until the fleet is quiescent: every queue drained, every halo
  /// inbox empty, no shard mid-apply, no publish-retry nudge unconsumed.
  /// Flush of a paused fleet with pending work resumes it (the barrier takes
  /// precedence over the hold). Returns early, with `shard_crashed`
  /// observable, when a shard's writer is down after a chaos kill;
  /// recovery is an explicit `restart_shard`, then flush again.
  void flush();

  /// Holds every worker after its in-flight batch (if any) completes.
  /// Events keep accumulating up to the queue bound, then reject.
  void pause();
  void resume();

  /// Blocks until shard `shard` serves an epoch >= `epoch` or the timeout
  /// expires. Returns `Timeout` (never hangs) when the epoch is withheld by
  /// the oracle gate or the shard's writer is down after a chaos kill.
  [[nodiscard]] QueryStatus wait_for_epoch(std::uint32_t shard,
                                           std::uint64_t epoch,
                                           std::chrono::milliseconds timeout);

  /// Nudges every worker to re-attempt a withheld publication without
  /// consuming events (the empty-batch retry path of `IngestEngine::apply`).
  /// No-op where nothing is pending; `flush()` afterwards barriers on the
  /// attempts having run.
  void retry_publish();

  /// True while shard `shard`'s writer is down after a chaos kill:
  /// submissions still enqueue (up to the bound) and queries keep answering
  /// from its last published epoch, but nothing drains until
  /// `restart_shard`.
  [[nodiscard]] bool shard_crashed(std::uint32_t shard) const;
  [[nodiscard]] bool any_shard_crashed() const;
  /// Restarts shard `shard`'s worker after a chaos kill; the crash's
  /// requeued backlog (already at its queue head) drains first, so the
  /// fleet converges to the state an uninterrupted run reaches. Returns
  /// false (and does nothing) when the shard is not crashed.
  bool restart_shard(std::uint32_t shard);

  /// Bounded-staleness watermark (see ServiceStats::stale_epochs_pending).
  [[nodiscard]] std::uint64_t stale_epochs_pending() const;

  // -- query front ---------------------------------------------------------

  [[nodiscard]] StatusAnswer query_status(mesh::Coord node) const;
  [[nodiscard]] RegionAnswer query_region(mesh::Coord node) const;
  [[nodiscard]] RouteAnswer query_route(mesh::Coord src, mesh::Coord dst) const;
  /// Executes all items against one pinned epoch per shard. A default
  /// (epoch) deadline means no deadline.
  [[nodiscard]] BatchAnswer query_batch(
      const std::vector<QueryItem>& items,
      std::chrono::steady_clock::time_point deadline = {}) const;

  /// Shard `shard`'s current snapshot: the zero-copy bulk-read path for the
  /// cells that shard owns. Hold it to answer any number of queries against
  /// one consistent epoch.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot(
      std::uint32_t shard) const;
  /// Owning snapshot handles of every shard, in shard order.
  [[nodiscard]] std::vector<std::shared_ptr<const Snapshot>> snapshots() const;
  /// The composite digest at the current instant; equals the single-writer
  /// `label_digest` of the same stream when called at quiesce.
  [[nodiscard]] std::uint64_t composite_digest() const;
  /// Faults in the served state, each cell read from its owning shard.
  [[nodiscard]] std::size_t fault_count() const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const IngestEngine& engine(std::uint32_t shard) const;

 private:
  struct ShardRuntime;
  class InflightGate;
  /// Per-query pin set: at most one acquire per shard per query, so the
  /// whole query reads consistent per-shard epochs and no pinned reference
  /// is retired mid-query (definition in the .cpp).
  struct ShardPinSet;

  void worker_loop(std::uint32_t shard);
  [[nodiscard]] bool admit_query() const;
  /// Shard `s`'s current snapshot through the calling thread's epoch handle
  /// (valid until this thread's next acquire of the same slot), counting
  /// the read when the shard serves a withheld-behind epoch.
  [[nodiscard]] const Snapshot& read(std::uint32_t s) const;
  /// The route from `src` to `dst` against pinned per-shard epochs: the
  /// source shard's cached segment when it never leaves that shard, else
  /// the stitched walk built in `stitched`.
  [[nodiscard]] const routing::Route& route(mesh::Coord src, mesh::Coord dst,
                                            ShardPinSet& pins,
                                            routing::Route& stitched) const;

  ServiceConfig config_;
  ShardGrid grid_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;

  /// One mutex for the fleet's control plane (queues' depth checks, halo
  /// inboxes, draining/crash/pause flags). Never on the query path.
  mutable std::mutex mu_;
  mutable std::condition_variable progress_;  // flush / wait_for_epoch
  bool paused_ = false;
  bool stopping_ = false;
  std::uint64_t halo_deltas_ = 0;  // guarded by mu_
  std::uint64_t halo_events_ = 0;  // guarded by mu_

  mutable std::atomic<std::int64_t> inflight_queries_{0};
  mutable std::atomic<std::uint64_t> query_overloads_{0};
  mutable std::atomic<std::uint64_t> stale_queries_served_{0};
};

}  // namespace ocp::svc
