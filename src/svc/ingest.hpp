// Single-writer ingest engine: fault/repair batches in, snapshots out.
//
// One writer owns a `labeling::MaintainedLabeling` and an RCU-style publish
// slot: a shared_ptr handle behind a shared_mutex whose critical sections
// are pointer-sized on both sides. (std::atomic<shared_ptr> would express
// the same thing, but libstdc++'s _Sp_atomic guards its pointer word with
// an embedded lock-bit protocol ThreadSanitizer cannot model, and its load
// path spins on that bit anyway — the shared_mutex form is equally cheap
// and tsan-clean.) Each `apply` call takes one drained batch, coalesces it
// against the current fault set (duplicate faults, repairs of healthy nodes
// and fault+repair pairs inside the batch collapse to nothing), applies the
// net adds/removes incrementally through `add_fault`/`remove_fault` while
// accumulating their dirty extents, and publishes exactly one new epoch —
// or none when the whole batch coalesced away. Publication is
// copy-on-write: the new snapshot is built with `Snapshot::next` against
// the previously published one, rebuilding exactly the serving pages that
// hold an accumulated dirty cell and carrying the warm route cache (see
// snapshot.hpp). Dirty extents accumulate across oracle-withheld epochs and
// reset only on a successful publish, so a later snapshot always diffs
// against the epoch actually being served.
//
// Readers have two acquisition paths. `snapshot()` copies the shared_ptr
// under the shared lock — safe, but every call bumps the snapshot refcount
// and takes the lock, both of which ping-pong cache lines between query
// threads. `acquire()` is the contention-free fast path: each thread caches
// a per-engine epoch handle (a shared_ptr slot in thread-local storage)
// keyed by the engine's publish stamp; while the stamp is unchanged — the
// overwhelmingly common case — acquisition is one atomic load and no shared
// writes at all. When the stamp moves, the thread re-reads the slot under
// the shared lock and retires its previous handle (epoch-based retirement:
// an idle thread holds at most one superseded epoch per engine slot until
// its next acquire or thread exit). Readers never block writers and vice
// versa.
//
// The engine is deliberately thread-free: the `Service` wraps it with the
// bounded queue and the ingest thread, while tests and the deterministic
// load generator drive `apply` directly for reproducible epoch sequences.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>

#include "chaos/plan.hpp"
#include "grid/tiles.hpp"
#include "obs/trace.hpp"
#include "svc/event_queue.hpp"
#include "svc/snapshot.hpp"

namespace ocp::svc {

struct IngestConfig {
  labeling::SafeUnsafeDef definition = labeling::SafeUnsafeDef::Def2b;
  /// Wall-following hand of the per-snapshot router.
  routing::Hand hand = routing::Hand::Right;
  /// Gate every publication through the invariant oracle: a snapshot that
  /// violates any selected check is withheld (the previous epoch keeps
  /// serving) and the violation is retained for inspection. An engine-bug
  /// tripwire, not a recovery mechanism — the maintained labeling itself is
  /// not rolled back.
  bool validate = false;
  std::uint32_t oracle_checks = check::kAllChecks;
  /// Observability: the batch, publish and oracle-gate spans. The
  /// engine's counters are `IngestEngine::stats()`, traced or not.
  obs::TraceConfig trace;
  /// Deterministic fault injection (disabled by default): oracle poisoning,
  /// mid-batch kills, and — read by the owning `Service` — admission
  /// denial and drained-batch scheduling faults. One plan serves the whole
  /// runtime so its decision streams compose into one chaos schedule.
  chaos::ChaosConfig chaos;
  /// Have `apply` report the applied net events and their combined dirty
  /// extent in the `BatchOutcome` (off by default: the single-writer service
  /// never reads them, and the extent vector is an extra allocation per
  /// batch). The sharded runtime turns this on — the dirty extent is what a
  /// shard inspects to decide which halo deltas to emit.
  bool collect_applied = false;
  /// Epoch hook: called on the writer thread immediately after every
  /// successful publication (never for the constructor's epoch-0 build)
  /// with the new serving snapshot and the dirty cells accumulated since
  /// the previously published epoch — including cells from oracle-withheld
  /// attempts in between, so a consumer deriving incremental state (the
  /// allocation layer) always diffs against what it last saw. Cells may
  /// repeat; consumers dedupe. The hook runs inside `apply`, so it must not
  /// re-enter the engine.
  std::function<void(const Snapshot&, std::span<const mesh::Coord>)>
      on_publish;
};

/// What one `apply` call did.
struct BatchOutcome {
  /// Net fault-set changes applied (adds + removes).
  std::size_t applied = 0;
  /// Events absorbed by coalescing (duplicates, no-op repairs, intra-batch
  /// fault+repair cancellations, out-of-machine addresses).
  std::size_t coalesced = 0;
  /// Events naming coordinates outside the machine (counted within
  /// `coalesced` as well; never fatal).
  std::size_t invalid = 0;
  /// True when a new epoch was published.
  bool published = false;
  /// Epoch of the serving snapshot after the call.
  std::uint64_t epoch = 0;
  /// True when a chaos kill fired mid-batch: the engine crashed and
  /// recovered itself from the last published snapshot, discarding every
  /// applied-but-unpublished change. `requeue` then holds the events that
  /// must be replayed (the WAL the crash did not lose): the unpublished
  /// backlog in application order. The caller owns requeuing them — and the
  /// interrupted batch after them — before restarting the ingest thread.
  bool crashed = false;
  std::vector<FaultEvent> requeue;
  /// Only when `IngestConfig::collect_applied` is set: the net events this
  /// call applied (in application order) and the union of their dirty
  /// extents — every cell whose served label may have changed. May contain
  /// duplicate cells across events; consumers dedupe.
  std::vector<FaultEvent> applied_events;
  std::vector<mesh::Coord> dirty_cells;
};

/// Monotone counters over the engine's lifetime.
struct IngestStats {
  std::uint64_t batches = 0;
  std::uint64_t events = 0;
  std::uint64_t applied = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t invalid = 0;
  std::uint64_t epochs_published = 0;
  /// Publications withheld by the oracle gate (genuine violations and
  /// chaos-poisoned verdicts alike).
  std::uint64_t oracle_rejects = 0;
  /// Mid-batch chaos kills the engine crash-recovered from.
  std::uint64_t crashes = 0;
  /// Sums over the published epochs: each snapshot's `page_stats()` and
  /// `cache_carry_stats()`, and the dirty cells it covered (withheld
  /// attempts included, counted once at the publish that lands them).
  std::uint64_t pages_copied = 0;
  std::uint64_t pages_shared = 0;
  std::uint64_t routes_carried = 0;
  std::uint64_t routes_invalidated = 0;
  std::uint64_t dirty_cells = 0;

  IngestStats& operator+=(const IngestStats& o) noexcept {
    batches += o.batches;
    events += o.events;
    applied += o.applied;
    coalesced += o.coalesced;
    invalid += o.invalid;
    epochs_published += o.epochs_published;
    oracle_rejects += o.oracle_rejects;
    crashes += o.crashes;
    pages_copied += o.pages_copied;
    pages_shared += o.pages_shared;
    routes_carried += o.routes_carried;
    routes_invalidated += o.routes_invalidated;
    dirty_cells += o.dirty_cells;
    return *this;
  }
};

class IngestEngine {
 public:
  /// Labels `initial_faults` and publishes it as epoch 0.
  explicit IngestEngine(grid::CellSet initial_faults, IngestConfig config = {});

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Applies one drained batch; single-writer (never call concurrently).
  /// An empty batch is the publish-retry path: when earlier epochs were
  /// withheld (pending dirty extents are armed), it re-attempts publication
  /// of the current labeling without consuming any events.
  BatchOutcome apply(std::span<const FaultEvent> batch);

  /// Chaos/test hook: crash the engine as a mid-batch kill would — rebuild
  /// the labeling from the last PUBLISHED snapshot (all in-memory progress
  /// beyond it is lost), disarm the pending dirty extents, and return the
  /// unpublished event backlog the caller must replay to converge back to
  /// the pre-crash fault set. Single-writer, like `apply`.
  [[nodiscard]] std::vector<FaultEvent> crash_and_recover();

  /// Bounded-staleness watermark: publish attempts withheld by the oracle
  /// gate since the last successful publication — how many epochs behind
  /// the net fault set the serving snapshot currently is. 0 in the healthy
  /// steady state; readable from any thread.
  [[nodiscard]] std::uint64_t stale_epochs_pending() const {
    return withheld_since_publish_.load(std::memory_order_relaxed);
  }

  /// The currently serving snapshot (safe from any thread; the shared lock
  /// is held only for the handle copy). Prefer `acquire()` on query hot
  /// paths; use this when the handle must outlive the calling frame.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
    std::shared_lock lock(publish_mu_);
    return published_;
  }

  /// Contention-free acquisition of the currently serving snapshot via a
  /// thread-local epoch handle: one atomic load when the thread has already
  /// seen the current publish stamp, the `snapshot()` slow path otherwise.
  /// The returned reference is valid until the calling thread's next
  /// `acquire()` that observes a newer epoch (or thread exit) — answer the
  /// current query against it, do not stash it; callers that need an
  /// owning handle use `snapshot()`.
  [[nodiscard]] const Snapshot& acquire() const;

  /// The maintained labeling the engine applies events to. Single-writer
  /// like `apply`: only the thread driving the engine may read it, and only
  /// between `apply` calls — queries go through snapshots. The sharded
  /// runtime reads it to version-stamp halo deltas against the live fault
  /// set rather than the (possibly withheld) published one.
  [[nodiscard]] const labeling::MaintainedLabeling& labeling() const noexcept {
    return labeling_;
  }

  /// Counter snapshot; safe to call from any thread while the writer runs.
  [[nodiscard]] IngestStats stats() const;
  /// The violation report of the most recent withheld publication, if any.
  [[nodiscard]] std::optional<check::ViolationReport> last_violation() const;
  [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

 private:
  void publish(std::shared_ptr<const Snapshot> next);

  IngestConfig config_;
  /// Events applied to `labeling_` but not yet covered by a successful
  /// publication, in application order (net events of withheld epochs plus
  /// the in-flight batch's applied prefix). Cleared on publish; returned by
  /// `crash_and_recover` so a crash never silently drops accepted events.
  std::vector<FaultEvent> unpublished_;
  /// Dirty cells of `unpublished_` in application order, kept only when the
  /// `on_publish` hook is set (its delta argument); cleared on publish and
  /// on crash recovery.
  std::vector<mesh::Coord> unpublished_dirty_cells_;
  /// Withheld publish attempts since the last successful publication
  /// (the staleness watermark queries and dashboards read).
  std::atomic<std::uint64_t> withheld_since_publish_{0};
  labeling::MaintainedLabeling labeling_;
  /// Page and tile decomposition the dirty accumulation below uses.
  grid::TileGrid tiles_;
  /// Distinguishes engines in the thread-local acquire slots; monotonically
  /// assigned so a slot can never alias a destroyed engine's cache.
  const std::uint64_t engine_id_;
  std::uint64_t epoch_ = 0;
  /// Writer-local handle to the snapshot currently serving — the `prev` of
  /// the next copy-on-write publication.
  std::shared_ptr<const Snapshot> latest_;
  /// Dirty accumulation since `latest_` (across oracle-withheld epochs):
  /// the pages holding a changed cell (the pages the next snapshot
  /// rebuilds), the tiles of those cells' padded neighborhoods (for
  /// route-cache invalidation), and the summed dirty-cell count
  /// (observability).
  grid::PageSet pending_dirty_pages_;
  std::uint64_t pending_padded_tiles_ = 0;
  std::uint64_t pending_dirty_cells_ = 0;
  /// Guards only the publish slot; both critical sections are pointer-sized.
  mutable std::shared_mutex publish_mu_;
  std::shared_ptr<const Snapshot> published_;
  /// Bumped (under the exclusive lock) at every publish; the thread-local
  /// fast path of `acquire()` revalidates its cached handle against this.
  std::atomic<std::uint64_t> stamp_{0};
  /// Guards the cross-thread-readable bookkeeping (the labeling itself is
  /// single-writer and unguarded by design).
  mutable std::mutex stats_mu_;
  IngestStats stats_;
  std::optional<check::ViolationReport> last_violation_;
};

}  // namespace ocp::svc
