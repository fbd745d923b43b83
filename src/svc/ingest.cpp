#include "svc/ingest.hpp"

#include <array>
#include <utility>
#include <vector>

namespace ocp::svc {

namespace {

std::uint64_t next_engine_id() {
  // Starts at 1 so a zero-initialized thread-local slot never matches.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One thread-local epoch handle: the snapshot this thread last acquired
/// from engine `engine`, valid while the engine's publish stamp is still
/// `stamp`. The shared_ptr is the retirement mechanism — superseded epochs
/// die when the last thread re-acquires (or exits).
struct AcquireSlot {
  std::uint64_t engine = 0;
  std::uint64_t stamp = 0;
  std::shared_ptr<const Snapshot> snap;
};

}  // namespace

IngestEngine::IngestEngine(grid::CellSet initial_faults, IngestConfig config)
    : config_(config),
      labeling_(std::move(initial_faults), config.definition),
      tiles_(labeling_.faults().topology()),
      engine_id_(next_engine_id()),
      pending_dirty_pages_(tiles_.page_count()) {
  latest_ = Snapshot::build(epoch_, labeling_, config_.hand);
  publish(latest_);
}

const Snapshot& IngestEngine::acquire() const {
  // 16 slots so every engine of one sharded runtime (consecutive ids,
  // shard grids are clamped to 16 shards) maps to a distinct slot: a
  // scatter-gather batch holds references into several shards' epochs at
  // once, and a slot collision mid-batch would retire a reference the
  // caller still dereferences.
  thread_local std::array<AcquireSlot, 16> slots;
  AcquireSlot& slot = slots[engine_id_ % slots.size()];
  const std::uint64_t stamp = stamp_.load(std::memory_order_acquire);
  if (slot.engine == engine_id_ && slot.stamp == stamp) {
    // Fast path: this thread already holds the current epoch. One atomic
    // load, no refcount traffic, no lock — the case every query after the
    // first takes until the next publish.
    config_.trace.counter("svc.acquire_fast", 1);
    return *slot.snap;
  }
  // Slow path: a shared-state touch (lock + refcount) the closed-loop
  // scaling diagnosis wants attributed — one per thread per publish in the
  // healthy steady state, one per query if something defeats the cache.
  config_.trace.counter("svc.acquire_slow", 1);
  std::shared_ptr<const Snapshot> snap;
  std::uint64_t observed;
  {
    std::shared_lock lock(publish_mu_);
    snap = published_;
    // Re-read under the lock so (stamp, snapshot) is a consistent pair; a
    // publish between the load above and here would otherwise let the slot
    // cache a newer snapshot under an older stamp.
    observed = stamp_.load(std::memory_order_relaxed);
  }
  slot.engine = engine_id_;
  slot.stamp = observed;
  slot.snap = std::move(snap);  // retires this thread's previous epoch
  return *slot.snap;
}

BatchOutcome IngestEngine::apply(std::span<const FaultEvent> batch) {
  obs::Span span(config_.trace, "svc.ingest.batch");
  BatchOutcome outcome;
  outcome.epoch = epoch_;

  // Coalesce: fold the batch into the net fault-set delta. `desired` tracks
  // the would-be health of every touched node after the events seen so far,
  // so duplicate faults, repairs of healthy nodes, and fault+repair pairs
  // inside one batch all collapse before any relabeling work happens.
  const mesh::Mesh2D& m = labeling_.faults().topology();
  std::vector<std::pair<mesh::Coord, bool>> desired;  // (node, faulty)
  const auto find = [&desired](mesh::Coord c) -> bool* {
    for (auto& [node, faulty] : desired) {
      if (node == c) return &faulty;
    }
    return nullptr;
  };
  for (const FaultEvent& event : batch) {
    if (!m.contains(event.node)) {
      ++outcome.invalid;
      continue;
    }
    const bool want_faulty = event.kind == EventKind::Fault;
    if (bool* pending = find(event.node)) {
      *pending = want_faulty;
    } else if (labeling_.faults().contains(event.node) != want_faulty) {
      desired.emplace_back(event.node, want_faulty);
    }
    // else: already in the desired state and untouched this batch — drop.
  }

  // A chaos kill scheduled for the epoch this apply would publish: fires
  // true and performs the crash (recover to the last published snapshot,
  // hand back the unpublished backlog) exactly once per armed stamp.
  const auto chaos_kill = [&]() -> bool {
    if (!config_.chaos.enabled() || !config_.chaos.kill_now(epoch_ + 1)) {
      return false;
    }
    outcome.crashed = true;
    outcome.requeue = crash_and_recover();
    outcome.applied = 0;
    outcome.coalesced = 0;
    outcome.epoch = epoch_;
    config_.trace.counter("svc.ingest_crashes", 1);
    std::lock_guard lock(stats_mu_);
    ++stats_.batches;
    ++stats_.crashes;
    stats_.events += batch.size();
    return true;
  };

  // Apply the net delta in first-touched order (deterministic; the final
  // labeling depends only on the final fault set), folding each event's
  // dirty extent into the pending dirty pages and route-invalidation mask.
  // A chaos kill scheduled for the epoch this batch would publish fires
  // here — mid-batch, before the rest of the delta mutates the labeling —
  // so crash recovery is exercised against genuinely partial in-memory
  // state.
  for (const auto& [node, want_faulty] : desired) {
    if (labeling_.faults().contains(node) == want_faulty) {
      continue;  // an intra-batch fault+repair pair cancelled out
    }
    if (chaos_kill()) return outcome;
    const labeling::EventDelta delta = want_faulty
                                           ? labeling_.add_fault(node)
                                           : labeling_.remove_fault(node);
    for (const mesh::Coord c : delta.dirty_cells) {
      pending_dirty_pages_.insert(tiles_.page_of(c));
      pending_padded_tiles_ |= tiles_.padded_bits(c);
    }
    pending_dirty_cells_ += delta.dirty_cells.size();
    const FaultEvent applied{want_faulty ? EventKind::Fault : EventKind::Repair,
                             node};
    unpublished_.push_back(applied);
    if (config_.on_publish) {
      unpublished_dirty_cells_.insert(unpublished_dirty_cells_.end(),
                                      delta.dirty_cells.begin(),
                                      delta.dirty_cells.end());
    }
    if (config_.collect_applied) {
      outcome.applied_events.push_back(applied);
      outcome.dirty_cells.insert(outcome.dirty_cells.end(),
                                 delta.dirty_cells.begin(),
                                 delta.dirty_cells.end());
    }
    ++outcome.applied;
  }
  outcome.coalesced = batch.size() - outcome.applied;
  config_.trace.counter("svc.events_applied",
                        static_cast<std::int64_t>(outcome.applied));
  config_.trace.counter("svc.events_coalesced",
                        static_cast<std::int64_t>(outcome.coalesced));

  bool rejected = false;
  std::optional<check::ViolationReport> violation;
  // `applied > 0` is the normal publish; `pending_dirty_cells_ > 0` with an
  // empty net delta is the retry path — earlier epochs were withheld and a
  // (possibly empty) later batch re-attempts publication of the labeling
  // the serving snapshot is still behind on.
  if (outcome.applied > 0 || pending_dirty_cells_ > 0) {
    // The retry path (applied == 0) never ran the per-event kill check, yet
    // it is about to publish epoch_ + 1 — consult the stamp here too, or a
    // kill armed for this epoch would be skipped forever once the epoch
    // counter moves past it.
    if (outcome.applied == 0 && chaos_kill()) return outcome;
    obs::Span publish_span(config_.trace, "svc.publish");
    // Copy-on-write against the epoch actually serving: the pending pages
    // and mask cover every change since `latest_`, including changes from
    // batches the oracle withheld.
    auto next = Snapshot::next(*latest_, epoch_ + 1, labeling_,
                               pending_dirty_pages_, pending_padded_tiles_);
    if (config_.chaos.enabled() && config_.chaos.poison_publish()) {
      // Chaos: the oracle "finds" a violation in a perfectly good snapshot.
      // Exercises the withholding path — bounded staleness, armed pending
      // dirt, eventual retry — without a real engine bug to provoke it.
      rejected = true;
      violation = check::ViolationReport{};
      violation->violations.push_back(
          {check::kChaosPoisoned, "chaos plan poisoned the oracle verdict"});
      config_.trace.counter("svc.oracle_rejects", 1);
    }
    if (!rejected && config_.validate) {
      obs::Span gate_span(config_.trace, "svc.oracle_gate");
      auto report = next->validate(config_.definition, config_.oracle_checks);
      if (!report.ok()) {
        // Tripwire: withhold the bad epoch, keep serving the previous one.
        // The pending dirty pages and mask stay armed for the next attempt.
        rejected = true;
        violation = std::move(report);
        config_.trace.counter("svc.oracle_rejects", 1);
      }
    }
    if (rejected) {
      withheld_since_publish_.fetch_add(1, std::memory_order_relaxed);
      config_.trace.counter("svc.epochs_withheld", 1);
    } else {
      ++epoch_;
      config_.trace.counter(
          "svc.pages_copied",
          static_cast<std::int64_t>(next->page_stats().copied));
      config_.trace.counter(
          "svc.pages_shared",
          static_cast<std::int64_t>(next->page_stats().shared));
      config_.trace.counter(
          "svc.cache_routes_carried",
          static_cast<std::int64_t>(next->cache_carry_stats().carried));
      config_.trace.counter(
          "svc.cache_routes_invalidated",
          static_cast<std::int64_t>(next->cache_carry_stats().invalidated));
      config_.trace.counter(
          "svc.dirty_cells", static_cast<std::int64_t>(pending_dirty_cells_));
      pending_dirty_pages_.clear();
      pending_padded_tiles_ = 0;
      pending_dirty_cells_ = 0;
      unpublished_.clear();
      withheld_since_publish_.store(0, std::memory_order_relaxed);
      latest_ = next;
      publish(std::move(next));
      config_.trace.counter("svc.epochs_published", 1);
      outcome.published = true;
      outcome.epoch = epoch_;
      if (config_.on_publish) {
        // Writer-thread epoch hook: the new serving snapshot plus every
        // dirty cell since the previously published epoch (withheld
        // attempts included).
        config_.on_publish(*latest_, unpublished_dirty_cells_);
        unpublished_dirty_cells_.clear();
      }
    }
  }

  {
    std::lock_guard lock(stats_mu_);
    ++stats_.batches;
    stats_.events += batch.size();
    stats_.applied += outcome.applied;
    stats_.coalesced += outcome.coalesced;
    stats_.invalid += outcome.invalid;
    if (outcome.published) ++stats_.epochs_published;
    if (rejected) {
      ++stats_.oracle_rejects;
      last_violation_ = std::move(violation);
    }
  }
  return outcome;
}

std::vector<FaultEvent> IngestEngine::crash_and_recover() {
  // The crash loses everything not published: rebuild the labeling from the
  // last published snapshot's fault set (full rebuild and incremental
  // maintenance are bit-identical — the engine-equivalence invariant the
  // fuzzer pins), and disarm the pending dirt that described the now
  // discarded progress. The unpublished backlog is the WAL the crash did
  // NOT lose: its events are state-setting (fault = make-faulty, repair =
  // make-healthy), so the caller replaying them — possibly on top of a
  // prefix already re-applied here — converges to the pre-crash fault set.
  labeling_ =
      labeling::MaintainedLabeling(latest_->faults(), config_.definition);
  pending_dirty_pages_.clear();
  pending_padded_tiles_ = 0;
  pending_dirty_cells_ = 0;
  unpublished_dirty_cells_.clear();
  withheld_since_publish_.store(0, std::memory_order_relaxed);
  return std::exchange(unpublished_, {});
}

IngestStats IngestEngine::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

std::optional<check::ViolationReport> IngestEngine::last_violation() const {
  std::lock_guard lock(stats_mu_);
  return last_violation_;
}

void IngestEngine::publish(std::shared_ptr<const Snapshot> next) {
  // Swap under the exclusive lock, destroy the superseded handle outside it
  // (the last reader of an old epoch frees it via the refcount, never here).
  std::shared_ptr<const Snapshot> retired;
  {
    std::unique_lock lock(publish_mu_);
    retired = std::exchange(published_, std::move(next));
    // The stamp moves while the lock is still held, so a reader that sees
    // the new stamp under the shared lock is guaranteed to also see the new
    // snapshot (and the fast path can trust a matching stamp).
    stamp_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace ocp::svc
