#include "svc/service.hpp"

#include <utility>

namespace ocp::svc {

/// RAII admission token for the query front: one increment per executing
/// query; rejected entries never hold the slot.
class Service::InflightGate {
 public:
  explicit InflightGate(const Service& service)
      : service_(service), admitted_(service.admit_query()) {}
  ~InflightGate() {
    if (admitted_) {
      service_.inflight_queries_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  InflightGate(const InflightGate&) = delete;
  InflightGate& operator=(const InflightGate&) = delete;

  [[nodiscard]] bool admitted() const noexcept { return admitted_; }

 private:
  const Service& service_;
  bool admitted_;
};

Service::Service(grid::CellSet initial_faults, ServiceConfig config)
    : config_(config),
      queue_(config.queue_capacity, config.ingest.chaos),
      engine_(std::move(initial_faults), config.ingest),
      paused_(config.start_paused) {
  ingest_thread_ = std::thread([this] { ingest_loop(); });
}

Service::~Service() {
  // A chaos-killed writer still owes accepted events an application — bring
  // it back so shutdown drains the queue instead of dropping it.
  restart_ingest();
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  queue_.close();
  wake_.notify_all();
  progress_.notify_all();
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

void Service::ingest_loop() {
  const obs::TraceConfig& trace = config_.ingest.trace;
  const chaos::ChaosConfig& chaos = config_.ingest.chaos;
  // Crash epilogue for a mid-batch chaos kill: the engine already recovered
  // itself to the last published snapshot; put the events the crash did not
  // lose — the unpublished backlog, then the whole interrupted batch — back
  // at the queue head (replaying an applied prefix is harmless: events are
  // state-setting) and let the thread die. `restart_ingest` resurrects it.
  const auto apply_batch = [&](const std::vector<FaultEvent>& b) -> bool {
    BatchOutcome outcome = engine_.apply(b);
    if (!outcome.crashed) return true;
    std::vector<FaultEvent> replay = std::move(outcome.requeue);
    replay.insert(replay.end(), b.begin(), b.end());
    queue_.requeue_front(std::move(replay));
    {
      std::lock_guard lock(mu_);
      crashed_ = true;
      draining_ = false;
    }
    trace.counter("svc.ingest_thread_kills", 1);
    progress_.notify_all();
    return false;
  };
  for (;;) {
    std::vector<FaultEvent> batch;
    bool nudge = false;
    bool stop_seen = false;
    {
      std::unique_lock lock(mu_);
      // Shutdown overrides pause: accepted events are applied, not dropped.
      wake_.wait(lock, [this] {
        return stopping_ || (!paused_ && (queue_.depth() > 0 ||
                                          !deferred_.empty() ||
                                          retry_publish_));
      });
      if (queue_.depth() == 0 && deferred_.empty() && stopping_) break;
      stop_seen = stopping_;
      if (stopping_ || !paused_) {
        nudge = std::exchange(retry_publish_, false);
        // A previously deferred batch drains first, ahead of anything
        // submitted since — FIFO application order is preserved; only the
        // batch boundary (and thus the epoch boundary) moved.
        batch = std::move(deferred_);
        deferred_.clear();
        std::vector<FaultEvent> drained = queue_.try_drain(config_.max_batch);
        batch.insert(batch.end(), drained.begin(), drained.end());
        draining_ = !batch.empty() || nudge;
      }
    }
    chaos::BatchDecision decision;
    if (!batch.empty() && chaos.enabled()) decision = chaos.on_batch();
    if (decision.stall_us > 0) {
      // Mid-drain stall: the batch is out of the queue but not applied —
      // the window the flush barrier must not cross early (draining_ stays
      // set) while overload pressure builds at the admission edge.
      trace.counter("svc.chaos_stalls", 1);
      std::this_thread::sleep_for(std::chrono::microseconds(decision.stall_us));
    }
    if (decision.defer && !stop_seen) {
      trace.counter("svc.chaos_defers", 1);
      std::lock_guard lock(mu_);
      deferred_ = std::move(batch);
      draining_ = false;
      continue;
    }
    if (!batch.empty() || nudge) {
      trace.instant("svc.batch_drained",
                    static_cast<std::int64_t>(batch.size()));
      if (!apply_batch(batch)) return;  // killed; thread "process" dies here
      if (decision.duplicate) {
        // Replay the whole batch as an at-least-once delivery fault; every
        // event re-coalesces to nothing, so this must not change the
        // published state (the digest invariant chaos tests pin).
        trace.counter("svc.chaos_duplicates", 1);
        if (!apply_batch(batch)) return;
      }
      {
        std::lock_guard lock(mu_);
        draining_ = false;
      }
      progress_.notify_all();
    }
  }
}

SubmitStatus Service::submit(FaultEvent event) {
  const SubmitStatus status = queue_.push(event);
  if (status == SubmitStatus::Accepted) {
    // Briefly serialize against the waiter so the wakeup cannot be lost
    // between its predicate check and its wait.
    { std::lock_guard lock(mu_); }
    wake_.notify_one();
  } else {
    config_.ingest.trace.counter("svc.submit_rejects", 1);
  }
  config_.ingest.trace.instant("svc.queue_depth",
                               static_cast<std::int64_t>(queue_.depth()));
  return status;
}

void Service::flush() {
  {
    std::lock_guard lock(mu_);
    // Flushing a paused service with pending events would deadlock; the
    // barrier takes precedence over the hold.
    if (paused_ &&
        (queue_.depth() > 0 || !deferred_.empty() || retry_publish_)) {
      paused_ = false;
    }
  }
  wake_.notify_all();
  std::unique_lock lock(mu_);
  progress_.wait(lock, [this] {
    // A dead writer cannot barrier: when a chaos kill takes the ingest
    // thread down (before or during the wait), flush returns — with
    // ingest_crashed() observable — instead of hanging on events nothing
    // will apply. Recovery is the caller's explicit restart_ingest().
    // An unconsumed retry_publish() nudge also holds the barrier: flush
    // after a nudge means the publish re-attempt has actually run.
    return stopping_ || crashed_ ||
           (queue_.depth() == 0 && deferred_.empty() && !draining_ &&
            !retry_publish_);
  });
}

void Service::pause() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  wake_.notify_all();
}

QueryStatus Service::wait_for_epoch(std::uint64_t epoch,
                                    std::chrono::milliseconds timeout) {
  // wait_for re-evaluates the predicate at the deadline regardless of
  // notifications, so a never-arriving epoch — withheld by the oracle gate,
  // or owed by a killed ingest thread — degrades to a typed Timeout instead
  // of a hang (pinned by the chaos regression tests).
  std::unique_lock lock(mu_);
  const bool reached = progress_.wait_for(lock, timeout, [this, epoch] {
    return engine_.snapshot()->epoch() >= epoch;
  });
  return reached ? QueryStatus::Ok : QueryStatus::Timeout;
}

void Service::retry_publish() {
  {
    std::lock_guard lock(mu_);
    retry_publish_ = true;
  }
  wake_.notify_all();
}

bool Service::ingest_crashed() const {
  std::lock_guard lock(mu_);
  return crashed_;
}

bool Service::restart_ingest() {
  std::thread dead;
  {
    std::lock_guard lock(mu_);
    if (!crashed_) return false;
    crashed_ = false;
    // The new thread blocks on mu_ until this scope releases it; the dead
    // one already left the loop (it set crashed_ as its last locked act).
    dead = std::move(ingest_thread_);
    ingest_thread_ = std::thread([this] { ingest_loop(); });
  }
  if (dead.joinable()) dead.join();
  config_.ingest.trace.counter("svc.ingest_restarts", 1);
  return true;
}

void Service::note_staleness() const {
  // One relaxed load on the hot path; the counters move only while the
  // oracle gate is actually withholding (degraded mode), never in steady
  // state.
  if (engine_.stale_epochs_pending() == 0) return;
  stale_queries_served_.fetch_add(1, std::memory_order_relaxed);
  config_.ingest.trace.counter("svc.stale_epochs_served", 1);
}

bool Service::admit_query() const {
  const std::size_t cap = config_.max_inflight_queries;
  const std::int64_t running =
      inflight_queries_.fetch_add(1, std::memory_order_relaxed);
  if (cap != 0 && running >= static_cast<std::int64_t>(cap)) {
    inflight_queries_.fetch_sub(1, std::memory_order_relaxed);
    query_overloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

StatusAnswer Service::query_status(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  // Contention-free acquisition: the reference is pinned by this thread's
  // epoch handle for the duration of the query (see IngestEngine::acquire).
  const Snapshot& snap = engine_.acquire();
  note_staleness();
  if (!snap.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = snap.epoch()};
  }
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .node = snap.status_of(node)};
}

RegionAnswer Service::query_region(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  const Snapshot& snap = engine_.acquire();
  note_staleness();
  if (!snap.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = snap.epoch()};
  }
  const RegionSummary region = snap.region_summary(node);
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .region_id = region.id,
          .region_size = region.size,
          .fault_count = region.fault_count,
          .parent_block = region.parent_block};
}

RouteAnswer Service::query_route(mesh::Coord src, mesh::Coord dst) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  const Snapshot& snap = engine_.acquire();
  note_staleness();
  if (!snap.machine().contains(src) || !snap.machine().contains(dst)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = snap.epoch()};
  }
  const obs::TraceConfig& trace = config_.ingest.trace;
  if (!trace.rounds()) {
    return {.status = QueryStatus::Ok,
            .epoch = snap.epoch(),
            .route = snap.route(src, dst)};
  }
  // Contention attribution (round-level tracing only): how many reader-lock
  // acquisitions this query's window saw on the epoch's route cache —
  // concurrent route queries against the same epoch share that lock, so the
  // instant stream exposes exactly the shared state a flat qps curve hides.
  const std::uint64_t before = snap.route_cache().shared_lock_acquisitions();
  RouteAnswer answer{.status = QueryStatus::Ok,
                     .epoch = snap.epoch(),
                     .route = snap.route(src, dst)};
  trace.instant(
      "svc.query.cache_lock_touches",
      static_cast<std::int64_t>(snap.route_cache().shared_lock_acquisitions() -
                                before));
  return answer;
}

BatchAnswer Service::query_batch(
    const std::vector<QueryItem>& items,
    std::chrono::steady_clock::time_point deadline) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  // One snapshot acquisition for the whole batch: every item is answered
  // against the same epoch. The thread's epoch handle pins the reference
  // across the loop (no further acquire happens on this thread meanwhile).
  const Snapshot& snapshot = engine_.acquire();
  note_staleness();
  const Snapshot* snap = &snapshot;
  BatchAnswer answer{.status = QueryStatus::Ok, .epoch = snap->epoch()};
  answer.items.resize(items.size());
  const bool has_deadline = deadline != std::chrono::steady_clock::time_point{};
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      // Typed partial result: executed items stand, the rest time out.
      for (std::size_t j = i; j < items.size(); ++j) {
        answer.items[j].status = QueryStatus::Timeout;
      }
      answer.status = QueryStatus::Timeout;
      break;
    }
    const QueryItem& item = items[i];
    BatchItemAnswer& out = answer.items[i];
    if (!snap->machine().contains(item.a) ||
        (item.kind == QueryKind::Route && !snap->machine().contains(item.b))) {
      out.status = QueryStatus::InvalidArgument;
      ++answer.completed;
      continue;
    }
    switch (item.kind) {
      case QueryKind::Status:
        out.node = snap->status_of(item.a);
        break;
      case QueryKind::Region:
        out.node = snap->status_of(item.a);
        out.region_id = snap->region_id_of(item.a);
        break;
      case QueryKind::Route: {
        const routing::Route& route = snap->route(item.a, item.b);
        out.route_status = route.status;
        out.hops = route.hops();
        break;
      }
    }
    ++answer.completed;
  }
  return answer;
}

ServiceStats Service::stats() const {
  return {.epoch = engine_.snapshot()->epoch(),
          .queue_depth = queue_.depth(),
          .events_accepted = queue_.accepted(),
          .events_rejected = queue_.rejected(),
          .query_overloads = query_overloads_.load(std::memory_order_relaxed),
          .chaos_denied = queue_.chaos_denied(),
          .stale_epochs_pending = engine_.stale_epochs_pending(),
          .stale_queries_served =
              stale_queries_served_.load(std::memory_order_relaxed),
          .ingest_crashed = ingest_crashed(),
          .ingest = engine_.stats()};
}

}  // namespace ocp::svc
