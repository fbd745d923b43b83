#include "svc/service.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <thread>
#include <utility>

namespace ocp::svc {

/// RAII admission token for the query front: one fleet-wide increment per
/// executing query under a cap (uncapped fronts count nothing); rejected
/// entries never hold the slot.
class Service::InflightGate {
 public:
  explicit InflightGate(const Service& service)
      : service_(service), admitted_(service.admit_query()) {}
  ~InflightGate() {
    if (admitted_ && service_.config_.max_inflight_queries != 0) {
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

struct Service::ShardRuntime {
  ShardRuntime(std::uint32_t index, const ShardGrid& grid,
               grid::CellSet initial, const IngestConfig& config,
               std::size_t capacity)
      : queue(capacity, config.chaos),
        shard(index, grid, std::move(initial), config) {}

  /// Work the worker has yet to apply; guarded by the service mutex.
  [[nodiscard]] bool pending() const {
    return queue.depth() > 0 || !inbox.empty() || !deferred.empty();
  }

  EventQueue queue;
  Shard shard;
  /// Wakes this shard's worker; waited on under the service mutex.
  std::condition_variable wake;
  /// Halo deltas awaiting this shard's next batch; guarded by the service
  /// mutex, like everything below.
  std::vector<HaloDelta> inbox;
  /// A chaos-deferred drain batch, re-drained (ahead of new events) on the
  /// next loop iteration. Part of the flush barrier's "accepted but not yet
  /// applied" accounting.
  std::vector<FaultEvent> deferred;
  /// True between a drain and the corresponding apply completing — the
  /// window the flush barrier must not cross.
  bool draining = false;
  /// Worker terminated by a chaos kill; restart_shard clears it.
  bool crashed = false;
  /// One-shot publish-retry nudge consumed by the next loop iteration.
  bool retry_publish = false;
  std::thread worker;
};

/// Per-call pin set: at most one `read` per shard per query, so every read
/// of a shard inside one query sees one epoch AND no pinned reference can
/// be retired by a later same-shard acquire observing a fresh publish
/// (acquire retires the thread's previous handle — see ingest.hpp).
struct Service::ShardPinSet {
  const Service& svc;
  /// Bit s set = `pinned[s]` holds shard s's pinned epoch (the slots are
  /// left uninitialized until then).
  std::uint32_t mask = 0;
  std::array<const Snapshot*, kMaxShards> pinned;

  explicit ShardPinSet(const Service& s) : svc(s) {}

  const Snapshot& get(std::uint32_t shard) {
    if ((mask >> shard & 1u) == 0) {
      pinned[shard] = &svc.read(shard);
      mask |= 1u << shard;
    }
    return *pinned[shard];
  }
};

Service::Service(grid::CellSet initial_faults, ServiceConfig config)
    : config_(std::move(config)),
      grid_(initial_faults.topology(), config_.shard_rows, config_.shard_cols),
      paused_(config_.start_paused) {
  shards_.reserve(grid_.count());
  for (std::uint32_t i = 0; i < grid_.count(); ++i) {
    IngestConfig ingest = config_.ingest;
    if (i < config_.shard_chaos.size()) ingest.chaos = config_.shard_chaos[i];
    shards_.push_back(std::make_unique<ShardRuntime>(
        i, grid_, initial_faults, ingest, config_.queue_capacity));
  }
  for (std::uint32_t i = 0; i < grid_.count(); ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

Service::~Service() {
  // Dead writers still owe accepted events an application — bring them
  // back so shutdown drains the queues instead of dropping them.
  for (std::uint32_t i = 0; i < grid_.count(); ++i) restart_shard(i);
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  for (auto& rt : shards_) rt->queue.close();
  for (auto& rt : shards_) rt->wake.notify_one();
  progress_.notify_all();
  for (auto& rt : shards_) {
    if (rt->worker.joinable()) rt->worker.join();
  }
}

void Service::worker_loop(std::uint32_t index) {
  ShardRuntime& rt = *shards_[index];
  const obs::TraceConfig& trace = config_.ingest.trace;
  const chaos::ChaosConfig& chaos = rt.shard.engine().config().chaos;
  // Swapped with the inbox each batch, so both keep their capacity.
  std::vector<HaloDelta> halo;
  // Applies one drained batch and delivers its halo deltas before the
  // caller clears the draining flag, so the flush barrier can never observe
  // "nothing queued, nobody draining" while a delta is in flight. False
  // after a mid-batch chaos kill: the engine already recovered itself to
  // the last published snapshot; the unpublished backlog, then the whole
  // interrupted batch (external plus halo-derived events — the version gate
  // already consumed the deltas, so the events are the only carrier of that
  // knowledge now), go back to the queue head (replaying an applied prefix
  // is harmless: events are state-setting) and the thread dies.
  // `restart_shard` resurrects it.
  const auto apply_batch = [&](std::span<const FaultEvent> external) -> bool {
    Shard::ApplyResult result = rt.shard.apply(external, halo);
    if (result.outcome.crashed) {
      std::vector<FaultEvent> replay = std::move(result.outcome.requeue);
      replay.insert(replay.end(), result.interrupted.begin(),
                    result.interrupted.end());
      rt.queue.requeue_front(std::move(replay));
      {
        std::lock_guard lock(mu_);
        rt.crashed = true;
        rt.draining = false;
      }
      trace.counter("svc.shard_kills", 1);
      progress_.notify_all();
      return false;
    }
    if (result.outgoing.empty() && result.halo_events == 0) return true;
    {
      std::lock_guard lock(mu_);
      for (auto& [target, delta] : result.outgoing) {
        shards_[target]->inbox.push_back(std::move(delta));
        shards_[target]->wake.notify_one();
        ++halo_deltas_;
      }
      halo_events_ += result.halo_events;
    }
    if (!result.outgoing.empty()) {
      trace.counter("svc.halo_deltas",
                    static_cast<std::int64_t>(result.outgoing.size()));
    }
    return true;
  };
  for (;;) {
    std::vector<FaultEvent> batch;
    bool nudge = false;
    bool stop_seen = false;
    {
      std::unique_lock lock(mu_);
      // Shutdown overrides pause: accepted events are applied, not dropped.
      rt.wake.wait(lock, [this, &rt] {
        return stopping_ || (!paused_ && (rt.pending() || rt.retry_publish));
      });
      if (stopping_ && !rt.pending()) break;
      stop_seen = stopping_;
      nudge = std::exchange(rt.retry_publish, false);
      batch = rt.queue.try_drain(config_.max_batch);
      if (!rt.deferred.empty()) {
        // A previously deferred batch drains first, ahead of anything
        // submitted since — FIFO application order is preserved; only the
        // batch boundary (and thus the epoch boundary) moved.
        rt.deferred.insert(rt.deferred.end(), batch.begin(), batch.end());
        batch = std::move(rt.deferred);
        rt.deferred.clear();
      }
      halo.clear();
      // A bare nudge leaves the inbox for the next batch: only a call with
      // no events and no deltas re-attempts a withheld publication (see
      // Shard::apply).
      if (!nudge || !batch.empty()) halo.swap(rt.inbox);
      rt.draining = !batch.empty() || !halo.empty() || nudge;
    }
    chaos::BatchDecision decision;
    if ((!batch.empty() || !halo.empty()) && chaos.enabled()) {
      decision = chaos.on_batch();
    }
    if (decision.stall_us > 0) {
      // Mid-drain stall: the batch is out of the queue but not applied —
      // the window the flush barrier must not cross early (draining stays
      // set) while overload pressure builds at the admission edge.
      trace.counter("svc.chaos_stalls", 1);
      std::this_thread::sleep_for(std::chrono::microseconds(decision.stall_us));
    }
    if (decision.defer && !stop_seen) {
      trace.counter("svc.chaos_defers", 1);
      std::lock_guard lock(mu_);
      rt.deferred = std::move(batch);
      rt.inbox.insert(rt.inbox.begin(), std::make_move_iterator(halo.begin()),
                      std::make_move_iterator(halo.end()));
      rt.draining = false;
      continue;
    }
    if (batch.empty() && halo.empty() && !nudge) continue;
    trace.instant("svc.batch_drained", static_cast<std::int64_t>(batch.size()));
    if (!apply_batch(batch)) return;  // killed; the thread "process" dies
    if (decision.duplicate) {
      // Replay the whole batch as an at-least-once delivery fault; every
      // event re-coalesces to nothing (and every delta fails its version
      // gate), so this must not change the published state — the digest
      // invariant chaos tests pin.
      trace.counter("svc.chaos_duplicates", 1);
      if (!apply_batch(batch)) return;
    }
    {
      std::lock_guard lock(mu_);
      rt.draining = false;
    }
    progress_.notify_all();
  }
}

SubmitStatus Service::submit(FaultEvent event) {
  const std::uint32_t target =
      grid_.machine().contains(event.node) ? grid_.shard_of(event.node) : 0;
  EventQueue& queue = shards_[target]->queue;
  const SubmitStatus status = queue.push(event);
  if (status == SubmitStatus::Accepted) {
    // Briefly serialize against the waiters so the wakeup cannot be lost
    // between a predicate check and its wait.
    { std::lock_guard lock(mu_); }
    shards_[target]->wake.notify_one();
  } else {
    config_.ingest.trace.counter("svc.submit_rejects", 1);
  }
  if (config_.ingest.trace.enabled()) {
    // depth() takes the queue lock: read it only for a live trace.
    config_.ingest.trace.instant("svc.queue_depth",
                                 static_cast<std::int64_t>(queue.depth()));
  }
  return status;
}

void Service::flush() {
  {
    std::lock_guard lock(mu_);
    // Flushing a paused fleet with pending work would deadlock; the
    // barrier takes precedence over the hold.
    if (paused_ && std::any_of(shards_.begin(), shards_.end(),
                               [](const auto& rt) {
                                 return rt->pending() || rt->retry_publish;
                               })) {
      paused_ = false;
    }
  }
  for (auto& rt : shards_) rt->wake.notify_one();
  std::unique_lock lock(mu_);
  progress_.wait(lock, [this] {
    if (stopping_) return true;
    for (const auto& rt : shards_) {
      // A dead writer cannot barrier: flush returns with shard_crashed()
      // observable instead of hanging on events nothing will apply. An
      // unconsumed retry_publish() nudge also holds the barrier: flush
      // after a nudge means the publish re-attempt has actually run.
      if (rt->crashed) return true;
      if (rt->pending() || rt->draining || rt->retry_publish) return false;
    }
    return true;  // fixpoint: no events, no deltas, nobody mid-apply
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
  for (auto& rt : shards_) rt->wake.notify_one();
}

QueryStatus Service::wait_for_epoch(std::uint32_t shard, std::uint64_t epoch,
                                    std::chrono::milliseconds timeout) {
  if (shard >= shards_.size()) return QueryStatus::InvalidArgument;
  const IngestEngine& engine = shards_[shard]->shard.engine();
  // wait_for re-evaluates the predicate at the deadline regardless of
  // notifications, so a never-arriving epoch — withheld by the oracle gate,
  // or owed by a killed worker — degrades to a typed Timeout instead of a
  // hang (pinned by the chaos regression tests).
  std::unique_lock lock(mu_);
  const bool reached = progress_.wait_for(lock, timeout, [&engine, epoch] {
    return engine.snapshot()->epoch() >= epoch;
  });
  return reached ? QueryStatus::Ok : QueryStatus::Timeout;
}

void Service::retry_publish() {
  {
    std::lock_guard lock(mu_);
    for (auto& rt : shards_) rt->retry_publish = true;
  }
  for (auto& rt : shards_) rt->wake.notify_one();
}

bool Service::shard_crashed(std::uint32_t shard) const {
  std::lock_guard lock(mu_);
  return shard < shards_.size() && shards_[shard]->crashed;
}

bool Service::any_shard_crashed() const {
  std::lock_guard lock(mu_);
  return std::any_of(shards_.begin(), shards_.end(),
                     [](const auto& rt) { return rt->crashed; });
}

bool Service::restart_shard(std::uint32_t shard) {
  if (shard >= shards_.size()) return false;
  ShardRuntime& rt = *shards_[shard];
  std::thread dead;
  {
    std::lock_guard lock(mu_);
    if (!rt.crashed) return false;
    rt.crashed = false;
    // The new thread blocks on mu_ until this scope releases it; the dead
    // one already left the loop (it set crashed as its last locked act).
    dead = std::move(rt.worker);
    rt.worker = std::thread([this, shard] { worker_loop(shard); });
  }
  if (dead.joinable()) dead.join();
  config_.ingest.trace.counter("svc.shard_restarts", 1);
  return true;
}

std::uint64_t Service::stale_epochs_pending() const {
  std::uint64_t stalest = 0;
  for (const auto& rt : shards_) {
    stalest = std::max(stalest, rt->shard.engine().stale_epochs_pending());
  }
  return stalest;
}

bool Service::admit_query() const {
  const std::size_t cap = config_.max_inflight_queries;
  // Uncapped: nothing to count, so no shared cache line on the query path.
  if (cap == 0) return true;
  const std::int64_t running =
      inflight_queries_.fetch_add(1, std::memory_order_relaxed);
  if (running >= static_cast<std::int64_t>(cap)) {
    inflight_queries_.fetch_sub(1, std::memory_order_relaxed);
    query_overloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

const Snapshot& Service::read(std::uint32_t s) const {
  const IngestEngine& engine = shards_[s]->shard.engine();
  // Contention-free acquisition: the reference is pinned by this thread's
  // epoch handle for the duration of the query (see IngestEngine::acquire).
  const Snapshot& snap = engine.acquire();
  // One relaxed load on the hot path; the counters move only while the
  // oracle gate is actually withholding (degraded mode), never in steady
  // state.
  if (engine.stale_epochs_pending() != 0) {
    stale_queries_served_.fetch_add(1, std::memory_order_relaxed);
    config_.ingest.trace.counter("svc.stale_epochs_served", 1);
  }
  return snap;
}

StatusAnswer Service::query_status(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = read(0).epoch()};
  }
  const Snapshot& snap = read(grid_.shard_of(node));
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .node = snap.status_of(node)};
}

RegionAnswer Service::query_region(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = read(0).epoch()};
  }
  const Snapshot& snap = read(grid_.shard_of(node));
  const RegionSummary region = snap.region_summary(node);
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .region_id = region.id,
          .region_size = region.size,
          .fault_count = region.fault_count,
          .parent_block = region.parent_block};
}

const routing::Route& Service::route(mesh::Coord src, mesh::Coord dst,
                                     ShardPinSet& pins,
                                     routing::Route& stitched) const {
  const obs::TraceConfig& trace = config_.ingest.trace;
  std::uint32_t authority = grid_.shard_of(src);
  // The authoritative shard's cached segment. The reference is stable for
  // the snapshot's lifetime; the pin set keeps the snapshot alive for the
  // whole query. A segment that never leaves its shard is the answer as is.
  const routing::Route& direct = pins.get(authority).route(src, dst);
  trace.counter("svc.route_segments", 1);
  if (grid_.count() == 1 ||
      std::all_of(direct.path.begin(), direct.path.end(),
                  [&](mesh::Coord c) { return grid_.owns(authority, c); })) {
    return direct;
  }
  routing::Route& out = stitched;
  mesh::Coord cur = src;
  out.path.push_back(cur);
  // Authority switches are bounded: shard views disagree only on in-flight
  // gossip, so the cap is generous; exceeding it degrades to the router's
  // own typed Livelock verdict rather than an unbounded walk.
  const std::size_t max_switches =
      static_cast<std::size_t>(grid_.count()) * 4 + 4;
  std::size_t switches = 0;
  for (;;) {
    const routing::Route& seg = pins.get(authority).route(cur, dst);
    if (seg.status != routing::RouteStatus::Delivered) {
      // The owner of the current position says the remainder fails; its
      // verdict stands (its view of remote cells may be stale, but a
      // livelock/blocked verdict is already best-effort under churn).
      out.status = seg.status;
      return out;
    }
    bool switched = false;
    for (std::size_t i = 1; i < seg.path.size(); ++i) {
      const mesh::Coord hop = seg.path[i];
      const std::uint32_t owner = grid_.shard_of(hop);
      if (owner != authority &&
          pins.get(owner).status_of(hop) != NodeStatus::Enabled) {
        // Boundary crossing onto a cell its owner serves as blocked: the
        // segment was computed from a stale ghost. Adopt nothing past the
        // crossing; the owner becomes the authority and re-routes the
        // remainder from the last validated cell.
        if (++switches > max_switches) {
          out.status = routing::RouteStatus::Livelock;
          return out;
        }
        trace.counter("svc.route_stitch_switches", 1);
        authority = owner;
        switched = true;
        break;
      }
      out.path.push_back(hop);
      out.phase.push_back(seg.phase[i - 1]);
      cur = hop;
    }
    if (!switched) {
      out.status = routing::RouteStatus::Delivered;
      return out;
    }
    trace.counter("svc.route_segments", 1);
  }
}

RouteAnswer Service::query_route(mesh::Coord src, mesh::Coord dst) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(src) || !grid_.machine().contains(dst)) {
    return {.status = QueryStatus::InvalidArgument, .epoch = read(0).epoch()};
  }
  ShardPinSet pins(*this);
  RouteAnswer answer{.status = QueryStatus::Ok,
                     .epoch = pins.get(grid_.shard_of(src)).epoch()};
  // Contention attribution (round-level tracing only): how many reader-lock
  // acquisitions this query's window saw on the pinned epochs' route caches
  // — concurrent route queries against the same epochs share those locks,
  // so the instant stream exposes exactly the shared state a flat qps curve
  // hides.
  const obs::TraceConfig& trace = config_.ingest.trace;
  const auto cache_locks = [this, &pins] {
    std::uint64_t locks = 0;
    for (std::uint32_t s = 0; s < grid_.count(); ++s) {
      locks += pins.get(s).route_cache().shared_lock_acquisitions();
    }
    return locks;
  };
  const std::uint64_t before = trace.rounds() ? cache_locks() : 0;
  // A stitched route is built in place; a cached segment is copied out.
  const routing::Route& r = route(src, dst, pins, answer.route);
  if (&r != &answer.route) answer.route = r;
  if (trace.rounds()) {
    trace.instant("svc.query.cache_lock_touches",
                  static_cast<std::int64_t>(cache_locks() - before));
  }
  return answer;
}

BatchAnswer Service::query_batch(
    const std::vector<QueryItem>& items,
    std::chrono::steady_clock::time_point deadline) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  BatchAnswer answer;
  answer.items.resize(items.size());
  const mesh::Mesh2D& m = grid_.machine();
  // The first item touching a shard fixes the epoch every later item reads
  // that shard at — the batch's composite epoch vector is exact even while
  // shards publish concurrently.
  ShardPinSet pins(*this);
  const bool has_deadline =
      deadline != std::chrono::steady_clock::time_point{};
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
    if (!m.contains(item.a) ||
        (item.kind == QueryKind::Route && !m.contains(item.b))) {
      out.status = QueryStatus::InvalidArgument;
      ++answer.completed;
      continue;
    }
    switch (item.kind) {
      case QueryKind::Status:
        out.node = pins.get(grid_.shard_of(item.a)).status_of(item.a);
        break;
      case QueryKind::Region: {
        const Snapshot& snap = pins.get(grid_.shard_of(item.a));
        out.node = snap.status_of(item.a);
        out.region_id = snap.region_id_of(item.a);
        break;
      }
      case QueryKind::Route: {
        routing::Route stitched;
        const routing::Route& r = route(item.a, item.b, pins, stitched);
        out.route_status = r.status;
        out.hops = r.hops();
        break;
      }
    }
    ++answer.completed;
  }
  for (std::uint32_t s = 0; s < grid_.count(); ++s) {
    if ((pins.mask >> s & 1u) != 0) {
      answer.epochs.push_back({s, pins.pinned[s]->epoch()});
    }
  }
  return answer;
}

std::shared_ptr<const Snapshot> Service::snapshot(std::uint32_t shard) const {
  return engine(shard).snapshot();
}

const IngestEngine& Service::engine(std::uint32_t shard) const {
  return shards_[shard]->shard.engine();
}

std::vector<std::shared_ptr<const Snapshot>> Service::snapshots() const {
  std::vector<std::shared_ptr<const Snapshot>> out;
  out.reserve(shards_.size());
  for (const auto& rt : shards_) {
    out.push_back(rt->shard.engine().snapshot());
  }
  return out;
}

std::uint64_t Service::composite_digest() const {
  return composite_label_digest(grid_, snapshots());
}

std::size_t Service::fault_count() const {
  const auto snaps = snapshots();
  if (snaps.size() == 1) return snaps[0]->faults().size();
  const mesh::Mesh2D& m = grid_.machine();
  std::size_t faults = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const mesh::Coord c = m.coord(i);
    if (snaps[grid_.shard_of(c)]->faults().contains(c)) ++faults;
  }
  return faults;
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  for (const auto& rt : shards_) {
    const IngestEngine& engine = rt->shard.engine();
    stats.shard_epochs.push_back(engine.snapshot()->epoch());
    stats.queue_depth += rt->queue.depth();
    stats.events_accepted += rt->queue.accepted();
    stats.events_rejected += rt->queue.rejected();
    stats.chaos_denied += rt->queue.chaos_denied();
    stats.stale_epochs_pending =
        std::max(stats.stale_epochs_pending, engine.stale_epochs_pending());
    const IngestStats ingest = engine.stats();
    stats.ingest.batches += ingest.batches;
    stats.ingest.events += ingest.events;
    stats.ingest.applied += ingest.applied;
    stats.ingest.coalesced += ingest.coalesced;
    stats.ingest.invalid += ingest.invalid;
    stats.ingest.epochs_published += ingest.epochs_published;
    stats.ingest.oracle_rejects += ingest.oracle_rejects;
    stats.ingest.crashes += ingest.crashes;
  }
  stats.query_overloads = query_overloads_.load(std::memory_order_relaxed);
  stats.stale_queries_served =
      stale_queries_served_.load(std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  stats.halo_deltas = halo_deltas_;
  stats.halo_events = halo_events_;
  for (const auto& rt : shards_) {
    if (rt->crashed) ++stats.shards_crashed;
  }
  return stats;
}

}  // namespace ocp::svc
