#include "svc/sharded_service.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

namespace ocp::svc {

/// RAII admission token, identical in contract to Service::InflightGate:
/// one fleet-wide increment per executing query, rejected entries never
/// hold the slot.
class ShardedService::InflightGate {
 public:
  explicit InflightGate(const ShardedService& service)
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
  const ShardedService& service_;
  bool admitted_;
};

struct ShardedService::ShardRuntime {
  ShardRuntime(std::uint32_t index, const ShardGrid& grid,
               grid::CellSet initial, const IngestConfig& config,
               std::size_t capacity)
      : queue(capacity, config.chaos),
        shard(index, grid, std::move(initial), config) {}

  EventQueue queue;
  Shard shard;
  /// Halo deltas awaiting this shard's next batch; guarded by the service
  /// mutex, like the flags below.
  std::vector<HaloDelta> inbox;
  /// True between a drain and the corresponding apply completing — the
  /// window the flush barrier must not cross.
  bool draining = false;
  bool crashed = false;
  std::thread worker;
};

/// Per-call pin set: at most one `acquire` per shard per query, so every
/// read of a shard inside one query sees one epoch AND no pinned reference
/// can be retired by a later same-shard acquire observing a fresh publish
/// (acquire retires the thread's previous handle — see ingest.hpp).
struct ShardedService::ShardPinSet {
  const ShardedService& svc;
  std::array<const Snapshot*, 16> pinned{};

  explicit ShardPinSet(const ShardedService& s) : svc(s) {}

  const Snapshot& get(std::uint32_t shard) {
    const Snapshot*& slot = pinned[shard];
    if (slot == nullptr) slot = &svc.acquire(shard);
    return *slot;
  }
};

ShardedService::ShardedService(grid::CellSet initial_faults,
                               ShardedServiceConfig config)
    : config_(std::move(config)),
      grid_(initial_faults.topology(), config_.shard_rows,
            config_.shard_cols) {
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

ShardedService::~ShardedService() {
  // Dead writers still owe accepted events an application before shutdown.
  for (std::uint32_t i = 0; i < grid_.count(); ++i) restart_shard(i);
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  for (auto& rt : shards_) rt->queue.close();
  wake_.notify_all();
  progress_.notify_all();
  for (auto& rt : shards_) {
    if (rt->worker.joinable()) rt->worker.join();
  }
}

void ShardedService::worker_loop(std::uint32_t index) {
  ShardRuntime& rt = *shards_[index];
  const obs::TraceConfig& trace = config_.ingest.trace;
  // Swapped with the inbox each batch, so both keep their capacity.
  std::vector<HaloDelta> halo;
  for (;;) {
    std::vector<FaultEvent> external;
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [this, &rt] {
        return stopping_ || rt.queue.depth() > 0 || !rt.inbox.empty();
      });
      if (stopping_ && rt.queue.depth() == 0 && rt.inbox.empty()) break;
      halo.clear();
      halo.swap(rt.inbox);
      external = rt.queue.try_drain(config_.max_batch);
      rt.draining = !external.empty() || !halo.empty();
    }
    if (external.empty() && halo.empty()) continue;

    Shard::ApplyResult result = rt.shard.apply(external, halo);
    if (result.outcome.crashed) {
      // Crash epilogue, as in Service::ingest_loop: unpublished backlog
      // first, then the interrupted batch (external + halo-derived — the
      // version gate already consumed the deltas, so the events are the
      // only carrier of that knowledge now). The thread "process" dies;
      // restart_shard resurrects it and replay converges.
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
      return;
    }

    // Deliver outgoing halo deltas BEFORE clearing draining, under the same
    // lock: the flush barrier can therefore never observe "nothing queued,
    // nobody draining" while a delta is still in flight between shards.
    bool gossip = false;
    {
      std::lock_guard lock(mu_);
      for (auto& [target, delta] : result.outgoing) {
        shards_[target]->inbox.push_back(std::move(delta));
        ++halo_deltas_;
        gossip = true;
      }
      halo_events_ += result.halo_events;
      rt.draining = false;
    }
    if (gossip) {
      trace.counter("svc.halo_deltas",
                    static_cast<std::int64_t>(result.outgoing.size()));
      wake_.notify_all();
    }
    progress_.notify_all();
  }
}

SubmitStatus ShardedService::submit(FaultEvent event) {
  // Out-of-machine coordinates go to shard 0, whose engine counts them
  // invalid — never fatal, same contract as the single-shard service.
  const std::uint32_t target = grid_.machine().contains(event.node)
                                   ? grid_.shard_of(event.node)
                                   : 0;
  const SubmitStatus status = shards_[target]->queue.push(event);
  if (status == SubmitStatus::Accepted) {
    // Briefly serialize against the waiters so the wakeup cannot be lost
    // between a predicate check and its wait.
    { std::lock_guard lock(mu_); }
    wake_.notify_all();
  } else {
    config_.ingest.trace.counter("svc.submit_rejects", 1);
  }
  return status;
}

void ShardedService::flush() {
  wake_.notify_all();
  std::unique_lock lock(mu_);
  progress_.wait(lock, [this] {
    if (stopping_) return true;
    for (const auto& rt : shards_) {
      // A dead writer cannot barrier; flush returns with shard_crashed()
      // observable instead of hanging (recovery is an explicit restart).
      if (rt->crashed) return true;
      if (rt->queue.depth() > 0 || !rt->inbox.empty() || rt->draining) {
        return false;
      }
    }
    return true;  // fixpoint: no events, no deltas, nobody mid-apply
  });
}

bool ShardedService::shard_crashed(std::uint32_t shard) const {
  std::lock_guard lock(mu_);
  return shard < shards_.size() && shards_[shard]->crashed;
}

bool ShardedService::any_shard_crashed() const {
  std::lock_guard lock(mu_);
  return std::any_of(shards_.begin(), shards_.end(),
                     [](const auto& rt) { return rt->crashed; });
}

bool ShardedService::restart_shard(std::uint32_t shard) {
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

bool ShardedService::admit_query() const {
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

const Snapshot& ShardedService::acquire(std::uint32_t s) const {
  return shards_[s]->shard.engine().acquire();
}

StatusAnswer ShardedService::query_status(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument,
            .epoch = acquire(0).epoch()};
  }
  const Snapshot& snap = acquire(grid_.shard_of(node));
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .node = snap.status_of(node)};
}

RegionAnswer ShardedService::query_region(mesh::Coord node) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(node)) {
    return {.status = QueryStatus::InvalidArgument,
            .epoch = acquire(0).epoch()};
  }
  const Snapshot& snap = acquire(grid_.shard_of(node));
  const RegionSummary region = snap.region_summary(node);
  return {.status = QueryStatus::Ok,
          .epoch = snap.epoch(),
          .region_id = region.id,
          .region_size = region.size,
          .fault_count = region.fault_count,
          .parent_block = region.parent_block};
}

routing::Route ShardedService::stitch_route(mesh::Coord src, mesh::Coord dst,
                                            ShardPinSet& pins) const {
  const obs::TraceConfig& trace = config_.ingest.trace;
  routing::Route out;
  mesh::Coord cur = src;
  out.path.push_back(cur);
  std::uint32_t authority = grid_.shard_of(src);
  // Authority switches are bounded: shard views disagree only on in-flight
  // gossip, so the cap is generous; exceeding it degrades to the router's
  // own typed Livelock verdict rather than an unbounded walk.
  const std::size_t max_switches =
      static_cast<std::size_t>(grid_.count()) * 4 + 4;
  std::size_t switches = 0;
  for (;;) {
    const Snapshot& snap = pins.get(authority);
    // The authoritative shard's cached segment for the remainder. The
    // reference is stable for the snapshot's lifetime; the pin set keeps
    // the snapshot alive for the whole query.
    const routing::Route& seg = snap.route(cur, dst);
    trace.counter("svc.route_segments", 1);
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
  }
}

RouteAnswer ShardedService::query_route(mesh::Coord src,
                                        mesh::Coord dst) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  if (!grid_.machine().contains(src) || !grid_.machine().contains(dst)) {
    return {.status = QueryStatus::InvalidArgument,
            .epoch = acquire(0).epoch()};
  }
  ShardPinSet pins(*this);
  const std::uint64_t epoch = pins.get(grid_.shard_of(src)).epoch();
  const obs::TraceConfig& trace = config_.ingest.trace;
  if (!trace.rounds()) {
    return {.status = QueryStatus::Ok,
            .epoch = epoch,
            .route = stitch_route(src, dst, pins)};
  }
  // Contention attribution (round-level tracing only): instants of the
  // shared-state touches this query's window saw on the pinned epochs'
  // route caches. Concurrent queries on the same epochs land in the same
  // window — exactly the contention being attributed.
  const auto cache_locks = [this, &pins] {
    std::uint64_t locks = 0;
    for (std::uint32_t s = 0; s < grid_.count(); ++s) {
      locks += pins.get(s).route_cache().shared_lock_acquisitions();
    }
    return locks;
  };
  const std::uint64_t before = cache_locks();
  RouteAnswer answer{.status = QueryStatus::Ok,
                     .epoch = epoch,
                     .route = stitch_route(src, dst, pins)};
  trace.instant("svc.query.cache_lock_touches",
                static_cast<std::int64_t>(cache_locks() - before));
  return answer;
}

ShardedBatchAnswer ShardedService::query_batch(
    const std::vector<QueryItem>& items,
    std::chrono::steady_clock::time_point deadline) const {
  InflightGate gate(*this);
  if (!gate.admitted()) return {.status = QueryStatus::Overloaded};
  ShardedBatchAnswer answer;
  answer.items.resize(items.size());
  const mesh::Mesh2D& m = grid_.machine();
  // Scatter-gather against a pin set: the first item touching a shard fixes
  // the epoch every later item reads that shard at — the batch's composite
  // epoch vector is exact even while shards publish concurrently.
  ShardPinSet pins(*this);
  const bool has_deadline =
      deadline != std::chrono::steady_clock::time_point{};
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
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
        const routing::Route route = stitch_route(item.a, item.b, pins);
        out.route_status = route.status;
        out.hops = route.hops();
        break;
      }
    }
    ++answer.completed;
  }
  for (std::uint32_t s = 0; s < grid_.count(); ++s) {
    if (pins.pinned[s] != nullptr) {
      answer.epochs.push_back({s, pins.pinned[s]->epoch()});
    }
  }
  return answer;
}

std::vector<std::shared_ptr<const Snapshot>> ShardedService::snapshots()
    const {
  std::vector<std::shared_ptr<const Snapshot>> out;
  out.reserve(shards_.size());
  for (const auto& rt : shards_) {
    out.push_back(rt->shard.engine().snapshot());
  }
  return out;
}

std::uint64_t ShardedService::composite_digest() const {
  return composite_label_digest(grid_, snapshots());
}

ShardedStats ShardedService::stats() const {
  ShardedStats stats;
  for (const auto& rt : shards_) {
    stats.shard_epochs.push_back(rt->shard.engine().snapshot()->epoch());
    stats.queue_depth += rt->queue.depth();
    stats.events_accepted += rt->queue.accepted();
    stats.events_rejected += rt->queue.rejected();
    const IngestStats ingest = rt->shard.engine().stats();
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
  std::lock_guard lock(mu_);
  stats.halo_deltas = halo_deltas_;
  stats.halo_events = halo_events_;
  for (const auto& rt : shards_) {
    if (rt->crashed) ++stats.shards_crashed;
  }
  return stats;
}

std::uint64_t composite_label_digest(
    const ShardGrid& grid,
    const std::vector<std::shared_ptr<const Snapshot>>& snapshots) {
  // Mirrors Snapshot::label_digest bit for bit: same FNV-1a constants, same
  // fold order — per-cell planes row-major (each cell read from its owning
  // shard), then block count, then region count, then (size, fault_count)
  // per region in min-cell-index order (the order the single-writer
  // maintains its regions() vector in).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const mesh::Mesh2D& m = grid.machine();
  const std::size_t n = static_cast<std::size_t>(m.node_count());
  for (std::size_t i = 0; i < n; ++i) {
    const Snapshot& snap = *snapshots[grid.shard_of(m.coord(i))];
    std::uint64_t v = snap.faults().contains_index(i) ? 4u : 0u;
    v |= snap.safety().at_index(i) == labeling::Safety::Unsafe ? 2u : 0u;
    v |= snap.activation().at_index(i) == labeling::Activation::Disabled ? 1u
                                                                         : 0u;
    mix(v + 1);
  }
  // Blocks and regions are collected from each shard only when they
  // intersect its OWNED cells (ghost areas of a replica may hold stale
  // structure for components the shard never hears about) and deduped by
  // min-cell-index: a seam-spanning entry is extracted identically by every
  // owner — same converged fault knowledge, same deterministic extraction —
  // so duplicates collapse to one key.
  std::map<std::size_t, std::uint8_t> block_keys;
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> regions;
  for (std::uint32_t s = 0; s < grid.count(); ++s) {
    const Snapshot& snap = *snapshots[s];
    for (const labeling::FaultyBlock& block : snap.blocks()) {
      std::size_t key = n;
      bool owned = false;
      for (const mesh::Coord c : block.component.cells()) {
        key = std::min(key, m.index(c));
        owned = owned || grid.owns(s, c);
      }
      if (owned) block_keys.emplace(key, 0);
    }
    for (const labeling::DisabledRegion& region : snap.regions()) {
      std::size_t key = n;
      bool owned = false;
      for (const mesh::Coord c : region.component.cells()) {
        key = std::min(key, m.index(c));
        owned = owned || grid.owns(s, c);
      }
      if (owned) {
        regions.emplace(
            key, std::make_pair(static_cast<std::uint64_t>(region.size()),
                                static_cast<std::uint64_t>(region.fault_count)));
      }
    }
  }
  mix(block_keys.size());
  mix(regions.size());
  for (const auto& [key, entry] : regions) {
    mix(entry.first);
    mix(entry.second);
  }
  return h;
}

ShardedRoundsResult run_sharded_rounds(const ShardGrid& grid,
                                       const grid::CellSet& initial,
                                       std::span<const FaultEvent> stream,
                                       std::size_t max_batch,
                                       IngestConfig config) {
  const std::uint32_t count = grid.count();
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    shards.push_back(std::make_unique<Shard>(s, grid, initial, config));
  }

  const mesh::Mesh2D& m = grid.machine();
  std::vector<std::vector<FaultEvent>> backlog(count);
  for (const FaultEvent& event : stream) {
    const std::uint32_t target =
        m.contains(event.node) ? grid.shard_of(event.node) : 0;
    backlog[target].push_back(event);
  }

  std::vector<std::size_t> cursor(count, 0);
  std::vector<std::vector<HaloDelta>> inbox(count);
  std::vector<std::vector<HaloDelta>> next_inbox(count);
  std::vector<Shard::ApplyResult> results(count);
  ShardedRoundsResult out;
  for (;;) {
    bool pending = false;
    for (std::uint32_t s = 0; s < count; ++s) {
      if (cursor[s] < backlog[s].size() || !inbox[s].empty()) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    ++out.rounds;

    // Parallel section: shards touch disjoint state (their own engine,
    // their own inbox slice); results land in per-shard slots. Identical
    // for any thread count.
    const auto shard_count = static_cast<std::int64_t>(count);
#ifdef OCP_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::int64_t s = 0; s < shard_count; ++s) {
      const auto idx = static_cast<std::size_t>(s);
      const std::size_t take =
          std::min(max_batch, backlog[idx].size() - cursor[idx]);
      const std::span<const FaultEvent> external(
          backlog[idx].data() + cursor[idx], take);
      results[idx] = shards[idx]->apply(external, inbox[idx]);
      cursor[idx] += take;
    }

    // Serial delta routing in ascending shard order: the inter-round
    // delivery order — and with it every downstream batch — is fixed.
    for (std::uint32_t s = 0; s < count; ++s) {
      Shard::ApplyResult& result = results[s];
      // Attribute applies to the external stream vs gossip; a halo-derived
      // event can itself coalesce away, so clamp instead of underflowing.
      const std::size_t halo_share =
          std::min(result.halo_events, result.outcome.applied);
      out.applied += result.outcome.applied - halo_share;
      out.halo_events += result.halo_events;
      for (auto& [target, delta] : result.outgoing) {
        next_inbox[target].push_back(std::move(delta));
        ++out.halo_deltas;
      }
      result = {};
    }
    for (std::uint32_t s = 0; s < count; ++s) {
      inbox[s] = std::move(next_inbox[s]);
      next_inbox[s].clear();
    }
  }

  out.snapshots.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    out.snapshots.push_back(shards[s]->engine().snapshot());
  }
  out.composite_digest = composite_label_digest(grid, out.snapshots);
  return out;
}

}  // namespace ocp::svc
