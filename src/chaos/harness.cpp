#include "chaos/harness.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "analysis/trial_pool.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"

namespace ocp::chaos {

namespace {

/// Submits the whole stream with seeded backoff, never shedding. Returns
/// total retries.
std::uint64_t submit_stream(svc::Service& service,
                            const std::vector<svc::FaultEvent>& stream,
                            const svc::BackoffPolicy& backoff) {
  std::uint64_t retries = 0;
  for (const svc::FaultEvent& event : stream) {
    std::uint64_t attempt = 0;
    while (service.submit(event) != svc::SubmitStatus::Accepted) {
      ++retries;
      const std::uint32_t delay_us = backoff_delay_us(backoff, attempt++);
      if (delay_us == 0) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
    }
  }
  return retries;
}

/// Restarts every chaos-killed shard; returns how many came back.
std::uint64_t restart_crashed(svc::Service& service) {
  std::uint64_t restarted = 0;
  for (std::uint32_t s = 0; s < service.shard_grid().count(); ++s) {
    if (service.restart_shard(s)) ++restarted;
  }
  return restarted;
}

/// Serving epochs summed over shards (the epoch itself at 1x1).
std::uint64_t epoch_sum(const svc::Service& service) {
  std::uint64_t sum = 0;
  for (const std::uint64_t epoch : service.stats().shard_epochs) sum += epoch;
  return sum;
}

}  // namespace

ChaosLoadResult run_chaos_load(const ChaosLoadConfig& config) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             mesh::Topology::Mesh);
  stats::Rng master(config.seed);
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  const std::vector<std::uint64_t> worker_seeds =
      analysis::fork_trial_seeds(master, config.query_threads);

  const grid::CellSet initial =
      fault::uniform_random(machine, config.initial_faults, fault_rng);
  const std::vector<svc::FaultEvent> stream = svc::generate_event_stream(
      machine, initial, config.events, config.repair_fraction, stream_seed);

  ChaosLoadResult result;

  // Control: the same stream through an untouched service. Single-threaded
  // submit + flush is enough — the digest is timing-independent by the
  // runtime's own replay-identity contract.
  {
    svc::ServiceConfig clean_config = config.service;
    clean_config.queue_capacity =
        std::max(clean_config.queue_capacity, config.events + 16);
    svc::Service clean(initial, clean_config);
    result.submit_retries += submit_stream(clean, stream, {});
    clean.flush();
    result.clean_digest = clean.composite_digest();
    result.clean_epoch = epoch_sum(clean);
  }

  // Chaotic run: armed plan, racing query threads, supervisor restarts.
  FaultPlan plan(config.plan);
  svc::ServiceConfig chaos_config = config.service;
  chaos_config.queue_capacity =
      std::max(chaos_config.queue_capacity, 2 * config.events + 64);
  chaos_config.ingest.chaos.plan = &plan;
  svc::Service service(initial, chaos_config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> max_stale{0};
  // Supervisor: restart chaos-killed writers, track the staleness
  // high-water mark while the storm runs.
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      restarts.fetch_add(restart_crashed(service), std::memory_order_relaxed);
      const std::uint64_t stale = service.stale_epochs_pending();
      std::uint64_t seen = max_stale.load(std::memory_order_relaxed);
      while (stale > seen &&
             !max_stale.compare_exchange_weak(seen, stale,
                                              std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::max(1u, config.monitor_poll_us)));
    }
  });

  struct WorkerRecord {
    std::size_t ok = 0;
    std::size_t rejected = 0;
    bool monotone = true;
  };
  std::vector<WorkerRecord> records(config.query_threads);
  std::vector<std::thread> workers;
  workers.reserve(config.query_threads);
  for (std::size_t t = 0; t < config.query_threads; ++t) {
    workers.emplace_back([&, t] {
      stats::Rng rng(worker_seeds[t]);
      WorkerRecord& rec = records[t];
      // Per shard: an answer's epoch is its owning shard's.
      std::vector<std::uint64_t> last_epochs(service.shard_grid().count(), 0);
      const auto node = [&] {
        return machine.coord(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(machine.node_count()) - 1)));
      };
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        svc::QueryStatus status;
        std::uint64_t epoch;
        const double pick = rng.uniform();
        const mesh::Coord owner_key = node();
        if (pick < 0.5) {
          const svc::StatusAnswer answer = service.query_status(owner_key);
          status = answer.status;
          epoch = answer.epoch;
        } else if (pick < 0.8) {
          const svc::RegionAnswer answer = service.query_region(owner_key);
          status = answer.status;
          epoch = answer.epoch;
        } else {
          const svc::RouteAnswer answer =
              service.query_route(owner_key, node());
          status = answer.status;
          epoch = answer.epoch;
        }
        if (status == svc::QueryStatus::Ok) {
          ++rec.ok;
          std::uint64_t& last = last_epochs[service.shard_of(owner_key)];
          if (epoch < last) rec.monotone = false;
          last = std::max(last, epoch);
        } else {
          ++rec.rejected;
        }
      }
    });
  }

  svc::BackoffPolicy backoff = config.submit_backoff;
  if (backoff.base_us == 0) backoff.base_us = 2;  // never spin under chaos
  result.submit_retries += submit_stream(service, stream, backoff);

  for (std::thread& worker : workers) worker.join();

  // Drain the accepted backlog with the plan still ARMED: kill stamps are
  // keyed to publish stamps the epoch counter only reaches while the
  // backlog applies, so disarming while events are still queued would gate
  // off any stamp the storm had not reached yet. The supervisor keeps
  // restarting killed writers; this loop just waits (bounded) for the
  // queue to empty, polling instead of flush() so an adversarial plan
  // cannot wedge the barrier.
  for (int i = 0; i < 4000 && (service.any_shard_crashed() ||
                               service.stats().queue_depth > 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Quiesce the chaotic run: stop injecting, let the supervisor catch any
  // in-flight kill, drain, and retry any withheld publication.
  plan.disarm();
  for (int i = 0; i < 8; ++i) {
    restarts.fetch_add(restart_crashed(service));
    service.flush();
    if (!service.any_shard_crashed()) break;
  }
  service.retry_publish();
  service.flush();
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  result.chaos_digest = service.composite_digest();
  result.chaos_epoch = epoch_sum(service);
  result.final_faults = service.fault_count();
  result.digest_match = result.chaos_digest == result.clean_digest;
  result.stale_epochs_pending = service.stale_epochs_pending();
  result.max_stale_pending = max_stale.load(std::memory_order_relaxed);
  result.restarts = restarts.load(std::memory_order_relaxed);
  const svc::ServiceStats stats = service.stats();
  result.chaos_denied = stats.chaos_denied;
  result.stale_queries_served = stats.stale_queries_served;
  for (const WorkerRecord& rec : records) {
    result.queries_ok += rec.ok;
    result.queries_rejected += rec.rejected;
    result.epochs_monotone = result.epochs_monotone && rec.monotone;
  }
  result.injected = plan.stats();
  return result;
}

}  // namespace ocp::chaos
