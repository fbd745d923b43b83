#include "chaos/harness.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "stats/rng.hpp"
#include "stats/trial_pool.hpp"

namespace ocp::chaos {

namespace {

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
  const svc::Workload workload =
      svc::derive_workload(master, machine, config.initial_faults,
                           config.events, config.repair_fraction);
  const std::vector<std::uint64_t> worker_seeds =
      stats::fork_trial_seeds(master, config.query_threads);

  ChaosLoadResult result;
  svc::SubmitTally submits;

  // Control: the same stream through an untouched service. Single-threaded
  // submit + flush is enough — the digest is timing-independent by the
  // runtime's own replay-identity contract.
  {
    svc::ServiceConfig clean_config = config.service;
    clean_config.queue_capacity =
        std::max(clean_config.queue_capacity, config.events + 16);
    svc::Service clean(workload.initial, clean_config);
    for (const svc::FaultEvent& event : workload.stream) {
      static_cast<void>(svc::submit_with_backoff(clean, event, {}, submits));
    }
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
  svc::Service service(workload.initial, chaos_config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> max_stale{0};
  // Supervisor: restart chaos-killed writers, track the staleness
  // high-water mark while the storm runs.
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      restarts.fetch_add(svc::restart_crashed(service),
                         std::memory_order_relaxed);
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
      svc::EpochWatch watch(service.shard_grid().count());
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        const svc::QueryItem item = svc::draw_query(machine, rng);
        const svc::PointAnswer answer = svc::ask(service, item);
        if (answer.status == svc::QueryStatus::Ok) {
          ++rec.ok;
          rec.monotone &=
              watch.observe(service.shard_of(item.a), answer.epoch);
        } else {
          ++rec.rejected;
        }
      }
    });
  }

  svc::BackoffPolicy backoff = config.submit_backoff;
  if (backoff.base_us == 0) backoff.base_us = 2;  // never spin under chaos
  for (const svc::FaultEvent& event : workload.stream) {
    static_cast<void>(
        svc::submit_with_backoff(service, event, backoff, submits));
  }
  result.submit_retries = submits.retries;

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
  restarts.fetch_add(svc::quiesce(service));
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
