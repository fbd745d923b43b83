#include "svc/loadgen.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/trial_pool.hpp"
#include "fault/generators.hpp"
#include "stats/fnv.hpp"
#include "stats/histogram.hpp"

namespace ocp::svc {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Per-query-thread outcome, written only by its own thread.
struct WorkerRecord {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t batches_ok = 0;
  std::size_t batch_items = 0;
  bool epochs_monotone = true;
  stats::Histogram latency_us{0.0, 1000.0, 2000};
};

mesh::Coord random_node(const mesh::Mesh2D& m, stats::Rng& rng) {
  return m.coord(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
}

}  // namespace

SvcLoadConfig query_heavy_profile(std::size_t query_threads) {
  SvcLoadConfig config;
  config.mesh_side = 32;
  config.initial_faults = 10;
  config.events = 128;
  config.query_threads = query_threads;
  config.queries_per_thread = 2000;
  config.seed = 20010423;
  return config;
}

SvcLoadConfig ingest_heavy_profile(std::size_t query_threads) {
  SvcLoadConfig config = query_heavy_profile(query_threads);
  config.events = 1024;
  config.queries_per_thread = 500;
  return config;
}

SvcLoadConfig mixed_rate_profile(std::size_t query_threads) {
  SvcLoadConfig config = query_heavy_profile(query_threads);
  config.events = 512;
  config.queries_per_thread = 2000;
  return config;
}

std::vector<FaultEvent> generate_event_stream(const mesh::Mesh2D& machine,
                                              const grid::CellSet& initial,
                                              std::size_t events,
                                              double repair_fraction,
                                              std::uint64_t seed) {
  stats::Rng rng(seed);
  // Shadow fault model: tracks what the service's fault set will be after
  // each event, so repairs target genuinely faulty nodes (most of the
  // time — duplicate faults still occur and exercise coalescing).
  grid::CellSet shadow = initial;
  std::vector<FaultEvent> stream;
  stream.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    if (!shadow.empty() && rng.uniform() < repair_fraction) {
      const auto members = shadow.to_vector();
      const mesh::Coord node = members[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1))];
      shadow.erase(node);
      stream.push_back({EventKind::Repair, node});
    } else {
      const mesh::Coord node = random_node(machine, rng);
      shadow.insert(node);  // no-op when already faulty: a duplicate fault
      stream.push_back({EventKind::Fault, node});
    }
  }
  return stream;
}

std::uint64_t event_stream_digest(const std::vector<FaultEvent>& events) {
  stats::Fnv1a h;
  for (const FaultEvent& e : events) {
    h.mix(static_cast<std::uint64_t>(e.kind) + 1);
    h.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.x)) + 1);
    h.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.y)) + 1);
  }
  return h.value;
}

Workload derive_workload(stats::Rng& master, const mesh::Mesh2D& machine,
                         std::size_t initial_faults, std::size_t events,
                         double repair_fraction) {
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  grid::CellSet initial =
      fault::uniform_random(machine, initial_faults, fault_rng);
  std::vector<FaultEvent> stream = generate_event_stream(
      machine, initial, events, repair_fraction, stream_seed);
  return {std::move(initial), std::move(stream)};
}

SubmitStatus submit_with_backoff(Service& service, const FaultEvent& event,
                                 const BackoffPolicy& policy,
                                 SubmitTally& tally) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const SubmitStatus status = service.submit(event);
    if (status != SubmitStatus::Overloaded) return status;
    if (policy.retry_budget != 0 && attempt >= policy.retry_budget) {
      return status;
    }
    ++tally.retries;
    const std::uint32_t delay_us = backoff_delay_us(policy, attempt);
    tally.backoff_us += delay_us;
    if (delay_us == 0) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
}

QueryItem draw_query(const mesh::Mesh2D& machine, stats::Rng& rng) {
  const double pick = rng.uniform();
  const mesh::Coord node = random_node(machine, rng);
  if (pick < 0.5) return {QueryKind::Status, node, {}};
  if (pick < 0.8) return {QueryKind::Region, node, {}};
  return {QueryKind::Route, node, random_node(machine, rng)};
}

PointAnswer ask(const Service& service, const QueryItem& item) {
  switch (item.kind) {
    case QueryKind::Status: {
      const StatusAnswer answer = service.query_status(item.a);
      return {answer.status, answer.epoch};
    }
    case QueryKind::Region: {
      const RegionAnswer answer = service.query_region(item.a);
      return {answer.status, answer.epoch};
    }
    case QueryKind::Route: {
      const RouteAnswer answer = service.query_route(item.a, item.b);
      return {answer.status, answer.epoch};
    }
  }
  return {QueryStatus::InvalidArgument, 0};
}

std::uint64_t restart_crashed(Service& service) {
  std::uint64_t restarted = 0;
  for (std::uint32_t s = 0; s < service.shard_grid().count(); ++s) {
    if (service.restart_shard(s)) ++restarted;
  }
  return restarted;
}

std::uint64_t quiesce(Service& service) {
  // One round suffices once the plans are disarmed; the bound is defensive.
  std::uint64_t restarted = 0;
  for (int i = 0; i < 8; ++i) {
    restarted += restart_crashed(service);
    service.flush();
    if (!service.any_shard_crashed()) break;
  }
  service.retry_publish();
  service.flush();
  return restarted;
}

SvcLoadResult run_svc_load(const SvcLoadConfig& config) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             config.topology);
  stats::Rng master(config.seed);
  const Workload workload =
      derive_workload(master, machine, config.initial_faults, config.events,
                      config.repair_fraction);
  const auto worker_seeds =
      analysis::fork_trial_seeds(master, config.query_threads);

  SvcLoadResult result;
  result.stream_digest = event_stream_digest(workload.stream);

  Service service(workload.initial, config.service);
  const std::uint32_t shard_count = service.shard_grid().count();

  // Writer: replays the stream in order with closed-loop backpressure.
  // With the default unbounded retry budget nothing is ever dropped, so
  // (queue FIFO + retry-until-accepted) keeps the final fault set a pure
  // function of the stream. A finite budget sheds instead — accounted, and
  // forfeiting that purity by design.
  SubmitTally submits;
  std::thread writer([&] {
    for (const FaultEvent& event : workload.stream) {
      if (submit_with_backoff(service, event, config.submit_backoff,
                              submits) != SubmitStatus::Accepted) {
        ++result.submits_shed;
      }
    }
  });

  std::vector<WorkerRecord> records(config.query_threads);
  std::vector<std::thread> workers;
  workers.reserve(config.query_threads);
  const auto start = Clock::now();
  for (std::size_t t = 0; t < config.query_threads; ++t) {
    workers.emplace_back([&, t] {
      stats::Rng rng(worker_seeds[t]);
      WorkerRecord& rec = records[t];
      EpochWatch watch(shard_count);
      std::vector<QueryItem> items(config.batch_size);
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        const auto begin = Clock::now();
        if (config.batch_every != 0 && q % config.batch_every == 0) {
          for (QueryItem& item : items) item = draw_query(machine, rng);
          const BatchAnswer answer = service.query_batch(items);
          if (answer.status == QueryStatus::Ok) {
            ++rec.ok;
            ++rec.batches_ok;
            rec.batch_items += answer.items.size();
            for (const CompositeEpoch& e : answer.epochs) {
              rec.epochs_monotone &= watch.observe(e.shard, e.epoch);
            }
          } else {
            ++rec.rejected;
          }
        } else {
          const QueryItem item = draw_query(machine, rng);
          const PointAnswer answer = ask(service, item);
          if (answer.status == QueryStatus::Ok) {
            ++rec.ok;
            rec.epochs_monotone &=
                watch.observe(service.shard_of(item.a), answer.epoch);
          } else {
            ++rec.rejected;
          }
        }
        rec.latency_us.add(us_between(begin, Clock::now()));
      }
    });
  }

  for (auto& worker : workers) worker.join();
  writer.join();
  // Quiesce: every accepted event applied, every halo delta drained, the
  // resulting epochs published.
  service.flush();
  const auto end = Clock::now();

  // 0.5us buckets: single queries answer in well under a microsecond, and
  // the overflow counter flags any tail past 1ms rather than hiding it.
  stats::Histogram latency{0.0, 1000.0, 2000};
  std::size_t batches_ok = 0;
  for (const WorkerRecord& rec : records) {
    result.queries_ok += rec.ok;
    result.queries_rejected += rec.rejected;
    result.batch_items += rec.batch_items;
    batches_ok += rec.batches_ok;
    result.epochs_monotone = result.epochs_monotone && rec.epochs_monotone;
    latency.merge(rec.latency_us);
  }
  result.submit_retries = submits.retries;
  result.submit_backoff_us = submits.backoff_us;
  result.wall_seconds = us_between(start, end) / 1e6;
  // Each batch counts once in queries_ok but delivers batch_size answers;
  // throughput counts delivered answers.
  const double answers = static_cast<double>(result.queries_ok - batches_ok +
                                             result.batch_items);
  result.qps =
      result.wall_seconds > 0 ? answers / result.wall_seconds : 0.0;
  result.p50_us = latency.median();
  result.p99_us = latency.p99();
  result.latency_overflow = latency.overflow();

  result.final_digest = service.composite_digest();
  result.final_faults = service.fault_count();
  const ServiceStats stats = service.stats();
  result.epochs_published = stats.ingest.epochs_published;
  result.shard_epochs = stats.shard_epochs;
  result.halo_deltas = stats.halo_deltas;
  result.halo_events = stats.halo_events;
  return result;
}

}  // namespace ocp::svc
