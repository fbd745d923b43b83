#include "svc/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "analysis/trial_pool.hpp"
#include "fault/generators.hpp"
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
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const FaultEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.kind) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.x)) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node.y)) + 1);
  }
  return h;
}

SvcLoadResult run_svc_load(const SvcLoadConfig& config) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             config.topology);
  stats::Rng master(config.seed);
  stats::Rng fault_rng(master.fork_seed());
  const std::uint64_t stream_seed = master.fork_seed();
  const auto worker_seeds =
      analysis::fork_trial_seeds(master, config.query_threads);

  const grid::CellSet initial =
      fault::uniform_random(machine, config.initial_faults, fault_rng);
  const std::vector<FaultEvent> stream = generate_event_stream(
      machine, initial, config.events, config.repair_fraction, stream_seed);

  SvcLoadResult result;
  result.stream_digest = event_stream_digest(stream);

  Service service(initial, config.service);
  const std::uint32_t shard_count = service.shard_grid().count();

  // Writer: replays the stream in order with closed-loop backpressure.
  // An `Overloaded` verdict retries under the seeded backoff policy instead
  // of spinning; with the default unbounded budget nothing is ever dropped,
  // so (queue FIFO + retry-until-accepted) keeps the final fault set a pure
  // function of the stream. A finite budget sheds instead — accounted, and
  // forfeiting that purity by design.
  const BackoffPolicy& backoff = config.submit_backoff;
  std::uint64_t submit_retries = 0;
  std::uint64_t submit_backoff_us = 0;
  std::uint64_t submits_shed = 0;
  std::thread writer([&] {
    for (const FaultEvent& event : stream) {
      std::uint64_t attempt = 0;
      for (;;) {
        const SubmitStatus status = service.submit(event);
        if (status == SubmitStatus::Accepted) break;
        if (status == SubmitStatus::Closed) {
          // Shutdown raced the writer; nothing further can be delivered.
          ++submits_shed;
          break;
        }
        if (backoff.retry_budget != 0 && attempt >= backoff.retry_budget) {
          ++submits_shed;
          break;
        }
        ++submit_retries;
        const std::uint32_t delay_us = backoff_delay_us(backoff, attempt++);
        submit_backoff_us += delay_us;
        if (delay_us == 0) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        }
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
      std::vector<std::uint64_t> last_epochs(shard_count, 0);
      const auto note_epoch = [&rec, &last_epochs](std::uint32_t shard,
                                                   std::uint64_t epoch) {
        if (epoch < last_epochs[shard]) rec.epochs_monotone = false;
        last_epochs[shard] = std::max(last_epochs[shard], epoch);
      };
      for (std::size_t q = 0; q < config.queries_per_thread; ++q) {
        const auto begin = Clock::now();
        if (config.batch_every != 0 && q % config.batch_every == 0) {
          std::vector<QueryItem> items(config.batch_size);
          for (auto& item : items) {
            const double pick = rng.uniform();
            if (pick < 0.5) {
              item = {QueryKind::Status, random_node(machine, rng), {}};
            } else if (pick < 0.8) {
              item = {QueryKind::Region, random_node(machine, rng), {}};
            } else {
              item = {QueryKind::Route, random_node(machine, rng),
                      random_node(machine, rng)};
            }
          }
          const BatchAnswer answer = service.query_batch(items);
          if (answer.status == QueryStatus::Ok) {
            ++rec.ok;
            ++rec.batches_ok;
            rec.batch_items += answer.items.size();
            for (const CompositeEpoch& e : answer.epochs) {
              note_epoch(e.shard, e.epoch);
            }
          } else {
            ++rec.rejected;
          }
        } else {
          // A point answer's epoch is its owning shard's (a route's: the
          // source owner's).
          const double pick = rng.uniform();
          const mesh::Coord node = random_node(machine, rng);
          QueryStatus status;
          std::uint64_t epoch;
          if (pick < 0.5) {
            const StatusAnswer answer = service.query_status(node);
            status = answer.status;
            epoch = answer.epoch;
          } else if (pick < 0.8) {
            const RegionAnswer answer = service.query_region(node);
            status = answer.status;
            epoch = answer.epoch;
          } else {
            const RouteAnswer answer =
                service.query_route(node, random_node(machine, rng));
            status = answer.status;
            epoch = answer.epoch;
          }
          if (status == QueryStatus::Ok) {
            ++rec.ok;
            note_epoch(service.shard_of(node), epoch);
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
  result.submit_retries = submit_retries;
  result.submit_backoff_us = submit_backoff_us;
  result.submits_shed = submits_shed;
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
