#include "alloc/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "alloc/oracle.hpp"
#include "stats/histogram.hpp"

namespace ocp::alloc {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Per-reader outcome, written only by its own thread.
struct ReaderRecord {
  std::size_t views = 0;
  bool monotone = true;
};

/// True when no queue entry is an eviction survivor — the storm-recovery
/// quiescence predicate.
bool queue_clear_of_evicted(const AllocEngine& engine) {
  return std::none_of(
      engine.pending().begin(), engine.pending().end(),
      [](const PendingJob& p) { return p.evictions > 0; });
}

}  // namespace

std::vector<JobRequest> generate_job_stream(const mesh::Mesh2D& machine,
                                            std::size_t count,
                                            std::int32_t max_side,
                                            std::uint32_t min_lifetime,
                                            std::uint32_t max_lifetime,
                                            std::uint64_t seed,
                                            std::uint64_t first_id) {
  stats::Rng rng(seed);
  const std::int32_t cap = std::max<std::int32_t>(
      1, std::min({max_side, machine.width(), machine.height()}));
  std::vector<JobRequest> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // u^2 skews the draw toward small jobs: many 1x1..2x2, a long tail of
    // larger submeshes — the mix that exercises fragmentation.
    const double uw = rng.uniform();
    const double uh = rng.uniform();
    JobRequest job;
    job.id = first_id + i;
    job.width =
        1 + static_cast<std::int32_t>(uw * uw * static_cast<double>(cap - 1) +
                                      0.5);
    job.height =
        1 + static_cast<std::int32_t>(uh * uh * static_cast<double>(cap - 1) +
                                      0.5);
    job.lifetime_ticks = static_cast<std::uint32_t>(rng.uniform_int(
        static_cast<std::int64_t>(std::max(1u, min_lifetime)),
        static_cast<std::int64_t>(std::max(min_lifetime, max_lifetime))));
    jobs.push_back(job);
  }
  return jobs;
}

std::uint64_t job_stream_digest(const std::vector<JobRequest>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const JobRequest& j : jobs) {
    mix(j.id + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(j.width)) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(j.height)) + 1);
    mix(static_cast<std::uint64_t>(j.lifetime_ticks) + 1);
  }
  return h;
}

std::vector<svc::FaultEvent> storm_events(const mesh::Mesh2D& machine,
                                          mesh::Coord center,
                                          std::int32_t side) {
  std::vector<svc::FaultEvent> events;
  if (side <= 0) return events;
  const std::int32_t s = std::min({side, machine.width(), machine.height()});
  std::int32_t x0 = std::clamp(center.x - s / 2, 0, machine.width() - s);
  std::int32_t y0 = std::clamp(center.y - s / 2, 0, machine.height() - s);
  events.reserve(static_cast<std::size_t>(s) * static_cast<std::size_t>(s));
  for (std::int32_t y = y0; y < y0 + s; ++y) {
    for (std::int32_t x = x0; x < x0 + s; ++x) {
      events.push_back({svc::EventKind::Fault, {x, y}});
    }
  }
  return events;
}

AllocWorkload derive_alloc_workload(
    stats::Rng& master, const mesh::Mesh2D& machine,
    std::size_t initial_faults, std::size_t events, double repair_fraction,
    std::size_t jobs, std::int32_t max_job_side, std::uint32_t min_lifetime,
    std::uint32_t max_lifetime, std::int32_t storm_side) {
  svc::Workload churn = svc::derive_workload(master, machine, initial_faults,
                                             events, repair_fraction);
  const std::uint64_t job_seed = master.fork_seed();
  stats::Rng storm_rng(master.fork_seed());
  const mesh::Coord storm_center{
      static_cast<std::int32_t>(storm_rng.uniform_int(0, machine.width() - 1)),
      static_cast<std::int32_t>(storm_rng.uniform_int(0, machine.height() - 1))};
  return {std::move(churn),
          generate_job_stream(machine, jobs, max_job_side, min_lifetime,
                              max_lifetime, job_seed),
          storm_events(machine, storm_center, storm_side)};
}

IngestFeed::IngestFeed(const grid::CellSet& initial,
                       svc::IngestConfig ingest_config,
                       const AllocConfig& alloc_config)
    : ingest_(initial, [&] {
        ingest_config.on_publish = [this](const svc::Snapshot& snap,
                                          std::span<const mesh::Coord> dirty) {
          if (alloc_) alloc_->observe_epoch(snap, dirty);
        };
        return std::move(ingest_config);
      }()) {
  alloc_ = std::make_unique<AllocEngine>(*ingest_.snapshot(), alloc_config);
}

AllocLoadResult run_alloc_load(const AllocLoadConfig& config) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             config.topology);
  // Fork order is part of the replay contract: faults, churn stream, jobs,
  // storm.
  stats::Rng master(config.seed);
  const AllocWorkload workload = derive_alloc_workload(
      master, machine, config.initial_faults, config.fault_events,
      config.repair_fraction, config.jobs, config.max_job_side,
      config.min_lifetime, config.max_lifetime, config.storm_side);
  const std::vector<svc::FaultEvent>& stream = workload.churn.stream;
  const std::vector<JobRequest>& jobs = workload.jobs;

  AllocLoadResult result;
  result.stream_digest = svc::event_stream_digest(stream);
  result.job_digest = job_stream_digest(jobs);

  AllocConfig alloc_config;
  alloc_config.strategy = config.strategy;
  alloc_config.queue_capacity = config.queue_capacity;
  alloc_config.max_retries = config.max_retries;
  IngestFeed feed(workload.churn.initial, {}, alloc_config);
  svc::IngestEngine& ingest = feed.ingest();
  AllocEngine& alloc = feed.alloc();

  // Readers: hammer the published view until the writer finishes, checking
  // (epoch, tick) monotonicity. They touch nothing the writer reads, so
  // every replay-identity output is reader-count independent.
  std::atomic<bool> stop{false};
  std::vector<ReaderRecord> records(config.reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(config.reader_threads);
  for (std::size_t t = 0; t < config.reader_threads; ++t) {
    readers.emplace_back([&, t] {
      ReaderRecord& rec = records[t];
      std::uint64_t last_epoch = 0;
      std::uint64_t last_tick = 0;
      // Every reader observes at least one view even when the writer
      // finishes before the thread spins up (single-core schedulers).
      while (rec.views < config.reads_per_thread &&
             (rec.views == 0 || !stop.load(std::memory_order_relaxed))) {
        const auto view = alloc.view();
        if (view->epoch < last_epoch || view->tick < last_tick ||
            view->utilization < 0.0 || view->utilization > 1.0) {
          rec.monotone = false;
        }
        last_epoch = view->epoch;
        last_tick = view->tick;
        ++rec.views;
      }
    });
  }

  stats::Histogram place_us(0.0, 1000.0, 2000);
  const auto t0 = Clock::now();
  std::size_t stream_pos = 0;
  const std::size_t storm_at = config.storm_side > 0 ? config.jobs / 2
                                                     : config.jobs + 1;
  const auto apply_batch = [&](std::size_t n) {
    if (stream_pos >= stream.size()) return;
    const std::size_t take = std::min(n, stream.size() - stream_pos);
    static_cast<void>(ingest.apply(
        std::span<const svc::FaultEvent>(stream.data() + stream_pos, take)));
    stream_pos += take;
  };
  // Peak utilization (and the fragmentation at the step that set it) is
  // sampled after every state-changing step; both are pure functions of
  // engine state, so they replay bit-identically.
  const auto note_peak = [&] {
    const double util = alloc.utilization();
    if (util > result.peak_utilization) {
      result.peak_utilization = util;
      result.fragmentation_at_peak = alloc.view()->fragmentation();
    }
  };

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == storm_at) {
      // Eviction storm: one clustered batch, one epoch, mass eviction.
      const std::uint64_t evicted_before = alloc.stats().evicted;
      static_cast<void>(ingest.apply(workload.storm));
      result.storm_evicted = static_cast<std::size_t>(
          alloc.stats().evicted - evicted_before);
      const auto storm_t0 = Clock::now();
      std::uint64_t ticks = 0;
      while (!queue_clear_of_evicted(alloc) &&
             ticks < config.storm_recovery_cap) {
        static_cast<void>(alloc.tick());
        note_peak();
        ++ticks;
      }
      result.storm_recovery_ticks = ticks;
      result.storm_recovered = queue_clear_of_evicted(alloc);
      result.storm_recovery_seconds =
          us_between(storm_t0, Clock::now()) / 1e6;
    }
    const auto s0 = Clock::now();
    static_cast<void>(alloc.submit(jobs[i]));
    place_us.add(us_between(s0, Clock::now()));
    note_peak();
    if (config.fault_every > 0 && (i + 1) % config.fault_every == 0) {
      apply_batch(config.fault_batch);
      static_cast<void>(alloc.tick());
      note_peak();
    }
  }
  // Drain: remaining churn, then run the clock until every finite lifetime
  // has expired and the queue has had that long to place or hold.
  while (stream_pos < stream.size()) {
    apply_batch(config.fault_batch);
    static_cast<void>(alloc.tick());
  }
  for (std::uint32_t t = 0; t < config.max_lifetime + 64; ++t) {
    if (alloc.live().empty() && alloc.pending().empty()) break;
    static_cast<void>(alloc.tick());
  }
  result.wall_seconds = us_between(t0, Clock::now()) / 1e6;

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  for (const ReaderRecord& rec : records) {
    result.reader_views += rec.views;
    result.views_monotone = result.views_monotone && rec.monotone;
  }

  const auto final_snapshot = ingest.snapshot();
  result.final_label_digest = final_snapshot->label_digest();
  result.epochs_published = ingest.stats().epochs_published;
  result.placement_digest = alloc.placement_digest();
  result.stats = alloc.stats();
  result.live_final = alloc.live().size();
  result.pending_final = alloc.pending().size();
  result.utilization = alloc.utilization();
  result.fragmentation = alloc.view()->fragmentation();
  result.oracle_ok = check_engine(alloc, *final_snapshot).ok();
  const std::uint64_t decisions =
      result.stats.placed + result.stats.replaced + result.stats.rejected;
  result.placements_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(decisions) / result.wall_seconds
          : 0.0;
  result.p50_place_us = place_us.percentile(0.50);
  result.p99_place_us = place_us.percentile(0.99);
  result.place_overflow = place_us.overflow();
  return result;
}

}  // namespace ocp::alloc
