#include "support/alloc_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "alloc/loadgen.hpp"
#include "alloc/oracle.hpp"

namespace ocp::chaos {

namespace {

/// One execution of a schedule (chaotic or shadow) and what it ended with.
struct ExecOutcome {
  std::uint64_t placement_digest = 0;
  std::uint64_t label_digest = 0;
  std::uint64_t kills = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t storm_evictions = 0;
  std::size_t live_final = 0;
  /// (id, rect) of every live job at quiesce, ascending id.
  std::vector<std::pair<std::uint64_t, geom::Rect>> live_set;
  check::ViolationReport oracle;
};

ExecOutcome execute(const AllocScheduleConfig& config,
                    const std::vector<AllocOp>& schedule, bool with_chaos) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             config.topology);
  stats::Rng master(config.seed);
  const alloc::AllocWorkload workload = alloc::derive_alloc_workload(
      master, machine, config.initial_faults, config.events,
      config.repair_fraction, config.jobs, config.max_job_side,
      config.min_lifetime, config.max_lifetime, config.storm_side);
  const std::vector<svc::FaultEvent>& stream = workload.churn.stream;
  const std::vector<alloc::JobRequest>& jobs = workload.jobs;

  FaultPlan plan(PlanSpec{.seed = config.seed});
  svc::IngestConfig ingest_config;
  if (with_chaos) ingest_config.chaos.plan = &plan;
  alloc::AllocConfig alloc_config;
  alloc_config.strategy = config.strategy;
  alloc_config.queue_capacity = config.queue_capacity;
  alloc_config.max_retries = config.max_retries;
  alloc::IngestFeed feed(workload.churn.initial, ingest_config, alloc_config);
  svc::IngestEngine& ingest = feed.ingest();
  alloc::AllocEngine& engine = feed.alloc();

  ExecOutcome out;

  // Apply one event per batch; on a chaos crash, synchronously restart and
  // replay (backlog first, interrupted event after) until the event lands.
  // Each armed stamp kills once, so the loop terminates — and the
  // (epoch, dirty) turnover sequence alloc observes matches the
  // uninterrupted run exactly.
  const auto apply_event = [&](const svc::FaultEvent& event) {
    std::vector<svc::FaultEvent> todo{event};
    while (!todo.empty()) {
      const svc::FaultEvent next = todo.front();
      const svc::BatchOutcome outcome =
          ingest.apply(std::span<const svc::FaultEvent>(&next, 1));
      if (outcome.crashed) {
        ++out.kills;
        std::vector<svc::FaultEvent> replay = outcome.requeue;
        replay.push_back(next);
        replay.insert(replay.end(), todo.begin() + 1, todo.end());
        todo = std::move(replay);
      } else {
        todo.erase(todo.begin());
      }
    }
  };

  std::size_t job_pos = 0;
  std::size_t stream_pos = 0;
  for (const AllocOp& op : schedule) {
    switch (op.kind) {
      case AllocOpKind::SubmitJobs:
        for (std::uint16_t i = 0; i < op.count && job_pos < jobs.size(); ++i) {
          static_cast<void>(engine.submit(jobs[job_pos++]));
        }
        break;
      case AllocOpKind::Faults:
        for (std::uint16_t i = 0; i < op.count && stream_pos < stream.size();
             ++i) {
          apply_event(stream[stream_pos++]);
        }
        break;
      case AllocOpKind::Storm: {
        const std::uint64_t before = engine.stats().evicted;
        for (const svc::FaultEvent& event : workload.storm) apply_event(event);
        out.storm_evictions += engine.stats().evicted - before;
        break;
      }
      case AllocOpKind::Tick:
        for (std::uint16_t i = 0; i < std::max<std::uint16_t>(op.count, 1);
             ++i) {
          static_cast<void>(engine.tick());
        }
        break;
      case AllocOpKind::Release: {
        for (std::uint16_t i = 0; i < std::max<std::uint16_t>(op.count, 1);
             ++i) {
          if (engine.live().empty()) break;
          static_cast<void>(engine.release(engine.live().begin()->first));
        }
        break;
      }
      case AllocOpKind::Kill:
        // Shadow runs strip Kill ops before calling execute; arming is
        // still gated so a hand-built schedule replays cleanly too.
        if (with_chaos) {
          plan.arm_kill(ingest.snapshot()->epoch() + 1);
        }
        break;
    }
  }

  // Quiesce: disarm, run the clock long enough for every lifetime to
  // expire and the queue to settle. The tick count is fixed, so both runs
  // quiesce identically.
  plan.disarm();
  for (std::uint32_t t = 0; t < config.max_lifetime + 32; ++t) {
    static_cast<void>(engine.tick());
  }

  const auto snapshot = ingest.snapshot();
  out.placement_digest = engine.placement_digest();
  out.label_digest = snapshot->label_digest();
  out.epochs_published = ingest.stats().epochs_published;
  out.live_final = engine.live().size();
  for (const auto& [id, job] : engine.live()) {
    out.live_set.emplace_back(id, job.rect);
  }
  out.oracle = alloc::check_engine(engine, *snapshot);
  return out;
}

}  // namespace

std::vector<AllocOp> generate_alloc_schedule(std::uint64_t seed,
                                             std::size_t ops,
                                             std::size_t max_burst) {
  stats::Rng rng(seed);
  const auto burst = [&] {
    return static_cast<std::uint16_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(std::max<std::size_t>(
                               max_burst, 1))));
  };
  std::vector<AllocOp> schedule;
  schedule.reserve(ops + 3);
  const std::size_t mid = ops / 2;
  for (std::size_t i = 0; i < ops; ++i) {
    if (i == mid) {
      // Guaranteed coverage: kill the writer while the storm's evictions
      // are being applied (the Faults burst keeps publishing epochs the
      // armed stamp can land on).
      schedule.push_back({AllocOpKind::Storm, 0});
      schedule.push_back({AllocOpKind::Kill, 0});
      schedule.push_back({AllocOpKind::Faults, burst()});
      continue;
    }
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 35) {
      schedule.push_back({AllocOpKind::SubmitJobs, burst()});
    } else if (roll < 60) {
      schedule.push_back({AllocOpKind::Faults, burst()});
    } else if (roll < 80) {
      schedule.push_back({AllocOpKind::Tick, burst()});
    } else if (roll < 90) {
      schedule.push_back({AllocOpKind::Release, burst()});
    } else {
      schedule.push_back({AllocOpKind::Kill, 0});
    }
  }
  return schedule;
}

AllocScheduleResult run_alloc_schedule(const AllocScheduleConfig& config,
                                       const std::vector<AllocOp>& schedule) {
  std::vector<AllocOp> stripped;
  stripped.reserve(schedule.size());
  for (const AllocOp& op : schedule) {
    if (op.kind != AllocOpKind::Kill) stripped.push_back(op);
  }

  const ExecOutcome chaotic = execute(config, schedule, /*with_chaos=*/true);
  const ExecOutcome shadow = execute(config, stripped, /*with_chaos=*/false);

  AllocScheduleResult result;
  result.placement_digest = chaotic.placement_digest;
  result.expected_placement_digest = shadow.placement_digest;
  result.final_label_digest = chaotic.label_digest;
  result.expected_label_digest = shadow.label_digest;
  result.kills = chaotic.kills;
  result.epochs_published = chaotic.epochs_published;
  result.live_final = chaotic.live_final;
  result.storm_evictions = chaotic.storm_evictions;

  auto fail = [&](std::string detail) {
    result.violations.push_back(std::move(detail));
  };
  if (chaotic.placement_digest != shadow.placement_digest) {
    fail("placement digest diverged from the kill-stripped shadow run");
  }
  if (chaotic.label_digest != shadow.label_digest) {
    fail("label digest diverged from the kill-stripped shadow run");
  }
  if (chaotic.live_set != shadow.live_set) {
    fail("final live placements diverged from the kill-stripped shadow run");
  }
  if (!chaotic.oracle.ok()) {
    fail("allocation oracle failed at quiesce (chaotic run): " +
         chaotic.oracle.to_string());
  }
  if (!shadow.oracle.ok()) {
    fail("allocation oracle failed at quiesce (shadow run): " +
         shadow.oracle.to_string());
  }
  return result;
}

std::string to_string(const std::vector<AllocOp>& schedule) {
  std::ostringstream os;
  bool first = true;
  for (const AllocOp& op : schedule) {
    if (!first) os << ' ';
    first = false;
    switch (op.kind) {
      case AllocOpKind::SubmitJobs: os << 'J' << op.count; break;
      case AllocOpKind::Faults: os << 'F' << op.count; break;
      case AllocOpKind::Storm: os << 'W'; break;
      case AllocOpKind::Tick: os << 'T' << op.count; break;
      case AllocOpKind::Release: os << 'R' << op.count; break;
      case AllocOpKind::Kill: os << 'K'; break;
    }
  }
  return os.str();
}

}  // namespace ocp::chaos
