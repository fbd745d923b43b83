#include "chaos/schedule.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <memory>
#include <sstream>

#include "stats/rng.hpp"

namespace ocp::chaos {

namespace {

char op_letter(OpKind kind) {
  switch (kind) {
    case OpKind::Submit: return 'S';
    case OpKind::Pause: return 'P';
    case OpKind::Resume: return 'R';
    case OpKind::Flush: return 'F';
    case OpKind::Query: return 'Q';
    case OpKind::RetryPublish: return 'Y';
    case OpKind::Restart: return 'K';
    case OpKind::Kill: return 'D';
  }
  return '?';
}

bool has_count(OpKind kind) {
  return kind == OpKind::Submit || kind == OpKind::Query ||
         kind == OpKind::Kill;
}

bool has_shard(OpKind kind) {
  return kind == OpKind::Restart || kind == OpKind::Kill;
}

}  // namespace

std::vector<Op> generate_schedule(std::uint64_t seed, std::size_t ops,
                                  std::uint32_t shards,
                                  std::size_t max_burst) {
  stats::Rng rng(seed);
  const auto burst = [&rng, max_burst] {
    return static_cast<std::uint16_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::max<std::size_t>(1, max_burst))));
  };
  const auto shard = [&rng, shards] {
    return static_cast<std::uint8_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(std::max<std::uint32_t>(1, shards)) - 1));
  };
  std::vector<Op> schedule;
  schedule.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const double pick = rng.uniform();
    // Submit/query heavy so most schedules actually move state; barriers
    // and lifecycle ops are spice, not the meal.
    if (pick < 0.30) {
      schedule.push_back({OpKind::Submit, burst()});
    } else if (pick < 0.56) {
      schedule.push_back({OpKind::Query, burst()});
    } else if (pick < 0.64) {
      schedule.push_back({OpKind::Flush, 0});
    } else if (pick < 0.70) {
      schedule.push_back({OpKind::Pause, 0});
    } else if (pick < 0.77) {
      schedule.push_back({OpKind::Resume, 0});
    } else if (pick < 0.80) {
      schedule.push_back({OpKind::RetryPublish, 0});
    } else if (pick < 0.92) {
      schedule.push_back({OpKind::Kill, burst(), shard()});
    } else {
      schedule.push_back({OpKind::Restart, 0, shard()});
    }
  }
  return schedule;
}

ScheduleResult run_schedule(const ScheduleConfig& config,
                            const std::vector<Op>& schedule) {
  const mesh::Mesh2D machine(config.mesh_side, config.mesh_side,
                             config.topology);
  stats::Rng master(config.seed);
  const svc::Workload workload =
      svc::derive_workload(master, machine, config.initial_faults,
                           config.events, config.repair_fraction);
  stats::Rng query_rng(master.fork_seed());
  const std::vector<svc::FaultEvent>& stream = workload.stream;

  // The expected end state is schedule-independent: every stream event is
  // eventually submitted (leftovers at quiesce), nothing is ever shed, and
  // events are state-setting — so the net fault set is this shadow replay,
  // regardless of op order, kills or gossip interleaving.
  grid::CellSet shadow = workload.initial;
  for (const svc::FaultEvent& e : stream) {
    if (e.kind == svc::EventKind::Fault) {
      shadow.insert(e.node);
    } else {
      shadow.erase(e.node);
    }
  }

  svc::ServiceConfig svc_config = config.service;
  // Room for the whole stream plus crash-requeued backlogs: genuine
  // Overloaded must be impossible so the only denials are chaos's.
  svc_config.queue_capacity =
      std::max(svc_config.queue_capacity, 2 * config.events + 64);
  const std::uint32_t shard_count =
      svc::ShardGrid(machine, svc_config.shard_rows, svc_config.shard_cols)
          .count();
  // One plan per shard, so a kill op can arm its victim's next stamp
  // (arm_kill) without touching the rest of the fleet.
  std::vector<std::unique_ptr<FaultPlan>> plans;
  plans.reserve(shard_count);
  svc_config.shard_chaos.clear();
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    PlanSpec spec = config.plan;
    spec.seed += s;
    plans.push_back(std::make_unique<FaultPlan>(std::move(spec)));
    svc_config.shard_chaos.push_back(ChaosConfig{plans.back().get()});
  }
  svc::Service service(workload.initial, svc_config);

  ScheduleResult result;
  std::size_t next_event = 0;
  svc::EpochWatch watch(shard_count);

  const auto violate = [&result](std::string what) {
    result.violations.push_back(std::move(what));
  };
  const auto note_epoch = [&](std::uint32_t shard, std::uint64_t epoch,
                              const char* where) {
    if (!watch.observe(shard, epoch)) {
      std::ostringstream msg;
      msg << where << ": shard " << shard << " epoch went backwards ("
          << watch.last(shard) << " -> " << epoch << ")";
      violate(msg.str());
    }
  };

  // Retries past the budget mean the schedule live-locked the submitter
  // (e.g. a crashed writer never restarted while the queue filled) — that is
  // itself an invariant violation, reported instead of hung on.
  const svc::BackoffPolicy backoff{.seed = config.seed,
                                   .retry_budget = 100000};
  svc::SubmitTally submits;
  const auto submit_n = [&](std::size_t n) {
    for (; n > 0 && next_event < stream.size(); --n, ++next_event) {
      const svc::SubmitStatus status = svc::submit_with_backoff(
          service, stream[next_event], backoff, submits);
      if (status != svc::SubmitStatus::Accepted) {
        violate(status == svc::SubmitStatus::Closed
                    ? "submit: queue reported Closed while the service runs"
                    : "submit: live-locked retrying an Overloaded verdict");
        return;
      }
    }
  };

  const auto query_burst = [&](std::size_t n) {
    for (std::size_t q = 0; q < n; ++q) {
      const svc::QueryItem item = svc::draw_query(machine, query_rng);
      const svc::PointAnswer answer = svc::ask(service, item);
      if (answer.status != svc::QueryStatus::Ok) {
        // Degraded-mode guarantee: valid queries answer from the owner's
        // last good epoch no matter what chaos does to the write side.
        std::ostringstream msg;
        msg << "query: expected Ok, got " << svc::to_string(answer.status);
        violate(msg.str());
        ++result.queries_rejected;
      } else {
        ++result.queries_ok;
        note_epoch(service.shard_of(item.a), answer.epoch, "query");
      }
    }
  };

  for (const Op& op : schedule) {
    const std::uint32_t target = op.shard % shard_count;
    switch (op.kind) {
      case OpKind::Submit:
        submit_n(op.count);
        break;
      case OpKind::Pause:
        service.pause();
        break;
      case OpKind::Resume:
        service.resume();
        break;
      case OpKind::Flush: {
        service.flush();
        const svc::ServiceStats stats = service.stats();
        if (stats.shards_crashed == 0 && stats.queue_depth != 0) {
          violate("flush: returned with a non-empty queue and live writers");
        }
        break;
      }
      case OpKind::Query:
        query_burst(op.count);
        break;
      case OpKind::RetryPublish:
        service.retry_publish();
        break;
      case OpKind::Restart:
        if (service.restart_shard(target)) ++result.restarts;
        break;
      case OpKind::Kill:
        // Arm the kill at the victim's next publish, then push a burst: the
        // burst is what makes the victim publish (and die) while neighbors
        // keep draining the halo deltas its last good batches emitted.
        plans[target]->arm_kill(service.stats().shard_epochs[target] + 1);
        submit_n(op.count);
        break;
    }
  }

  // Quiesce: no further injections (un-fired armed kills become no-ops),
  // every event delivered and drained, every shard alive, withheld
  // publications retried.
  for (const auto& plan : plans) plan->disarm();
  submit_n(stream.size() - next_event);
  service.resume();
  result.restarts += svc::quiesce(service);
  result.submit_retries = submits.retries;

  result.final_digest = service.composite_digest();
  result.final_faults = service.fault_count();
  result.stale_epochs_pending = service.stale_epochs_pending();
  const svc::ServiceStats stats = service.stats();
  result.halo_deltas = stats.halo_deltas;
  result.halo_events = stats.halo_events;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    result.final_epoch += stats.shard_epochs[s];
    note_epoch(s, stats.shard_epochs[s], "final");
    result.injected += plans[s]->stats();
  }
  const labeling::MaintainedLabeling expected(shadow,
                                              svc_config.ingest.definition);
  result.expected_digest =
      svc::Snapshot::build(0, expected, svc_config.ingest.hand)->label_digest();
  if (result.final_digest != result.expected_digest) {
    std::ostringstream msg;
    msg << "digest: final labeling diverged from the net fault set ("
        << std::hex << result.final_digest << " != " << result.expected_digest
        << std::dec << ", " << result.final_faults << " vs " << shadow.size()
        << " faults)";
    violate(msg.str());
  }
  if (result.stale_epochs_pending != 0) {
    violate("staleness: watermark non-zero after quiesce");
  }
  return result;
}

std::vector<Op> shrink_schedule(const ScheduleConfig& config,
                                std::vector<Op> schedule, std::size_t* runs,
                                ScheduleOracle oracle) {
  std::size_t executed = 0;
  const auto fails = [&](const std::vector<Op>& candidate) {
    ++executed;
    if (oracle) return oracle(config, candidate);
    return !run_schedule(config, candidate).ok();
  };
  if (!fails(schedule)) {
    if (runs) *runs = executed;
    return schedule;  // not a failing schedule; nothing to shrink
  }
  // ddmin: drop chunks while the violation reproduces, halving chunk size
  // when no chunk can go (same discipline as check::shrink_faults).
  std::size_t chunk = std::max<std::size_t>(1, schedule.size() / 2);
  while (!schedule.empty()) {
    bool reduced = false;
    for (std::size_t start = 0; start < schedule.size(); start += chunk) {
      std::vector<Op> candidate;
      candidate.reserve(schedule.size());
      candidate.insert(candidate.end(), schedule.begin(),
                       schedule.begin() + static_cast<std::ptrdiff_t>(start));
      const std::size_t stop = std::min(schedule.size(), start + chunk);
      candidate.insert(candidate.end(),
                       schedule.begin() + static_cast<std::ptrdiff_t>(stop),
                       schedule.end());
      if (fails(candidate)) {
        schedule = std::move(candidate);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    } else {
      chunk = std::min(chunk, std::max<std::size_t>(1, schedule.size() / 2));
    }
  }
  if (runs) *runs = executed;
  return schedule;
}

std::string to_string(const std::vector<Op>& schedule) {
  std::ostringstream out;
  bool first = true;
  for (const Op& op : schedule) {
    if (!first) out << ' ';
    first = false;
    out << op_letter(op.kind);
    if (has_count(op.kind)) out << op.count;
    if (has_shard(op.kind) && op.shard != 0) {
      out << '@' << static_cast<unsigned>(op.shard);
    }
  }
  return out.str();
}

std::optional<std::vector<Op>> parse_schedule(std::string_view text) {
  std::vector<Op> schedule;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    Op op;
    switch (text[i]) {
      case 'S': op.kind = OpKind::Submit; break;
      case 'Q': op.kind = OpKind::Query; break;
      case 'P': op.kind = OpKind::Pause; break;
      case 'R': op.kind = OpKind::Resume; break;
      case 'F': op.kind = OpKind::Flush; break;
      case 'Y': op.kind = OpKind::RetryPublish; break;
      case 'K': op.kind = OpKind::Restart; break;
      case 'D': op.kind = OpKind::Kill; break;
      default: return std::nullopt;
    }
    ++i;
    // A decimal field at the cursor; false when absent or out of range.
    const auto number = [&](auto& value) {
      const char* begin = text.data() + i;
      const auto [ptr, ec] =
          std::from_chars(begin, text.data() + text.size(), value);
      if (ec != std::errc{} || ptr == begin) return false;
      i += static_cast<std::size_t>(ptr - begin);
      return true;
    };
    if (has_count(op.kind) && !number(op.count)) return std::nullopt;
    if (has_shard(op.kind) && i < text.size() && text[i] == '@') {
      ++i;
      if (!number(op.shard)) return std::nullopt;
    }
    schedule.push_back(op);
  }
  return schedule;
}

}  // namespace ocp::chaos
