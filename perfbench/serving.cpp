// churn_1024: write-heavy serving at scale, driven from one thread.
//
// Each epoch hands one fault/repair batch to the ingest front, reads the
// first answer from the new epoch (freshness), lets the scheduler consume the
// epoch (eviction and re-placement) and answers a small query mix from the
// new epoch, whose route cache the next epoch carries forward. Every input
// is generated from the seed before the timed phase; the query mix is
// generated one epoch at a time, outside the timed operations.

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "alloc/oracle.hpp"
#include "stack.hpp"

namespace pb {

namespace {

using ocp::alloc::JobRequest;
using ocp::mesh::Coord;
using ocp::svc::FaultEvent;
using ocp::svc::NodeStatus;
using ocp::svc::Snapshot;

constexpr std::int32_t kSide = 1024;
constexpr double kFaultRate = 0.005;
/// Timed-phase epochs per `--seconds`: the work is fixed by the command
/// line, never by the clock.
constexpr double kEpochsPerSecond = 32;
constexpr std::size_t kBatchEvents = 8;
/// Half the events are repairs, so the fault count (and with it the cost of
/// an epoch) stays where it started through the run.
constexpr double kRepairShare = 0.5;
/// Share of batch events that repeat an earlier event of the batch (a node
/// reported twice), which ingest coalesces away.
constexpr double kDuplicateShare = 0.1;
/// Query answers per epoch after the first answer, over a hot route set
/// whose destinations lie within kPairReach cells of their source.
constexpr std::size_t kAnswersPerEpoch = 256;
constexpr std::size_t kHotPairs = 1024;
constexpr std::int32_t kPairReach = 32;
/// The scheduler's population: kJobs jobs of sides 1..kJobSideCap, placed
/// during set-up and never expiring. See README.md for how they were sized.
constexpr std::size_t kJobs = 16 * 16;
constexpr std::int32_t kJobSideCap = 32;

enum class QueryKind : std::uint8_t { Status, Region, Route };
struct Query {
  QueryKind kind;
  bool cold;  // a never-seen route pair
  Coord a;
  Coord b;
};

constexpr std::size_t kCheckEpochs = 3;  // sampled, plus the last epoch

struct Inputs {
  ocp::grid::CellSet initial;
  std::vector<std::vector<FaultEvent>> batches;
  std::vector<JobRequest> jobs;
  std::vector<std::pair<Coord, Coord>> hot;
  std::vector<std::pair<Coord, Coord>> cold;
  /// Epochs whose answers are checked against a from-scratch reference.
  std::vector<std::size_t> check_epochs;
  std::uint64_t query_seed = 0;
};

std::uint64_t pair_key(Coord a, Coord b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a.x)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a.y)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(b.x)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(b.y));
}

Inputs generate(std::size_t epochs, std::uint64_t seed) {
  Rng master(seed);
  Rng fault_rng = master.fork();
  Rng stream_rng = master.fork();
  Rng job_rng = master.fork();
  Rng pair_rng = master.fork();
  Rng check_rng = master.fork();
  const ocp::mesh::Mesh2D m(kSide, kSide);
  Inputs in{uniform_faults(m, kFaultRate, fault_rng), {}, {}, {}, {}, {},
            master.next()};
  FaultTracker tracker(in.initial);
  in.batches.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    in.batches.push_back(
        tracker.batch(kBatchEvents, kRepairShare, kDuplicateShare, stream_rng));
  }
  in.jobs = make_jobs(job_rng, kJobs, kJobSideCap, 1);

  const auto healthy_cell = [&] {
    for (;;) {
      const Coord c{static_cast<std::int32_t>(pair_rng.below(
                        static_cast<std::uint64_t>(kSide))),
                    static_cast<std::int32_t>(pair_rng.below(
                        static_cast<std::uint64_t>(kSide)))};
      if (!in.initial.contains(c)) return c;
    }
  };
  std::unordered_set<std::uint64_t> seen;
  const auto fresh_pairs = [&](std::size_t n,
                               std::vector<std::pair<Coord, Coord>>& out) {
    while (out.size() < n) {
      const Coord a = healthy_cell();
      const auto near = [&](std::int32_t v) {
        const auto span = static_cast<std::uint64_t>(2 * kPairReach + 1);
        return std::clamp<std::int32_t>(
            v + static_cast<std::int32_t>(pair_rng.below(span)) - kPairReach,
            0, kSide - 1);
      };
      const Coord b{near(a.x), near(a.y)};
      if (in.initial.contains(b)) continue;
      if (seen.insert(pair_key(a, b)).second) out.emplace_back(a, b);
    }
  };
  fresh_pairs(kHotPairs, in.hot);
  // 1% of route answers take a never-seen pair; 15% of answers are routes.
  const auto cold_needed = static_cast<std::size_t>(
      static_cast<double>(epochs * kAnswersPerEpoch) * 0.15 * 0.012) +
      64;
  fresh_pairs(cold_needed, in.cold);

  for (std::size_t i = 0; i < kCheckEpochs; ++i) {
    in.check_epochs.push_back(check_rng.below(epochs));
  }
  in.check_epochs.push_back(epochs - 1);
  std::sort(in.check_epochs.begin(), in.check_epochs.end());
  in.check_epochs.erase(
      std::unique(in.check_epochs.begin(), in.check_epochs.end()),
      in.check_epochs.end());
  return in;
}

/// One epoch's queries: 60% status, 25% region, 15% route; 99% of routes
/// over the hot pair set, 1% over never-seen pairs (drawn in order).
void fill_queries(const Inputs& in, std::size_t epoch, std::size_t& cold_next,
                  std::vector<Query>& out) {
  Rng rng(in.query_seed ^ (0x9e3779b97f4a7c15ULL * (epoch + 1)));
  out.clear();
  const auto side = static_cast<std::uint64_t>(kSide);
  for (std::size_t i = 0; i < kAnswersPerEpoch; ++i) {
    const std::uint64_t roll = rng.below(100);
    const Coord c{static_cast<std::int32_t>(rng.below(side)),
                  static_cast<std::int32_t>(rng.below(side))};
    if (roll < 60) {
      out.push_back({QueryKind::Status, false, c, c});
    } else if (roll < 85) {
      out.push_back({QueryKind::Region, false, c, c});
    } else if (rng.below(100) == 0 || in.hot.empty()) {
      const auto& p = in.cold[cold_next++ % in.cold.size()];
      out.push_back({QueryKind::Route, true, p.first, p.second});
    } else {
      const auto& p = in.hot[rng.below(in.hot.size())];
      out.push_back({QueryKind::Route, false, p.first, p.second});
    }
  }
}

/// The cheap per-answer value the timed loop folds into a checksum.
std::uint64_t answer(const Snapshot& s, const Query& q) {
  switch (q.kind) {
    case QueryKind::Status: return static_cast<std::uint64_t>(s.status_of(q.a));
    case QueryKind::Region:
      return static_cast<std::uint64_t>(s.region_id_of(q.a) + 1);
    case QueryKind::Route: return s.route(q.a, q.b).path.size();
  }
  return 0;
}

/// The full answer the correctness check compares: status, the region's
/// size and fault count, or the route's status and exact path.
std::uint64_t full_answer(const Snapshot& s, const Query& q) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  switch (q.kind) {
    case QueryKind::Status: mix(static_cast<std::uint64_t>(s.status_of(q.a))); break;
    case QueryKind::Region:
      if (const auto* region = s.region_of(q.a)) {
        mix(region->size());
        mix(region->fault_count);
      }
      break;
    case QueryKind::Route: {
      const ocp::routing::Route& route = s.route(q.a, q.b);
      mix(static_cast<std::uint64_t>(route.status));
      for (const Coord c : route.path) mix(pair_key(c, c));
      break;
    }
  }
  return h;
}

/// Answers recorded at a check epoch plus the fault set they must reflect.
struct Recorded {
  ocp::grid::CellSet faults;
  std::vector<Query> queries;
  std::vector<std::uint64_t> answers;
};

/// What one pass over the workload measured.
struct Pass {
  double setup_s = 0;
  double loop_s = 0;
  /// Net events each batch applied, stamped like its latencies.
  Samples events;
  Samples op_us;
  Samples fresh_us;
  Samples replace_us;
  double util_peak = 0;
  double peak_rss_mb = 0;
  std::uint64_t label_digest = 0;
  std::uint64_t placement_digest = 0;
  double apply_us = 0;
  std::size_t status_answers = 0;
  std::size_t region_answers = 0;
  std::size_t hot_answers = 0;
  std::size_t route_cache_entries = 0;
  EpochCounts counts;
  AllocCounts alloc;
};

/// Builds the stack (ingest front, scheduler and its jobs, cache warm-up) `reps`
/// times, keeping the last, and runs the timed phase and the checks.
Pass run_pass(const Inputs& in, int reps,
              const obs::TraceConfig& trace, Result& r) {
  Pass pass;
  const std::size_t epochs = in.batches.size();
  std::unique_ptr<Server> server;
  std::unique_ptr<Scheduler> sched;
  Samples setups;
  for (int rep = 0; rep < reps; ++rep) {
    sched.reset();
    server.reset();
    // Set-up spans several windows; it visits the CPUs as the timed
    // phase does.
    CpuRotation rotation;
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<Server>(in.initial, trace);
    sched = std::make_unique<Scheduler>(*server->snapshot(), trace);
    for (const JobRequest& job : in.jobs) {
      rotation.step(Clock::now());
      if (sched->submit(job) != ocp::alloc::SubmitOutcome::Placed) {
        r.fail_check("set-up job not placed");
      }
    }
    const Snapshot& warm = server->acquire();
    for (const auto& [a, b] : in.hot) static_cast<void>(warm.route(a, b));
    setups.add(seconds_between(t0, Clock::now()));
  }
  pass.setup_s = setups.percentile(0.5);
  sched->begin_timed();

  ocp::grid::CellSet expected = in.initial;
  std::vector<Query> queries;
  std::vector<Recorded> recorded;
  std::size_t cold_next = 0;
  std::size_t check = 0;
  std::uint64_t checksum = 0;
  double untimed_s = 0;
  const bool traced = trace.enabled();
  CpuRotation rotation;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto& batch = in.batches[e];
    // The batch, and the first answer read from the epoch it produced.
    rotation.step(Clock::now());
    const Clock::time_point since = Clock::now();
    const Server::Applied out = server->apply(batch);
    const Clock::time_point applied = Clock::now();
    bool reflected = false;
    {
      const obs::Span span(trace, "svc.first_answer");
      const Snapshot& s = server->acquire();
      const FaultEvent& last = batch.back();
      reflected = out.published && s.epoch() == out.epoch &&
                  (s.status_of(last.node) == NodeStatus::Faulty) ==
                      (last.kind == ocp::svc::EventKind::Fault);
    }
    const Clock::time_point answered = Clock::now();
    pass.fresh_us.add(us_between(since, answered), since);
    if (!reflected) {
      ++r.failed;
      r.fail_check("first answer after a batch did not reflect it");
    }
    pass.op_us.add(us_between(since, applied), since);
    pass.events.add(static_cast<double>(out.applied), since);
    // The scheduler consumes the epoch downstream of the first answer.
    sched->observe(server->acquire(), out.dirty, since);
    sched->tick_if_waiting();
    apply_events(expected, batch);

    const Clock::time_point g0 = Clock::now();
    fill_queries(in, e, cold_next, queries);
    untimed_s += seconds_between(g0, Clock::now());
    const Snapshot& s = server->acquire();
    if (!traced) {
      for (const Query& q : queries) checksum += answer(s, q);
    } else {
      // Traced: the epoch's answers grouped by layer, one span each.
      const auto serve = [&](const char* name, auto pick) {
        const obs::Span span(trace, name);
        std::size_t n = 0;
        for (const Query& q : queries) {
          if (pick(q)) {
            checksum += answer(s, q);
            ++n;
          }
        }
        return n;
      };
      pass.status_answers += serve("svc.status", [](const Query& q) {
        return q.kind == QueryKind::Status;
      });
      pass.region_answers += serve("svc.region", [](const Query& q) {
        return q.kind == QueryKind::Region;
      });
      pass.hot_answers += serve("routing.hot", [](const Query& q) {
        return q.kind == QueryKind::Route && !q.cold;
      });
      for (const Query& q : queries) {
        if (q.kind == QueryKind::Route && q.cold) {
          const obs::Span span(trace, "routing.miss");
          checksum += answer(s, q);
        }
      }
    }

    if (check < in.check_epochs.size() && in.check_epochs[check] == e) {
      const Clock::time_point c0 = Clock::now();
      Recorded rec{expected, queries, {}};
      for (const Query& q : rec.queries) rec.answers.push_back(full_answer(s, q));
      recorded.push_back(std::move(rec));
      ++check;
      untimed_s += seconds_between(c0, Clock::now());
    }
  }
  pass.loop_s = seconds_between(loop_start, Clock::now()) - untimed_s;
  pass.peak_rss_mb = peak_rss_mb();  // before the checks build references
  if (checksum == 0) r.fail_check("answer checksum is zero");

  // -- checks, outside the timed phase ---------------------------------------
  const auto final_snap = server->snapshot();
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const Recorded& rec = recorded[i];
    const ocp::labeling::MaintainedLabeling reference_labeling(rec.faults);
    const auto reference = Snapshot::build(0, reference_labeling);
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < rec.queries.size(); ++k) {
      if (full_answer(*reference, rec.queries[k]) != rec.answers[k]) ++wrong;
    }
    if (wrong > 0) {
      r.failed += wrong;
      r.fail_check(std::to_string(wrong) + " recorded answers disagree with the reference");
    }
    r.attempted += rec.queries.size();
    if (i + 1 == recorded.size()) {
      if (reference->label_digest() != final_snap->label_digest()) {
        r.fail_check("final label digest differs from a fresh build");
      }
      if (!(rec.faults == final_snap->faults())) {
        r.fail_check("final fault set differs from the generated stream");
      }
    }
  }
  const auto report = final_snap->validate(ocp::labeling::SafeUnsafeDef::Def2b);
  if (!report.ok()) r.fail_check("final snapshot fails the invariant oracle");
  const auto alloc_report = ocp::alloc::check_engine(sched->engine(), *final_snap);
  if (!alloc_report.ok()) r.fail_check("allocation oracle reports a violation");

  const ocp::alloc::AllocStats& st = sched->engine().stats();
  report_scheduler(*sched);
  r.attempted += static_cast<std::uint64_t>(pass.events.sum()) +
                 in.jobs.size() + st.evicted;
  r.failed += sched->rejected() + st.shed;

  pass.replace_us = sched->replace_us();
  pass.util_peak = sched->util_peak();
  pass.label_digest = final_snap->label_digest();
  pass.placement_digest = sched->engine().placement_digest();
  pass.apply_us = server->applies() > 0
                      ? server->apply_s() * 1e6 /
                            static_cast<double>(server->applies())
                      : 0;
  pass.route_cache_entries = final_snap->route_cache().size();
  pass.counts = server->counts();
  pass.alloc = alloc_counts(*sched);
  return pass;
}

void report_end_to_end(const Pass& p, Result& r) {
  r.set("setup_s", p.setup_s);
  r.set("peak_rss_mb", p.peak_rss_mb);
  // Applied events per second of batch-to-first-answer time.
  const BusyQuarter busy(p.op_us);
  r.set("ops_per_s", busy.rate_per_s(p.events, p.fresh_us));
  r.set_percentiles("op", p.op_us, busy);
  r.set_percentiles("fresh", p.fresh_us, busy);
  r.set_percentiles("replace", p.replace_us, busy, false);
  r.set("util_peak", p.util_peak);
}

void report_layers(const Pass& plain, const Pass& traced,
                   const Tracer& tracer, std::size_t epochs, Result& r) {
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const auto total_us_per_epoch = [&](const char* name) {
    return tracer.total_ns(name) / static_cast<double>(epochs) / 1e3;
  };
  const auto ep = static_cast<double>(epochs);
  const EpochCounts& c = traced.counts;
  r.set("svc.apply_us", plain.apply_us);
  r.set("svc.coalesce_us", total_us_per_epoch("svc.coalesce"));
  r.set("svc.tile_mask_us", total_us_per_epoch("svc.tile_mask"));
  r.set("svc.snapshot_next_us", tracer.mean_ns("svc.snapshot_next") / 1e3);
  r.set("svc.first_answer_us", tracer.mean_ns("svc.first_answer") / 1e3);
  r.set("svc.pages_copied", per(static_cast<double>(c.pages_copied), ep));
  r.set("svc.pages_shared", per(static_cast<double>(c.pages_shared), ep));
  r.set("svc.coalesced", static_cast<double>(c.coalesced));
  r.set("svc.status_ns", per(tracer.total_ns("svc.status"),
                             static_cast<double>(traced.status_answers)));
  r.set("svc.region_ns", per(tracer.total_ns("svc.region"),
                             static_cast<double>(traced.region_answers)));
  r.set("routing.route_hit_ns", per(tracer.total_ns("routing.hot"),
                                    static_cast<double>(traced.hot_answers)));
  r.set("routing.route_miss_us", tracer.mean_ns("routing.miss") / 1e3);
  r.set("routing.cache_hit_frac",
        per(static_cast<double>(c.route_hits),
            static_cast<double>(c.route_hits + c.route_misses)));
  r.set("routing.cache_entries", static_cast<double>(traced.route_cache_entries));
  r.set("routing.routes_carried", per(static_cast<double>(c.routes_carried), ep));
  r.set("routing.routes_invalidated",
        per(static_cast<double>(c.routes_invalidated), ep));
  r.set("core.relabel_us", tracer.mean_ns("core.relabel") / 1e3);
  r.set("core.dirty_cells",
        per(static_cast<double>(c.dirty_cells), static_cast<double>(c.events)));
  r.set("core.build_s", tracer.total_ns("core.build") / 1e9);
  report_alloc_layers(tracer, traced.alloc, r);
  // The stages of `apply` the traced run drove, as a share of the untraced
  // engine's own `apply`.
  const double stages_us =
      total_us_per_epoch("svc.coalesce") + total_us_per_epoch("core.relabel") +
      total_us_per_epoch("svc.tile_mask") +
      total_us_per_epoch("svc.snapshot_next");
  r.set("trace.apply_coverage", per(stages_us, plain.apply_us));
  r.set("trace.overhead", traced.loop_s / plain.loop_s - 1.0);
}

}  // namespace

void run_churn_1024(const Options& opt, Result& r) {
  const auto epochs =
      static_cast<std::size_t>(std::llround(kEpochsPerSecond * opt.seconds));
  const Inputs in = generate(epochs, opt.seed);
  if (!opt.trace) {
    const Pass p = run_pass(in, 3, obs::TraceConfig{}, r);
    report_end_to_end(p, r);
    r.digests["label"] = p.label_digest;
    r.digests["placement"] = p.placement_digest;
    return;
  }
  // Traced run: the untraced pass first (the engine's own `apply`, and the
  // digests the traced pass must reproduce), then the staged traced pass.
  Result plain_result;
  const Pass plain = run_pass(in, 1, obs::TraceConfig{}, plain_result);
  Tracer tracer;
  const Pass traced = run_pass(in, 1, tracer.config(), r);
  if (!plain_result.correct) r.fail_check("untraced pass failed its checks");
  if (plain.label_digest != traced.label_digest) {
    r.fail_check("traced and untraced label digests differ");
  }
  if (plain.placement_digest != traced.placement_digest) {
    r.fail_check("traced and untraced placement digests differ");
  }
  tracer.summarize();
  report_layers(plain, traced, tracer, epochs, r);
  r.digests["label"] = traced.label_digest;
  r.digests["placement"] = traced.placement_digest;
  tracer.write(opt.trace_dir + "/churn_1024-seed" + std::to_string(opt.seed) +
               ".jsonl");
}

}  // namespace pb
