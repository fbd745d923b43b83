// label_cold: the paper's distributed formation, cold, machine after
// machine. The input is a seeded sequence of independent 256x256 machines at
// 2% uniform faults, each labeled from scratch by the simkernel synchronous
// runner (Definition 2b, frontier mode, serial).
//
// A run is a sequence of rounds. Each round labels a chunk of kChunk machines
// back to back (the timed operations), hands the chunk's last machine to a
// scheduler that holds a fixed job population, as if one machine were
// re-formed again and again (every job the new machine blocks is evicted and
// must be placed again), and then checks the chunk: every machine is labeled
// again by Engine::Reference and its label digest compared. Interleaving at
// chunk granularity keeps each chunk's labelings back to back while the
// timed operations still span the whole run.
//
// After the rounds, a capacity probe offers a fresh first-fit engine on the
// last machine one job after another until a job does not fit; the
// utilization it reached is util_peak, the packing the strategy achieves.

#include <cmath>
#include <cstdio>

#include "alloc/oracle.hpp"
#include "core/activation_protocol.hpp"
#include "core/regions.hpp"
#include "core/safety_protocol.hpp"
#include "simkernel/sync_runner.hpp"
#include "stack.hpp"

namespace pb {

namespace {

using ocp::labeling::PipelineResult;
using ocp::mesh::Coord;
using ocp::svc::Snapshot;

constexpr std::int32_t kSide = 256;
constexpr double kFaultRate = 0.02;
/// Rounds per `--seconds`, and machines per round.
constexpr double kRoundsPerSecond = 12.5;
constexpr std::size_t kChunk = 16;
/// The scheduler's population: kJobs jobs of sides 1..kJobSideCap, placed
/// during set-up and never expiring. See README.md for how they were sized.
constexpr std::size_t kJobs = 16 * 64;
constexpr std::int32_t kJobSideCap = 6;
/// The capacity probe's job sizes: sides 1..12, as a scheduler would see.
constexpr std::int32_t kProbeSideCap = 12;

/// Machine k's fault set is drawn from `machine_seeds[k]` whenever it is
/// needed (outside the timed operations), so the inputs never sit in memory
/// all at once; machine 0 is the one set-up labels.
struct Inputs {
  std::vector<std::uint64_t> machine_seeds;
  std::vector<ocp::alloc::JobRequest> jobs;
  std::vector<ocp::alloc::JobRequest> probe_jobs;
};

Inputs generate(std::size_t machines, std::uint64_t seed) {
  Rng master(seed);
  Rng job_rng = master.fork();
  Rng probe_rng = master.fork();
  Inputs in;
  for (std::size_t k = 0; k <= machines; ++k) {
    in.machine_seeds.push_back(master.next());
  }
  in.jobs = make_jobs(job_rng, kJobs, kJobSideCap, 1);
  // At most one job per cell fits.
  in.probe_jobs = make_jobs(probe_rng, static_cast<std::size_t>(kSide) * kSide,
                            kProbeSideCap, 1);
  return in;
}

ocp::grid::CellSet machine(const Inputs& in, std::size_t k) {
  Rng rng(in.machine_seeds[k]);
  return uniform_faults(ocp::mesh::Mesh2D(kSide, kSide), kFaultRate, rng);
}

/// A faulty node of `faults` (the first in row-major order): the probe whose
/// answer must reflect the new machine.
Coord first_fault(const ocp::grid::CellSet& faults) {
  const ocp::mesh::Mesh2D& m = faults.topology();
  for (std::int32_t y = 0; y < m.height(); ++y) {
    for (std::int32_t x = 0; x < m.width(); ++x) {
      if (faults.contains({x, y})) return {x, y};
    }
  }
  return {0, 0};
}

/// `run_pipeline`'s distributed path, phase by phase through the public
/// protocol and kernel calls, each phase under its own span.
PipelineResult staged_pipeline(const ocp::grid::CellSet& faults,
                               const obs::TraceConfig& trace) {
  using namespace ocp::labeling;
  const ocp::mesh::Mesh2D& m = faults.topology();
  const ocp::mesh::AdjacencyTable& adj = ocp::mesh::AdjacencyTable::cached(m);
  const ocp::sim::RunOptions run{.mode = ocp::sim::RunMode::Frontier,
                                 .parallel = false};
  ocp::grid::NodeGrid<Safety> safety(m, Safety::Safe);
  ocp::grid::NodeGrid<Activation> activation(m, Activation::Enabled);
  ocp::sim::RoundStats s1;
  ocp::sim::RoundStats s2;
  {
    const obs::Span span(trace, "core.phase1");
    const SafetyProtocol phase1(faults, SafeUnsafeDef::Def2b);
    auto r1 = ocp::sim::run_sync(adj, phase1, run);
    s1 = r1.stats;
    for (std::size_t i = 0; i < safety.size(); ++i) {
      safety.at_index(i) = r1.states.at_index(i).safety;
    }
  }
  {
    const obs::Span span(trace, "core.phase2");
    const ActivationProtocol phase2(faults, safety);
    auto r2 = ocp::sim::run_sync(adj, phase2, run);
    s2 = r2.stats;
    for (std::size_t i = 0; i < activation.size(); ++i) {
      activation.at_index(i) = r2.states.at_index(i).activation;
    }
  }
  PipelineResult result{std::move(safety), std::move(activation), {}, {}, s1, s2};
  const obs::Span span(trace, "core.extract");
  result.blocks = extract_faulty_blocks(faults, result.safety);
  result.regions =
      extract_disabled_regions(faults, result.activation, result.blocks);
  return result;
}

PipelineResult label(const ocp::grid::CellSet& faults,
                     const obs::TraceConfig& trace) {
  if (trace.enabled()) return staged_pipeline(faults, trace);
  return ocp::labeling::run_pipeline(
      faults, {.definition = ocp::labeling::SafeUnsafeDef::Def2b,
               .engine = ocp::labeling::Engine::Distributed,
               .run_mode = ocp::sim::RunMode::Frontier,
               .parallel = false});
}

std::shared_ptr<const Snapshot> serve(std::uint64_t epoch,
                                      const ocp::grid::CellSet& faults,
                                      PipelineResult&& res) {
  return std::make_shared<const Snapshot>(
      epoch, faults, std::move(res.safety), std::move(res.activation),
      std::move(res.blocks), std::move(res.regions), ocp::routing::Hand::Right);
}

/// The utilization at which a first-fit engine on `snap`, offered `jobs` in
/// order, first fails to place one.
double capacity(const Snapshot& snap,
                const std::vector<ocp::alloc::JobRequest>& jobs) {
  ocp::alloc::AllocEngine engine(
      snap, {.strategy = ocp::alloc::StrategyKind::FirstFit});
  for (const auto& job : jobs) {
    if (engine.submit(job).outcome != ocp::alloc::SubmitOutcome::Placed) break;
  }
  return engine.utilization();
}

struct Pass {
  double setup_s = 0;
  double label_s = 0;
  /// One per labeling, stamped like its latency.
  Samples machines;
  Samples op_us;
  Samples fresh_us;
  Samples replace_us;
  double util_peak = 0;
  double peak_rss_mb = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// FNV-1a fold of every machine's label digest.
  std::uint64_t label_digest = 0xcbf29ce484222325ULL;
  std::uint64_t placement_digest = 0;
  AllocCounts alloc;
};

Pass run_pass(const Inputs& in, int reps,
              const obs::TraceConfig& trace, Result& r) {
  Pass pass;
  std::shared_ptr<const Snapshot> current;
  std::unique_ptr<Scheduler> sched;
  Samples setups;
  for (int rep = 0; rep < reps; ++rep) {
    sched.reset();
    current.reset();
    // Set-up spans several windows; it visits the CPUs as the timed
    // phase does.
    CpuRotation rotation;
    const Clock::time_point t0 = Clock::now();
    const ocp::grid::CellSet initial = machine(in, 0);
    {
      const obs::Span span(trace, "core.build");
      current = serve(0, initial, label(initial, obs::TraceConfig{}));
    }
    sched = std::make_unique<Scheduler>(*current, trace);
    for (const auto& job : in.jobs) {
      rotation.step(Clock::now());
      if (sched->submit(job) != ocp::alloc::SubmitOutcome::Placed) {
        r.fail_check("set-up job not placed");
      }
    }
    setups.add(seconds_between(t0, Clock::now()));
  }
  pass.setup_s = setups.percentile(0.5);

  sched->begin_timed();
  CpuRotation rotation;
  const ocp::mesh::Mesh2D& m = current->machine();
  const std::size_t machines = in.machine_seeds.size() - 1;
  std::vector<Coord> dirty;
  std::vector<std::uint64_t> digests(kChunk);
  // Evictions per half of the run: the scheduler's load must not drift.
  std::uint64_t evicted_at_half = 0;
  for (std::size_t first = 1; first <= machines; first += kChunk) {
    if ((first - 1) / kChunk == machines / kChunk / 2) {
      evicted_at_half = sched->engine().stats().evicted;
    }
    // The chunk's labelings: the timed operations.
    std::shared_ptr<const Snapshot> last;
    Clock::time_point last_t0;
    for (std::size_t i = 0; i < kChunk; ++i) {
      const std::size_t k = first + i;
      const ocp::grid::CellSet faults = machine(in, k);
      const Coord probe = first_fault(faults);
      rotation.step(Clock::now());
      const Clock::time_point t0 = Clock::now();
      PipelineResult res = label(faults, trace);
      const Clock::time_point t1 = Clock::now();
      pass.machines.add(1.0, t0);
      pass.op_us.add(us_between(t0, t1), t0);
      pass.label_s += seconds_between(t0, t1);
      pass.rounds += static_cast<std::uint64_t>(
          res.safety_stats.rounds_executed + res.activation_stats.rounds_executed);
      pass.messages += res.safety_stats.messages_broadcast +
                       res.activation_stats.messages_broadcast;
      std::shared_ptr<const Snapshot> served;
      {
        const obs::Span span(trace, "svc.first_answer");
        served = serve(k, faults, std::move(res));
        if (served->status_of(probe) != ocp::svc::NodeStatus::Faulty) {
          ++r.failed;
          r.fail_check("first answer did not reflect the machine's faults");
        }
      }
      pass.fresh_us.add(us_between(t0, Clock::now()), t0);
      digests[i] = served->label_digest();
      pass.label_digest = (pass.label_digest ^ digests[i]) * 0x100000001b3ULL;
      last = std::move(served);
      last_t0 = t0;
    }

    // Re-formation: the scheduler sees the cells whose served status the
    // chunk's last machine changed; replacement is timed from its labeling.
    dirty.clear();
    for (std::int32_t y = 0; y < m.height(); ++y) {
      for (std::int32_t x = 0; x < m.width(); ++x) {
        if (last->status_of({x, y}) != current->status_of({x, y})) {
          dirty.push_back({x, y});
        }
      }
    }
    sched->observe(*last, dirty, last_t0);
    sched->tick_if_waiting();
    current = std::move(last);

    // Checks, outside the timed operations: the centralized reference.
    for (std::size_t i = 0; i < kChunk; ++i) {
      const std::size_t k = first + i;
      const ocp::grid::CellSet faults = machine(in, k);
      const auto reference = serve(
          k, faults,
          ocp::labeling::run_pipeline(
              faults, {.definition = ocp::labeling::SafeUnsafeDef::Def2b,
                       .engine = ocp::labeling::Engine::Reference}));
      if (reference->label_digest() != digests[i]) {
        ++r.failed;
        r.fail_check("distributed labeling differs from Engine::Reference");
      }
    }
  }
  pass.peak_rss_mb = peak_rss_mb();
  const std::uint64_t evicted = sched->engine().stats().evicted;
  std::fprintf(stderr, "perfbench: label_cold evictions per half: %llu %llu\n",
               static_cast<unsigned long long>(evicted_at_half),
               static_cast<unsigned long long>(evicted - evicted_at_half));

  if (!ocp::alloc::check_engine(sched->engine(), *current).ok()) {
    r.fail_check("allocation oracle reports a violation");
  }
  const ocp::alloc::AllocStats& st = sched->engine().stats();
  report_scheduler(*sched);
  r.attempted += machines + in.jobs.size() + st.evicted;
  r.failed += sched->rejected() + st.shed;
  pass.replace_us = sched->replace_us();
  pass.util_peak = capacity(*current, in.probe_jobs);
  pass.placement_digest = sched->engine().placement_digest();
  pass.alloc = alloc_counts(*sched);
  return pass;
}

}  // namespace

void run_label_cold(const Options& opt, Result& r) {
  const std::size_t machines =
      kChunk * static_cast<std::size_t>(std::llround(kRoundsPerSecond * opt.seconds));
  const Inputs in = generate(machines, opt.seed);
  if (!opt.trace) {
    const Pass p = run_pass(in, 3, obs::TraceConfig{}, r);
    r.set("setup_s", p.setup_s);
    r.set("peak_rss_mb", p.peak_rss_mb);
    const BusyQuarter busy(p.op_us);
    r.set("ops_per_s", busy.rate_per_s(p.machines, p.op_us));
    r.set_percentiles("op", p.op_us, busy);
    r.set_percentiles("fresh", p.fresh_us, busy);
    r.set_percentiles("replace", p.replace_us, busy, false);
    r.set("util_peak", p.util_peak);
    r.digests["label"] = p.label_digest;
    r.digests["placement"] = p.placement_digest;
    return;
  }
  Result plain_result;
  const Pass plain = run_pass(in, 1, obs::TraceConfig{}, plain_result);
  Tracer tracer;
  const Pass traced = run_pass(in, 1, tracer.config(), r);
  if (!plain_result.correct) r.fail_check("untraced pass failed its checks");
  if (plain.label_digest != traced.label_digest ||
      plain.rounds != traced.rounds || plain.messages != traced.messages) {
    r.fail_check("traced and untraced labelings differ");
  }
  if (plain.placement_digest != traced.placement_digest) {
    r.fail_check("traced and untraced placement digests differ");
  }
  tracer.summarize();
  const auto n = static_cast<double>(machines);
  r.set("core.phase1_ms", tracer.mean_ns("core.phase1") / 1e6);
  r.set("core.phase2_ms", tracer.mean_ns("core.phase2") / 1e6);
  r.set("core.extract_ms", tracer.mean_ns("core.extract") / 1e6);
  r.set("core.build_s", tracer.mean_ns("core.build") / 1e9);
  r.set("svc.first_answer_us", tracer.mean_ns("svc.first_answer") / 1e3);
  r.set("simkernel.rounds", static_cast<double>(traced.rounds) / n);
  r.set("simkernel.messages", static_cast<double>(traced.messages) / n);
  report_alloc_layers(tracer, traced.alloc, r);
  r.set("trace.overhead", traced.label_s / plain.label_s - 1.0);
  r.digests["label"] = traced.label_digest;
  r.digests["placement"] = traced.placement_digest;
  tracer.write(opt.trace_dir + "/label_cold-seed" + std::to_string(opt.seed) +
               ".jsonl");
}

}  // namespace pb
