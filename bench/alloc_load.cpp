// Microbenchmarks of the allocation subsystem (src/alloc): the
// incremental free-region index against a from-scratch rebuild (the
// wall-clock twin of the deterministic cells_patched() pin in
// tests/alloc/free_index_test.cpp), per-strategy placement-decision
// throughput, one re-formation's `observe_epoch`, and the closed-loop
// driver end to end at 1/2/8 reader threads. The closed-loop rows export
// utilization / fragmentation / placement p99 / storm-recovery counters,
// which is where the committed allocation table in EXPERIMENTS.md comes
// from. run_bench.sh --alloc gates fresh runs against BENCH_alloc.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "alloc/engine.hpp"
#include "alloc/loadgen.hpp"
#include "alloc/strategy.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "svc/ingest.hpp"

namespace {

using namespace ocp;

constexpr std::int32_t kIndexSide = 64;

/// Seeded fault cells for the index churn benchmarks: distinct coordinates
/// so every toggle flips state (a no-op toggle would patch nothing and
/// flatter the incremental number).
std::vector<mesh::Coord> churn_cells(const mesh::Mesh2D& m, std::size_t count,
                                     std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<mesh::Coord> cells;
  std::vector<std::uint8_t> taken(static_cast<std::size_t>(m.node_count()), 0);
  while (cells.size() < count) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() - 1));
    if (taken[i] != 0) continue;
    taken[i] = 1;
    cells.push_back(m.coord(i));
  }
  return cells;
}

// A single-fault epoch against the incrementally maintained index: each
// toggle flips one bit of the free-cell plane, never the whole plane.
// Items are single-cell epochs. The committed ratio of this row to
// BM_AllocIndexSingleFaultRebuild is the wall-clock form of the >= 4x
// incremental-vs-rebuild pin.
void BM_AllocIndexSingleFaultIncremental(benchmark::State& state) {
  const mesh::Mesh2D m(kIndexSide, kIndexSide);
  alloc::FreeRegionIndex idx(m);
  const std::vector<mesh::Coord> cells = churn_cells(m, 512, 29);

  std::size_t at = 0;
  std::vector<std::uint8_t> is_busy(cells.size(), 0);
  std::int64_t epochs = 0;
  for (auto _ : state) {
    // Cycle fault -> repair over the fixed cell set so the busy density
    // stays bounded however long the timer runs.
    const std::size_t i = at % cells.size();
    is_busy[i] ^= 1;
    idx.set_busy(cells[i], is_busy[i] != 0);
    ++at;
    ++epochs;
    benchmark::DoNotOptimize(idx.free_cells());
  }
  state.SetItemsProcessed(epochs);
  state.counters["cells_patched_per_epoch"] =
      epochs > 0 ? static_cast<double>(idx.cells_patched()) /
                       static_cast<double>(epochs)
                 : 0.0;
  state.SetLabel("items = single-cell epochs");
}
BENCHMARK(BM_AllocIndexSingleFaultIncremental);

// The same single-fault epochs paid for by a from-scratch rebuild: flip the
// cell in a busy plane, then reconstruct the whole index from it — what
// epoch turnover would cost without single-bit flips.
void BM_AllocIndexSingleFaultRebuild(benchmark::State& state) {
  const mesh::Mesh2D m(kIndexSide, kIndexSide);
  const std::vector<mesh::Coord> cells = churn_cells(m, 512, 29);
  std::vector<std::uint8_t> busy(static_cast<std::size_t>(m.node_count()), 0);
  const auto cell_index = [&m](mesh::Coord c) {
    return static_cast<std::size_t>(c.y) *
               static_cast<std::size_t>(m.width()) +
           static_cast<std::size_t>(c.x);
  };

  std::size_t at = 0;
  std::int64_t epochs = 0;
  for (auto _ : state) {
    const std::size_t i = at % cells.size();
    busy[cell_index(cells[i])] ^= 1;
    ++at;
    ++epochs;
    const alloc::FreeRegionIndex idx = alloc::FreeRegionIndex::build(
        m, [&](mesh::Coord c) { return busy[cell_index(c)] != 0; });
    benchmark::DoNotOptimize(idx.free_cells());
  }
  state.SetItemsProcessed(epochs);
  state.SetLabel("items = single-cell epochs");
}
BENCHMARK(BM_AllocIndexSingleFaultRebuild);

// Placement-decision throughput per strategy: choose() against a fixed
// 64x64 index with ~12% scattered busy cells, over a seeded mix of job
// shapes. Arg is the StrategyKind; items are decisions (hits and misses
// both count — a nullopt is a full anchor sweep too).
void BM_AllocPlacementDecision(benchmark::State& state) {
  const auto kind = static_cast<alloc::StrategyKind>(state.range(0));
  const mesh::Mesh2D m(kIndexSide, kIndexSide);
  alloc::FreeRegionIndex idx(m);
  for (const mesh::Coord c : churn_cells(m, 512, 31)) idx.set_busy(c, true);
  const auto strategy = alloc::make_strategy(kind);
  const std::vector<alloc::JobRequest> jobs = alloc::generate_job_stream(
      m, 64, /*max_side=*/8, /*min_lifetime=*/1, /*max_lifetime=*/1, 37);

  std::size_t at = 0;
  std::int64_t decisions = 0;
  for (auto _ : state) {
    const alloc::JobRequest& j = jobs[at % jobs.size()];
    ++at;
    ++decisions;
    benchmark::DoNotOptimize(strategy->choose(idx, j.width, j.height));
  }
  state.SetItemsProcessed(decisions);
  state.SetLabel(strategy->name());
}
BENCHMARK(BM_AllocPlacementDecision)->Arg(0)->Arg(1)->Arg(2);

// One re-formation as the allocator sees it: a 256x256 machine at 2% faults
// carrying 1,024 first-fit jobs of sides 1-6 observes an independent 2%
// machine, so every cell whose status differs is dirty and each job on a
// newly blocked cell is evicted and re-placed. Only `observe_epoch` is
// timed (its blocked-plane refresh, the evictions with their re-placing
// anchor searches, the drain and the publish); the engine is rebuilt and
// refilled outside the timer before every call.
void BM_AllocObserveReform(benchmark::State& state) {
  const mesh::Mesh2D m(256, 256);
  const auto faults = static_cast<std::size_t>(m.node_count() / 50);
  stats::Rng rng(43);
  const std::shared_ptr<const svc::Snapshot> before =
      svc::IngestEngine(fault::uniform_random(m, faults, rng)).snapshot();
  const std::shared_ptr<const svc::Snapshot> after =
      svc::IngestEngine(fault::uniform_random(m, faults, rng)).snapshot();
  std::vector<mesh::Coord> dirty;
  for (std::int32_t y = 0; y < m.height(); ++y) {
    for (std::int32_t x = 0; x < m.width(); ++x) {
      if (before->status_of({x, y}) != after->status_of({x, y})) {
        dirty.push_back({x, y});
      }
    }
  }
  const std::vector<alloc::JobRequest> jobs = alloc::generate_job_stream(
      m, 1024, /*max_side=*/6, /*min_lifetime=*/1, /*max_lifetime=*/1, 47);

  std::unique_ptr<alloc::AllocEngine> engine;
  alloc::EpochOutcome last;
  for (auto _ : state) {
    state.PauseTiming();
    engine = std::make_unique<alloc::AllocEngine>(*before);
    for (const alloc::JobRequest& j : jobs) {
      static_cast<void>(engine->submit(j));
    }
    state.ResumeTiming();
    last = engine->observe_epoch(*after, dirty);
    benchmark::DoNotOptimize(last);
  }
  state.counters["dirty"] = static_cast<double>(dirty.size());
  state.counters["evicted"] = static_cast<double>(last.evicted);
  state.counters["replaced"] = static_cast<double>(last.replaced);
  state.SetLabel("items = re-formations");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocObserveReform)->Unit(benchmark::kMicrosecond);

// The allocation subsystem end to end under the closed-loop driver: one
// writer interleaving job submissions with fault churn (including the
// mid-run eviction storm) against N readers polling the published view.
// Items are placement decisions; the counters surface the replay-identical
// workload outcomes the committed EXPERIMENTS.md table reports. The arg is
// the reader-thread count — the replay digests are bit-identical across
// rows, so real-time deltas here are pure reader-side cost.
void BM_AllocClosedLoop(benchmark::State& state) {
  alloc::AllocLoadConfig config;
  config.mesh_side = 24;
  config.jobs = 192;
  config.fault_events = 72;
  config.storm_side = 8;
  config.reader_threads = static_cast<std::size_t>(state.range(0));
  config.reads_per_thread = 500;
  config.seed = 41;

  std::int64_t decisions = 0;
  alloc::AllocLoadResult last;
  for (auto _ : state) {
    const alloc::AllocLoadResult result = alloc::run_alloc_load(config);
    decisions += static_cast<std::int64_t>(
        result.stats.placed + result.stats.replaced + result.stats.rejected);
    last = result;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(decisions);
  state.counters["peak_utilization"] = last.peak_utilization;
  state.counters["frag_at_peak"] = last.fragmentation_at_peak;
  state.counters["p99_place_us"] = last.p99_place_us;
  state.counters["storm_evicted"] = static_cast<double>(last.storm_evicted);
  state.counters["storm_recovery_ticks"] =
      static_cast<double>(last.storm_recovery_ticks);
  state.counters["oracle_ok"] = last.oracle_ok ? 1.0 : 0.0;
  state.SetLabel("items = placement decisions");
}
BENCHMARK(BM_AllocClosedLoop)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
