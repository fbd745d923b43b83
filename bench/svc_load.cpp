// Microbenchmarks of the serving runtime (src/svc): ingest churn, the
// query front's hot paths, and the closed-loop load generator end to end.
// Throughput is items_per_second where an item is one applied event
// (ingest) or one delivered answer (queries); the closed-loop benchmarks
// also export the generator's p50/p99 latency as counters, which is where
// the committed qps/p99 table in EXPERIMENTS.md comes from.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "fault/generators.hpp"
#include "svc/loadgen.hpp"

namespace {

using namespace ocp;

// Fault/repair churn through the single-writer engine: replays a seeded
// 256-event stream in 16-event batches. Items are applied events (net
// fault-set changes). Engine construction (the epoch-0 labeling and
// snapshot) happens outside the measurement region — the numbers are
// epoch-turnover cost only, not construction cost. The 16x16 and 32x32
// machines start from 10 faults; the 256x256 and 1024x1024 ones from a
// 0.5% background (328 and 5,243 faults), so turnover runs against
// hundreds to thousands of blocks the events never touch.
void BM_SvcIngestChurn(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(11);
  const std::size_t background =
      n >= 256 ? static_cast<std::size_t>(m.node_count()) / 200 : 10;
  const auto initial = fault::uniform_random(m, background, rng);
  const auto stream = svc::generate_event_stream(m, initial, 256, 0.45, 13);

  std::int64_t applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = std::make_unique<svc::IngestEngine>(initial);
    state.ResumeTiming();
    for (std::size_t at = 0; at < stream.size(); at += 16) {
      const auto outcome = engine->apply(
          std::span(stream).subspan(at, std::min<std::size_t>(
                                            16, stream.size() - at)));
      applied += static_cast<std::int64_t>(outcome.applied);
    }
    benchmark::DoNotOptimize(engine->snapshot());
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(applied);
  state.SetLabel("items = applied events");
}
BENCHMARK(BM_SvcIngestChurn)->Arg(16)->Arg(32)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Epoch turnover as a serving process sees it: one 8-event fault/repair
// batch (half repairs) applied at a 0.5% background, then the epoch's first
// `acquire`, which retires the previous epoch. Between steps, outside the
// timing, the new epoch answers 38 route queries over 1,024 hot pairs whose
// destinations lie within 32 cells of their sources, so a warm cache of
// ~200 routes is carried into every step (unlike BM_SvcIngestChurn, whose
// engine caches no routes). Items are applied events; the time per
// iteration is the batch-to-fresh-epoch latency.
void BM_SvcEpochTurnover(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(23);
  const auto pick = [&] {
    return mesh::Coord{static_cast<std::int32_t>(rng.uniform_int(0, n - 1)),
                       static_cast<std::int32_t>(rng.uniform_int(0, n - 1))};
  };
  svc::IngestEngine engine(fault::uniform_random(
      m, static_cast<std::size_t>(m.node_count()) / 200, rng));
  std::vector<mesh::Coord> faults = engine.labeling().faults().to_vector();
  std::vector<std::pair<mesh::Coord, mesh::Coord>> hot;
  while (hot.size() < 1024) {
    const mesh::Coord a = pick();
    const auto near = [&](std::int32_t v) {
      return std::clamp<std::int32_t>(
          v + static_cast<std::int32_t>(rng.uniform_int(-32, 32)), 0, n - 1);
    };
    hot.emplace_back(a, mesh::Coord{near(a.x), near(a.y)});
  }
  for (const auto& [a, b] : hot) {
    benchmark::DoNotOptimize(engine.acquire().route(a, b));
  }

  std::vector<svc::FaultEvent> batch;
  std::int64_t applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (int k = 0; k < 8; ++k) {
      if (k % 2 == 0 && !faults.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(faults.size()) - 1));
        batch.push_back({svc::EventKind::Repair, faults[i]});
        faults[i] = faults.back();
        faults.pop_back();
      } else {
        mesh::Coord c = pick();
        while (engine.labeling().faults().contains(c)) c = pick();
        batch.push_back({svc::EventKind::Fault, c});
        faults.push_back(c);
      }
    }
    state.ResumeTiming();
    const svc::BatchOutcome outcome = engine.apply(batch);
    const svc::Snapshot& fresh = engine.acquire();
    benchmark::DoNotOptimize(fresh.status_of(batch.back().node));
    applied += static_cast<std::int64_t>(outcome.applied);
    state.PauseTiming();
    for (int q = 0; q < 38; ++q) {
      const auto& [a, b] = hot[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hot.size()) - 1))];
      benchmark::DoNotOptimize(fresh.route(a, b));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(applied);
  state.SetLabel("items = applied events");
}
BENCHMARK(BM_SvcEpochTurnover)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Steady-state single-thread query throughput against a fixed snapshot:
// the RCU acquire + O(1) status/region answer path.
void BM_SvcQueryStatus(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(17);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  for (auto _ : state) {
    const mesh::Coord c = m.coord(i % static_cast<std::size_t>(m.node_count()));
    i += 131;  // coprime stride: sweep the machine without an RNG in the loop
    const auto answer = service.query_status(c);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryStatus);

// Route queries against a warmed per-epoch cache: after the first sweep
// every lookup is a shared-lock index hit returning a stored entry.
void BM_SvcQueryRouteWarm(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(19);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  for (auto _ : state) {
    const auto nodes = static_cast<std::size_t>(m.node_count());
    const mesh::Coord src = m.coord(i % 64);  // 64x64 distinct pairs
    const mesh::Coord dst = m.coord(nodes - 1 - (i * 7) % 64);
    i += 1;
    const auto answer = service.query_route(src, dst);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryRouteWarm);

// Route queries where (nearly) every pair is new: the miss path — route
// computation plus insertion under the exclusive lock. Pairs are
// enumerated so no pair repeats within ~node_count^2 queries, far more
// than a timed run consumes.
void BM_SvcQueryRouteCold(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(19);
  svc::Service service(fault::uniform_random(m, 12, rng));

  std::size_t i = 0;
  std::int64_t answered = 0;
  const auto nodes = static_cast<std::size_t>(m.node_count());
  for (auto _ : state) {
    const std::size_t src_index = i % nodes;
    const std::size_t stride = 1 + i / nodes;  // new dst sweep per lap
    const mesh::Coord src = m.coord(src_index);
    const mesh::Coord dst = m.coord((src_index + stride) % nodes);
    i += 1;
    const auto answer = service.query_route(src, dst);
    benchmark::DoNotOptimize(answer);
    ++answered;
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryRouteCold);

// Batched queries: one snapshot acquisition amortized over 8 mixed items.
void BM_SvcQueryBatch8(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(32);
  stats::Rng rng(23);
  svc::Service service(fault::uniform_random(m, 12, rng));
  const std::vector<svc::QueryItem> items = {
      {svc::QueryKind::Status, {1, 1}, {}},
      {svc::QueryKind::Region, {30, 2}, {}},
      {svc::QueryKind::Status, {15, 15}, {}},
      {svc::QueryKind::Route, {0, 0}, {31, 31}},
      {svc::QueryKind::Region, {7, 22}, {}},
      {svc::QueryKind::Status, {29, 30}, {}},
      {svc::QueryKind::Route, {31, 0}, {0, 31}},
      {svc::QueryKind::Status, {3, 27}, {}},
  };

  std::int64_t answered = 0;
  for (auto _ : state) {
    const auto answer = service.query_batch(items);
    benchmark::DoNotOptimize(answer);
    answered += static_cast<std::int64_t>(answer.items.size());
  }
  state.SetItemsProcessed(answered);
  state.SetLabel("items = answers");
}
BENCHMARK(BM_SvcQueryBatch8);

// Shared body for the closed-loop benchmarks: runs the generator to
// completion and reports delivered answers plus the latency histogram.
void run_closed_loop(benchmark::State& state,
                     const svc::SvcLoadConfig& config) {
  std::int64_t answers = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double halo_deltas = 0.0;
  for (auto _ : state) {
    const svc::SvcLoadResult result = svc::run_svc_load(config);
    // queries_ok counts each batch once; swap that for its delivered items.
    answers += static_cast<std::int64_t>(
        result.queries_ok - result.batch_items / config.batch_size +
        result.batch_items);
    p50 = result.p50_us;
    p99 = result.p99_us;
    halo_deltas = static_cast<double>(result.halo_deltas);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(answers);
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;
  state.counters["halo_deltas"] = halo_deltas;
  state.SetLabel("items = answers");
}

// The whole runtime under closed-loop load: a writer replaying seeded
// churn against N query threads. Items are delivered answers; the p50/p99
// counters surface the generator's latency histogram (microseconds).
void BM_SvcClosedLoop(benchmark::State& state) {
  run_closed_loop(
      state, svc::query_heavy_profile(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoop)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Ingest-dominant closed loop: 8x the churn against a light query front —
// throughput here tracks epoch-turnover cost (incremental relabeling and
// copy-on-write publication), not the query hot paths.
void BM_SvcClosedLoopIngestHeavy(benchmark::State& state) {
  run_closed_loop(state, svc::ingest_heavy_profile(
                             static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoopIngestHeavy)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Mixed-rate closed loop: heavy churn AND a full query front racing it —
// the regime where route-cache carry-over and page sharing pay off
// together.
void BM_SvcClosedLoopMixedRate(benchmark::State& state) {
  run_closed_loop(state, svc::mixed_rate_profile(
                             static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SvcClosedLoopMixedRate)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Tile-partitioned multi-writer ingest through the Service: the same
// seeded 256-event stream as BM_SvcIngestChurn (10 faults at 32x32, a 0.5%
// background at 1024x1024), submitted to a paused fleet of S shards, then
// timed from resume() until flush() returns — the shards have applied it
// in 16-event batches and gossiped halo deltas to fixpoint. Construction,
// submission and teardown stay outside the timing. Items are the stream's
// applied external events (net fault-set changes, counted once from the
// stream itself: halo-derived re-applications are overhead, not work), so
// the items/s column is comparable with the single-writer churn number;
// the halo counters quantify what the sharding costs in gossip.
void BM_SvcShardedIngest(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto shard_count = static_cast<std::int32_t>(state.range(1));
  const std::int32_t rows = shard_count >= 4 ? 2 : 1;
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(11);
  const std::size_t background =
      n >= 256 ? static_cast<std::size_t>(m.node_count()) / 200 : 10;
  const auto initial = fault::uniform_random(m, background, rng);
  const auto stream = svc::generate_event_stream(m, initial, 256, 0.45, 13);
  std::int64_t per_run = 0;
  grid::CellSet faults = initial;
  for (const svc::FaultEvent& e : stream) {
    const bool fault = e.kind == svc::EventKind::Fault;
    if (faults.contains(e.node) == fault) continue;
    fault ? faults.insert(e.node) : faults.erase(e.node);
    ++per_run;
  }
  const svc::ServiceConfig config{.shard_rows = rows,
                                  .shard_cols = shard_count / rows,
                                  .queue_capacity = stream.size(),
                                  .max_batch = 16,
                                  .start_paused = true};

  double halo_deltas = 0.0;
  double halo_events = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto service = std::make_unique<svc::Service>(initial, config);
    for (const svc::FaultEvent& e : stream) {
      if (service->submit(e) != svc::SubmitStatus::Accepted) {
        state.SkipWithError("submission rejected");
      }
    }
    state.ResumeTiming();
    service->resume();
    service->flush();
    state.PauseTiming();
    const svc::ServiceStats stats = service->stats();
    halo_deltas = static_cast<double>(stats.halo_deltas);
    halo_events = static_cast<double>(stats.halo_events);
    service.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(per_run *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["halo_deltas"] = halo_deltas;
  state.counters["halo_events"] = halo_events;
  state.SetLabel("items = applied external events");
}
BENCHMARK(BM_SvcShardedIngest)
    ->ArgsProduct({{32, 1024}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The sharded runtime end to end under closed-loop load: S ingest workers
// (one per shard) racing N query threads, queries scatter-gathered against
// the composite epoch vector. Args are (shards, query_threads); one shard
// is BM_SvcClosedLoop itself.
void BM_SvcShardedClosedLoop(benchmark::State& state) {
  const auto shard_count = static_cast<std::int32_t>(state.range(0));
  svc::SvcLoadConfig config =
      svc::query_heavy_profile(static_cast<std::size_t>(state.range(1)));
  config.service.shard_rows = shard_count >= 4 ? 2 : 1;
  config.service.shard_cols = shard_count / config.service.shard_rows;
  run_closed_loop(state, config);
}
BENCHMARK(BM_SvcShardedClosedLoop)
    ->Args({2, 1})->Args({2, 2})->Args({2, 4})->Args({2, 8})
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
