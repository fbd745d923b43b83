// Microbenchmarks of the wormhole simulator. Every benchmark reports
// throughput as flit moves per second (items_per_second), so batch and
// cached-vs-direct comparisons read off the same scale.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/load_sweep.hpp"
#include "netsim/traffic_sim.hpp"

namespace {

using namespace ocp;

std::vector<netsim::PacketSpec> random_specs(const mesh::Mesh2D& m,
                                             std::size_t packets) {
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  std::vector<netsim::PacketSpec> specs;
  stats::Rng rng(7);
  while (specs.size() < packets) {
    const auto src = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
    const auto dst = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
    if (src == dst) continue;
    specs.push_back(netsim::make_packet(router.route(src, dst), 1, 6,
                                        rng.uniform_int(0, 64)));
  }
  return specs;
}

void BM_WormholeBatch(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto packets = static_cast<std::size_t>(state.range(1));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  // Pre-route the batch once; the benchmark measures the simulator.
  const auto specs = random_specs(m, packets);

  std::int64_t flit_moves = 0;
  for (auto _ : state) {
    netsim::WormholeSim sim(m, {.num_vcs = 1, .vc_buffer_flits = 2});
    for (const auto& spec : specs) sim.submit(spec);
    const auto result = sim.run();
    flit_moves += result.flit_moves;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(flit_moves);
  state.SetLabel("items = flit moves");
}
BENCHMARK(BM_WormholeBatch)
    ->Args({16, 32})
    ->Args({16, 256})
    ->Args({32, 256})
    ->Args({32, 1024})
    ->Args({64, 1024})
    ->Unit(benchmark::kMillisecond);

void BM_TrafficSimEndToEnd(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(24);
  stats::Rng rng(3);
  const auto faults = fault::clustered(m, 3, 8, rng);
  const auto labeled = labeling::run_pipeline(faults);
  const auto blocked = labeling::disabled_cells(labeled.activation);
  const routing::FaultRingRouter router(m, blocked);
  netsim::TrafficSimConfig config;
  config.injection_rate = 0.004;
  config.warm_cycles = 256;
  config.num_vcs = 2;
  std::int64_t flit_moves = 0;
  for (auto _ : state) {
    const auto result = netsim::run_traffic_sim(m, blocked, router, config);
    flit_moves += result.flit_moves;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(flit_moves);
  state.SetLabel("items = flit moves");
}
BENCHMARK(BM_TrafficSimEndToEnd)->Unit(benchmark::kMillisecond);

// Same run through a shared route cache: the steady-state cost once the
// (src, dst) table is warm, i.e. what each extra sweep trial pays.
void BM_TrafficSimCachedRoutes(benchmark::State& state) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(24);
  stats::Rng rng(3);
  const auto faults = fault::clustered(m, 3, 8, rng);
  const auto labeled = labeling::run_pipeline(faults);
  const auto blocked = labeling::disabled_cells(labeled.activation);
  const routing::FaultRingRouter router(m, blocked);
  routing::RouteCache routes(router, m);
  netsim::TrafficSimConfig config;
  config.injection_rate = 0.004;
  config.warm_cycles = 256;
  config.num_vcs = 2;
  std::int64_t flit_moves = 0;
  for (auto _ : state) {
    const auto result = netsim::run_traffic_sim(m, blocked, config, routes);
    flit_moves += result.flit_moves;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(flit_moves);
  state.SetLabel("items = flit moves");
}
BENCHMARK(BM_TrafficSimCachedRoutes)->Unit(benchmark::kMillisecond);

// A full deterministic load sweep (rate grid x trials, OpenMP over trials)
// at network-study scale: mesh side 32 and 64.
void BM_LoadSweep(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  netsim::LoadSweepConfig config;
  config.injection_rates = {0.001, 0.002, 0.004, 0.008};
  config.trials = 2;
  config.base.warm_cycles = 256;
  config.base.num_vcs = 2;
  std::int64_t flit_moves = 0;
  for (auto _ : state) {
    const auto result = netsim::run_load_sweep(m, blocked, router, config);
    for (const auto& point : result.points) flit_moves += point.flit_moves;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(flit_moves);
  state.SetLabel("items = flit moves");
}
BENCHMARK(BM_LoadSweep)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
