// Microbenchmarks of route computation: plain dimension-order routing and
// boundary-following fault-tolerant routing against labeled fault regions.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "routing/router.hpp"

namespace {

using namespace ocp;

struct Instance {
  mesh::Mesh2D machine;
  grid::CellSet blocked;
};

Instance labeled_instance(std::int32_t n, std::size_t f, std::uint64_t seed) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(seed);
  const auto faults = fault::uniform_random(m, f, rng);
  const auto result = labeling::run_pipeline(faults);
  return {m, labeling::disabled_cells(result.activation)};
}

void BM_XYRouteFaultFree(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  std::int64_t hops = 0;
  for (auto _ : state) {
    const auto r = router.route({0, 0}, {n - 1, n - 1});
    hops += r.hops();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(hops);
}
BENCHMARK(BM_XYRouteFaultFree)->Arg(32)->Arg(128);

void BM_RingRouteAcrossLabeledMesh(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = labeled_instance(
      n, static_cast<std::size_t>(n), 17);  // ~n faults
  const routing::FaultRingRouter router(inst.machine, inst.blocked);
  stats::Rng rng(5);
  std::int64_t hops = 0;
  for (auto _ : state) {
    const auto src = inst.machine.coord(static_cast<std::size_t>(
        rng.uniform_int(0, inst.machine.node_count() - 1)));
    const auto dst = inst.machine.coord(static_cast<std::size_t>(
        rng.uniform_int(0, inst.machine.node_count() - 1)));
    const auto r = router.route(src, dst);
    hops += r.hops();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(hops);
}
BENCHMARK(BM_RingRouteAcrossLabeledMesh)->Arg(32)->Arg(100);

void BM_LabelingPlusRoutingEndToEnd(benchmark::State& state) {
  // Cost of the full stack a system would run after a failure event:
  // relabel, then route a batch of packets.
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(23);
  const auto faults = fault::uniform_random(
      m, static_cast<std::size_t>(n / 2), rng);
  for (auto _ : state) {
    const auto result = labeling::run_pipeline(faults);
    const auto blocked = labeling::disabled_cells(result.activation);
    const routing::FaultRingRouter router(m, blocked);
    benchmark::DoNotOptimize(router.route({0, 0}, {n - 1, n - 1}));
  }
}
BENCHMARK(BM_LabelingPlusRoutingEndToEnd)
    ->Arg(64)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
