// Microbenchmarks of the labeling engines: distributed kernel (dense vs
// frontier scheduling) and the centralized reference solver, across machine
// sizes and fault densities.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "core/reference.hpp"
#include "fault/generators.hpp"
#include "mesh/adjacency.hpp"

namespace {

using namespace ocp;

grid::CellSet make_faults(std::int32_t n, std::int64_t per_mille,
                          std::uint64_t seed) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  stats::Rng rng(seed);
  const auto f = static_cast<std::size_t>(m.node_count() * per_mille / 1000);
  return fault::uniform_random(m, f, rng);
}

void BM_PipelineDistributedFrontier(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  labeling::PipelineOptions opts;
  opts.engine = labeling::Engine::Distributed;
  opts.run_mode = sim::RunMode::Frontier;
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeling::run_pipeline(faults, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
// 256/20 is perfbench label_cold's machine: 256x256 at 2% faults.
BENCHMARK(BM_PipelineDistributedFrontier)
    ->ArgsProduct({{32, 64, 100, 200}, {5, 20}})
    ->Args({256, 20})
    ->Unit(benchmark::kMillisecond);

void BM_PipelineDistributedDense(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  labeling::PipelineOptions opts;
  opts.engine = labeling::Engine::Distributed;
  opts.run_mode = sim::RunMode::Dense;
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeling::run_pipeline(faults, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_PipelineDistributedDense)
    ->ArgsProduct({{32, 64, 100, 200}, {5, 20}})
    ->Unit(benchmark::kMillisecond);

// Same pipeline with `parallel` set. Both phases run the word-parallel
// evaluator, which `parallel` does not apply to, so this row times the same
// rounds as BM_PipelineDistributedDense; it is kept so the committed series
// continues.
void BM_PipelineDistributedDenseParallel(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  labeling::PipelineOptions opts;
  opts.engine = labeling::Engine::Distributed;
  opts.run_mode = sim::RunMode::Dense;
  opts.parallel = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeling::run_pipeline(faults, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_PipelineDistributedDenseParallel)
    ->ArgsProduct({{100, 200, 400}, {5, 20}})
    ->Unit(benchmark::kMillisecond);

// Cost of building the CSR adjacency table itself (paid once per machine,
// amortized across both phases and all rounds).
void BM_AdjacencyTableBuild(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const mesh::Mesh2D m = mesh::Mesh2D::square(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::AdjacencyTable(m));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_AdjacencyTableBuild)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineReference(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  labeling::PipelineOptions opts;
  opts.engine = labeling::Engine::Reference;
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeling::run_pipeline(faults, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_PipelineReference)
    ->ArgsProduct({{32, 64, 100, 200}, {5, 20}})
    ->Unit(benchmark::kMillisecond);

void BM_SafetyPhaseOnly(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, 10, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        labeling::reference_safety(faults, labeling::SafeUnsafeDef::Def2b));
  }
}
BENCHMARK(BM_SafetyPhaseOnly)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
