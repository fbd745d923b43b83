// Microbenchmarks of the labeling engines: the distributed engine's word
// rounds and the centralized reference solver, across machine
// sizes and fault densities, plus the oracle pass and the first labeling of
// an incrementally maintained machine.
#include <benchmark/benchmark.h>

#include <vector>

#include "check/oracle.hpp"
#include "core/maintenance.hpp"
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

// The two extraction calls alone (faulty blocks, then disabled regions with
// their parents) on fixed labeled machines, cycled so the timing is not one
// fault pattern's. 256/20 is label_cold's machine: 256x256 at 2% faults.
void BM_ExtractBlocksAndRegions(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  constexpr std::uint64_t kMachines = 8;
  std::vector<grid::CellSet> faults;
  std::vector<labeling::PipelineResult> labeled;
  for (std::uint64_t k = 0; k < kMachines; ++k) {
    faults.push_back(make_faults(n, state.range(1), 100 + k));
    labeled.push_back(labeling::run_pipeline(faults.back()));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const labeling::PipelineResult& r = labeled[k];
    auto blocks = labeling::extract_faulty_blocks(faults[k], r.safety);
    benchmark::DoNotOptimize(
        labeling::extract_disabled_regions(faults[k], r.activation, blocks));
    benchmark::DoNotOptimize(blocks);
    k = (k + 1) % kMachines;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_ExtractBlocksAndRegions)->Args({256, 20})
    ->Unit(benchmark::kMillisecond);

// The full oracle pass (every check, Def 2b) on one labeled machine built
// outside the timed loop. 1024/5 is churn_1024's machine: 1024x1024 at 0.5%.
void BM_OracleCheckPipeline(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  const auto labeled = labeling::run_pipeline(faults);
  for (auto _ : state) {
    const auto report = check::check_pipeline(faults, labeled);
    if (!report.ok()) state.SkipWithError("oracle reported a violation");
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_OracleCheckPipeline)->Args({256, 50})->Args({1024, 5})
    ->Unit(benchmark::kMillisecond);

// Building a MaintainedLabeling from its initial fault set: the first
// labeling plus the slot tables, order arrays and key planes. 1024/5 is
// churn_1024's machine: 1024x1024 at 0.5%.
void BM_MaintainedLabelingBuild(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto faults = make_faults(n, state.range(1), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeling::MaintainedLabeling(faults));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_MaintainedLabelingBuild)->Args({1024, 5})
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
