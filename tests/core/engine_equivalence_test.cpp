// Randomized property test: every engine configuration — dense serial,
// dense with `parallel` set (1/2/8 threads), frontier, and the centralized
// reference solver — produces identical labelings, blocks, regions, and
// (for the distributed engines) identical round counts and message counts,
// across mesh and torus topologies and fault densities 0–30%. Both phases
// run word rounds in every distributed configuration; the per-node loop
// that `parallel` spreads across threads is checked in
// tests/simkernel/word_rounds_test.cpp.
#include <gtest/gtest.h>

#ifdef OCP_HAVE_OPENMP
#include <omp.h>
#endif

#include "core/pipeline.hpp"
#include "core/reference.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"

namespace ocp::labeling {
namespace {

void expect_same_stats(const sim::RoundStats& a, const sim::RoundStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.rounds_to_quiesce, b.rounds_to_quiesce) << what;
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << what;
  EXPECT_EQ(a.state_changes, b.state_changes) << what;
  EXPECT_EQ(a.messages_broadcast, b.messages_broadcast) << what;
  EXPECT_EQ(a.messages_event_driven, b.messages_event_driven) << what;
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b,
                        bool compare_stats, const std::string& what) {
  EXPECT_EQ(a.safety, b.safety) << what;
  EXPECT_EQ(a.activation, b.activation) << what;

  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << what;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].fault_count, b.blocks[i].fault_count) << what;
    EXPECT_EQ(a.blocks[i].unsafe_nonfaulty_count,
              b.blocks[i].unsafe_nonfaulty_count)
        << what;
    EXPECT_EQ(a.blocks[i].size(), b.blocks[i].size()) << what;
  }
  ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].parent_block, b.regions[i].parent_block) << what;
    EXPECT_EQ(a.regions[i].fault_count, b.regions[i].fault_count) << what;
    EXPECT_EQ(a.regions[i].disabled_nonfaulty_count,
              b.regions[i].disabled_nonfaulty_count)
        << what;
    EXPECT_EQ(a.regions[i].size(), b.regions[i].size()) << what;
  }

  if (compare_stats) {
    expect_same_stats(a.safety_stats, b.safety_stats, what + " [safety]");
    expect_same_stats(a.activation_stats, b.activation_stats,
                      what + " [activation]");
  }
}

TEST(EngineEquivalenceTest, AllEnginesAgreeOnRandomInstances) {
  stats::Rng rng(20010423);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::int32_t>(rng.uniform_int(3, 20));
    const auto topology =
        trial % 2 == 0 ? mesh::Topology::Mesh : mesh::Topology::Torus;
    const mesh::Mesh2D m = mesh::Mesh2D::square(n, topology);
    // Fault density 0–30% of the machine.
    const auto fault_count = static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() * 3 / 10));
    const grid::CellSet faults =
        fault::uniform_random(m, fault_count, rng);
    const auto def = trial % 3 == 0 ? SafeUnsafeDef::Def2a
                                    : SafeUnsafeDef::Def2b;
    const std::string what = "trial " + std::to_string(trial) + ": " +
                             m.describe() + " f=" +
                             std::to_string(fault_count);

    PipelineOptions opts;
    opts.definition = def;
    opts.engine = Engine::Distributed;
    opts.run_mode = sim::RunMode::Dense;
    const PipelineResult dense = run_pipeline(faults, opts);

    opts.run_mode = sim::RunMode::Frontier;
    const PipelineResult frontier = run_pipeline(faults, opts);
    expect_same_result(dense, frontier, /*compare_stats=*/true,
                       what + " dense-vs-frontier");

    opts.engine = Engine::Reference;
    const PipelineResult reference = run_pipeline(faults, opts);
    expect_same_result(dense, reference, /*compare_stats=*/false,
                       what + " dense-vs-reference");

    // Labels must also match the standalone reference fixpoints.
    EXPECT_EQ(dense.safety, reference_safety(faults, def)) << what;
    EXPECT_EQ(dense.activation,
              reference_activation(faults, dense.safety))
        << what;

#ifdef OCP_HAVE_OPENMP
    // Setting `parallel` must not change the result — states, blocks,
    // regions, round counts and message counts — at any thread count.
    opts.engine = Engine::Distributed;
    opts.run_mode = sim::RunMode::Dense;
    opts.parallel = true;
    for (const int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      const PipelineResult parallel = run_pipeline(faults, opts);
      expect_same_result(dense, parallel, /*compare_stats=*/true,
                         what + " dense-vs-parallel(threads=" +
                             std::to_string(threads) + ")");
    }
    omp_set_num_threads(omp_get_num_procs());
#endif
  }
}

}  // namespace
}  // namespace ocp::labeling
