// Mutation smoke tests: deliberately broken protocol variants must be caught
// by the InvariantOracle (proving the verification subsystem has teeth), and
// the shrinker must reduce a mutant-induced failure to a replayable,
// local-minimal counterexample.
#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "core/reference.hpp"
#include "fault/generators.hpp"
#include "fault/trace.hpp"
#include "stats/rng.hpp"
#include "support/mutants.hpp"

namespace ocp::check {
namespace {

using labeling::SafeUnsafeDef;
using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

OracleOptions oracle_options(SafeUnsafeDef def) {
  OracleOptions opts;
  opts.definition = def;
  opts.round_bound = RoundBound::ProgressOnly;
  return opts;
}

bool contains_check(const ViolationReport& report, std::uint32_t check) {
  for (const auto& v : report.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(MutationTest, ActivationThresholdOneCaughtOnConcavePattern) {
  // Threshold >= 1 re-enables pocket cells that genuine Definition 3 keeps
  // disabled, leaving a concave disabled region.
  const Mesh2D m(8, 8);
  grid::CellSet faults(m);
  for (Coord c : {Coord{6, 0}, {4, 1}, {1, 2}, {3, 2}, {2, 3}, {4, 4}}) {
    faults.insert(c);
  }
  const auto mutant = run_mutant_pipeline(
      faults, Mutant::ActivationThresholdOne, SafeUnsafeDef::Def2b);
  const auto report =
      check_pipeline(faults, mutant, oracle_options(SafeUnsafeDef::Def2b));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(contains_check(report, kTheorem1)) << report.to_string();
}

TEST(MutationTest, ActivationGhostDisabledCaughtOnBoundaryDiagonal) {
  // Without enabled ghost support the boundary pocket of a diagonal fault
  // pair stays disabled: the region grows past the convex closure and gains
  // nonfaulty corners.
  const Mesh2D m(8, 8);
  grid::CellSet faults(m);
  faults.insert({0, 0});
  faults.insert({1, 1});
  for (auto def : {SafeUnsafeDef::Def2a, SafeUnsafeDef::Def2b}) {
    const auto mutant =
        run_mutant_pipeline(faults, Mutant::ActivationGhostDisabled, def);
    const auto report = check_pipeline(faults, mutant, oracle_options(def));
    ASSERT_FALSE(report.ok()) << to_string(def);
    EXPECT_TRUE(contains_check(report, kLemma1)) << report.to_string();
    EXPECT_TRUE(contains_check(report, kTheorem2)) << report.to_string();
    EXPECT_TRUE(contains_check(report, kFixpoint)) << report.to_string();
  }
}

TEST(MutationTest, SafetyGhostUnsafeCaughtByBlockFaultContent) {
  // Unsafe ghosts sweep the whole mesh unsafe from the boundary; the single
  // resulting block dwarfs the bounding box of its one fault.
  const Mesh2D m(8, 8);
  grid::CellSet faults(m);
  faults.insert({3, 3});
  for (auto def : {SafeUnsafeDef::Def2a, SafeUnsafeDef::Def2b}) {
    const auto mutant =
        run_mutant_pipeline(faults, Mutant::SafetyGhostUnsafe, def);
    const auto report = check_pipeline(faults, mutant, oracle_options(def));
    ASSERT_FALSE(report.ok()) << to_string(def);
    EXPECT_TRUE(contains_check(report, kBlockFaultContent))
        << report.to_string();
  }
}

TEST(MutationTest, SafetyThresholdOneCaughtByBlockFaultContent) {
  const Mesh2D m(8, 8);
  grid::CellSet faults(m);
  faults.insert({3, 3});
  const auto mutant = run_mutant_pipeline(faults, Mutant::SafetyThresholdOne,
                                          SafeUnsafeDef::Def2a);
  const auto report =
      check_pipeline(faults, mutant, oracle_options(SafeUnsafeDef::Def2a));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(contains_check(report, kBlockFaultContent))
      << report.to_string();
}

TEST(MutationTest, TorusCascadeNeedsEngineCrossCheck) {
  // On a torus a threshold-one cascade labels the whole machine unsafe —
  // a valid (but non-least) fixpoint of Definition 2a, so the pure oracle
  // accepts it; only independent recomputation of the least fixpoint (the
  // fuzzer's engine cross-validation layer) exposes the mutant. This test
  // documents that boundary of the oracle's power.
  const Mesh2D m(8, 8, Topology::Torus);
  grid::CellSet faults(m);
  faults.insert({3, 3});
  const auto mutant = run_mutant_pipeline(faults, Mutant::SafetyThresholdOne,
                                          SafeUnsafeDef::Def2a);
  const auto report =
      check_pipeline(faults, mutant, oracle_options(SafeUnsafeDef::Def2a));
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto reference =
      labeling::reference_safety(faults, SafeUnsafeDef::Def2a);
  EXPECT_FALSE(mutant.safety == reference);
}

TEST(MutationTest, GhostMutantsAreNoOpsOnTori) {
  // Tori have no ghost frame, so ghost mutants cannot change the labeling —
  // a sanity check that the mutants break exactly what they claim to break.
  const Mesh2D m(10, 6, Topology::Torus);
  stats::Rng rng(19);
  const auto faults = fault::uniform_random(m, 8, rng);
  const auto genuine = labeling::run_pipeline(faults);
  for (Mutant mut :
       {Mutant::ActivationGhostDisabled, Mutant::SafetyGhostUnsafe}) {
    const auto mutant = run_mutant_pipeline(faults, mut);
    EXPECT_TRUE(mutant.safety == genuine.safety) << to_string(mut);
    EXPECT_TRUE(mutant.activation == genuine.activation) << to_string(mut);
  }
}

TEST(MutationTest, OracleCatchesMostDivergentMutantsOnMeshes) {
  // Fuzzed sweep on meshes: the pure oracle (no reference recomputation)
  // must flag the large majority of instances where a mutant labeling
  // differs from the genuine one. The residue — valid-but-non-least
  // fixpoints — is covered by the fuzzer's engine cross-validation layer,
  // whose detection is the divergence itself.
  stats::Rng master(99);
  std::size_t divergent = 0;
  std::size_t caught = 0;
  for (int k = 0; k < 40; ++k) {
    stats::Rng rng(master.fork_seed());
    const Mesh2D m(static_cast<std::int32_t>(rng.uniform_int(4, 12)),
                   static_cast<std::int32_t>(rng.uniform_int(4, 12)));
    const auto f = static_cast<std::size_t>(
        rng.uniform_int(1, std::max<std::int64_t>(1, m.node_count() / 6)));
    const auto faults = fault::uniform_random(m, f, rng);
    const auto def = k % 4 < 2 ? SafeUnsafeDef::Def2a : SafeUnsafeDef::Def2b;
    labeling::PipelineOptions popts;
    popts.definition = def;
    const auto genuine = labeling::run_pipeline(faults, popts);
    for (Mutant mut : kAllMutants) {
      const auto mutant = run_mutant_pipeline(faults, mut, def);
      if (mutant.safety == genuine.safety &&
          mutant.activation == genuine.activation) {
        continue;
      }
      ++divergent;
      if (!check_pipeline(faults, mutant, oracle_options(def)).ok()) {
        ++caught;
      }
    }
  }
  // The sweep must actually exercise divergent mutants to mean anything.
  EXPECT_GT(divergent, 20u);
  EXPECT_GE(caught * 4, divergent * 3)
      << "oracle caught " << caught << " of " << divergent
      << " divergent mutant labelings";
}

TEST(MutationTest, ShrinkerReducesMutantFailureToReplayableMinimum) {
  // Acceptance scenario: a fuzz-style failure (oracle violation under the
  // threshold-one activation mutant) shrinks to a local-minimal fault set
  // whose trace replays to the same failure.
  const Mesh2D m(8, 8);
  grid::CellSet faults(m);
  for (Coord c : {Coord{6, 0}, {4, 1}, {1, 2}, {3, 2}, {2, 3}, {4, 4}}) {
    faults.insert(c);
  }
  const FailurePredicate mutant_fails = [](const grid::CellSet& candidate) {
    const auto result = run_mutant_pipeline(
        candidate, Mutant::ActivationThresholdOne, SafeUnsafeDef::Def2b);
    return !check_pipeline(candidate, result,
                           oracle_options(SafeUnsafeDef::Def2b))
                .ok();
  };
  ASSERT_TRUE(mutant_fails(faults));
  const auto shrunk = shrink_faults(faults, mutant_fails);
  EXPECT_LT(shrunk.faults.size(), faults.size());
  EXPECT_TRUE(mutant_fails(shrunk.faults));
  // Local minimality: every single-fault removal passes.
  for (const Coord c : shrunk.faults.to_vector()) {
    grid::CellSet candidate = shrunk.faults;
    candidate.erase(c);
    EXPECT_FALSE(mutant_fails(candidate));
  }
  // The trace replays to the identical failing instance.
  const auto reloaded = fault::from_trace_string(shrunk.trace);
  EXPECT_TRUE(reloaded == shrunk.faults);
  EXPECT_TRUE(mutant_fails(reloaded));
}

}  // namespace
}  // namespace ocp::check
