#include "fault_distance.hpp"

#include <gtest/gtest.h>

#include "core/reference.hpp"
#include "core/regions.hpp"
#include "fault/generators.hpp"
#include "routing/minimal_router.hpp"

namespace ocp::labeling {
namespace {

using mesh::Coord;
using mesh::Dir;
using mesh::Mesh2D;

/// Brute-force clear-run length from `c` in direction `d`.
std::int32_t brute_run(const grid::NodeGrid<Safety>& safety, Coord c, Dir d) {
  const mesh::Mesh2D& m = safety.topology();
  std::int32_t run = 0;
  Coord cur = c;
  while (true) {
    const auto next = m.neighbor(cur, d);
    if (!next) return FaultDistanceVector::kUnbounded;  // hit the boundary
    if (safety[*next] == Safety::Unsafe) return run;
    ++run;
    cur = *next;
    if (run > m.node_count()) return FaultDistanceVector::kUnbounded;  // torus wrap, no unsafe
  }
}

TEST(FaultDistanceTest, FaultFreeMeshIsUnboundedEverywhere) {
  const Mesh2D m(6, 6);
  const grid::CellSet faults(m);
  const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
  sim::RoundStats stats;
  const auto vectors = compute_fault_distances(faults, safety, &stats);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    for (Dir d : mesh::kAllDirs) {
      EXPECT_EQ(vectors.at_index(i)[d], FaultDistanceVector::kUnbounded);
    }
  }
  EXPECT_EQ(stats.rounds_to_quiesce, 0);
}

TEST(FaultDistanceTest, SingleFaultRunsAreExact) {
  const Mesh2D m(9, 9);
  const grid::CellSet faults{m, {{4, 4}}};
  const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
  const auto vectors = compute_fault_distances(faults, safety);
  // West neighbor of the fault: 0 hops of clearance eastward.
  EXPECT_EQ((vectors[{3, 4}][Dir::East]), 0);
  EXPECT_EQ((vectors[{0, 4}][Dir::East]), 3);
  EXPECT_EQ((vectors[{5, 4}][Dir::West]), 0);
  EXPECT_EQ((vectors[{4, 0}][Dir::North]), 3);
  EXPECT_EQ((vectors[{4, 8}][Dir::South]), 3);
  // Off the fault's row/column: unbounded.
  EXPECT_EQ((vectors[{0, 0}][Dir::East]), FaultDistanceVector::kUnbounded);
}

TEST(FaultDistanceTest, MatchesBruteForceOnRandomInstances) {
  const Mesh2D m(14, 14);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    stats::Rng rng(seed);
    const auto faults = fault::uniform_random(m, 20, rng);
    const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
    const auto vectors = compute_fault_distances(faults, safety);
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const Coord c = m.coord(i);
      if (faults.contains(c)) continue;
      for (Dir d : mesh::kAllDirs) {
        ASSERT_EQ(vectors[c][d], brute_run(safety, c, d))
            << "seed " << seed << " at " << mesh::to_string(c) << " dir "
            << mesh::to_string(d);
      }
    }
  }
}

TEST(FaultDistanceTest, ConvergesInClearRunRounds) {
  // Information travels one hop per round: the longest finite run bounds
  // the round count.
  const Mesh2D m(16, 16);
  const grid::CellSet faults{m, {{8, 8}}};
  const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
  sim::RoundStats stats;
  static_cast<void>(compute_fault_distances(faults, safety, &stats));
  EXPECT_LE(stats.rounds_to_quiesce, 16);
  EXPECT_GE(stats.rounds_to_quiesce, 7);  // farthest in-row node
}

TEST(FaultDistanceTest, LPathCertificateIsSound) {
  // Certified pairs must always have a minimal path (no false positives);
  // exactness is not required (staircase-only pairs are not certified).
  const Mesh2D m(16, 16);
  std::size_t certified = 0;
  std::size_t feasible = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    stats::Rng rng(seed + 40);
    const auto faults = fault::uniform_random(m, 24, rng);
    const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
    const auto vectors = compute_fault_distances(faults, safety);
    const auto blocked = unsafe_cells(safety);
    stats::Rng pair_rng(seed);
    for (int i = 0; i < 120; ++i) {
      const auto src = m.coord(static_cast<std::size_t>(
          pair_rng.uniform_int(0, m.node_count() - 1)));
      const auto dst = m.coord(static_cast<std::size_t>(
          pair_rng.uniform_int(0, m.node_count() - 1)));
      const bool cert = l_path_certified(vectors, safety, src, dst);
      const bool exact = routing::minimal_path_exists(m, blocked, src, dst);
      if (cert) {
        ++certified;
        ASSERT_TRUE(exact) << "false positive " << mesh::to_string(src)
                           << " -> " << mesh::to_string(dst);
      }
      if (exact) ++feasible;
    }
  }
  // The certificate is useful: it covers the bulk of the feasible pairs at
  // this fault density.
  EXPECT_GT(certified, feasible / 2);
}

TEST(FaultDistanceTest, CertificateRejectsUnsafeEndpoints) {
  const Mesh2D m(8, 8);
  const grid::CellSet faults{m, {{3, 3}, {4, 4}}};
  const auto safety = reference_safety(faults, SafeUnsafeDef::Def2b);
  const auto vectors = compute_fault_distances(faults, safety);
  EXPECT_FALSE(l_path_certified(vectors, safety, {3, 3}, {0, 0}));
  EXPECT_FALSE(l_path_certified(vectors, safety, {0, 0}, {4, 4}));
  EXPECT_FALSE(l_path_certified(vectors, safety, {-1, 0}, {4, 4}));
  EXPECT_TRUE(l_path_certified(vectors, safety, {0, 0}, {0, 7}));
  EXPECT_TRUE(l_path_certified(vectors, safety, {2, 2}, {2, 2}));
}

}  // namespace
}  // namespace ocp::labeling
