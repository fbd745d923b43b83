// Deterministic parallel load sweeps: output must be bit-identical across
// OpenMP thread counts and repeated runs, the route cache must be an exact
// drop-in for direct routing, and the saturation bisection must keep its
// bracket invariants and reproduce itself.
#include <gtest/gtest.h>

#ifdef OCP_HAVE_OPENMP
#include <omp.h>
#endif

#include "netsim/load_sweep.hpp"
#include "stats/trial_pool.hpp"

namespace ocp::netsim {
namespace {

using mesh::Mesh2D;

LoadSweepConfig small_sweep() {
  LoadSweepConfig config;
  config.injection_rates = {0.001, 0.004, 0.008};
  config.trials = 3;
  config.base.warm_cycles = 128;
  config.base.num_vcs = 2;
  config.seed = 97;
  return config;
}

void expect_same_point(const LoadPoint& a, const LoadPoint& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.injection_rate, b.injection_rate);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.deadlocked_trials, b.deadlocked_trials);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.unroutable_packets, b.unroutable_packets);
  EXPECT_EQ(a.flit_moves, b.flit_moves);
  EXPECT_EQ(a.latency_overflow, b.latency_overflow);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  // Bit-identical merges: trial reduction always runs serially in trial
  // order, whatever the worker thread count was.
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.variance(), b.latency.variance());
  EXPECT_EQ(a.accepted.mean(), b.accepted.mean());
  ASSERT_EQ(a.latency_hist.bin_count(), b.latency_hist.bin_count());
  for (std::size_t i = 0; i < a.latency_hist.bin_count(); ++i) {
    EXPECT_EQ(a.latency_hist.bin(i), b.latency_hist.bin(i)) << "bin " << i;
  }
}

TEST(LoadSweepTest, DeterministicAcrossRuns) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  const auto config = small_sweep();
  const auto a = run_load_sweep(m, blocked, router, config);
  const auto b = run_load_sweep(m, blocked, router, config);
  ASSERT_EQ(a.points.size(), config.injection_rates.size());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    expect_same_point(a.points[i], b.points[i],
                      "rate " + std::to_string(a.points[i].injection_rate));
  }
}

#ifdef OCP_HAVE_OPENMP
TEST(LoadSweepTest, ThreadCountInvariant) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  const auto config = small_sweep();

  std::vector<LoadSweepResult> results;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    results.push_back(run_load_sweep(m, blocked, router, config));
  }
  omp_set_num_threads(omp_get_num_procs());

  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].points.size(), results[r].points.size());
    for (std::size_t i = 0; i < results[0].points.size(); ++i) {
      expect_same_point(results[0].points[i], results[r].points[i],
                        "thread variant " + std::to_string(r) + ", rate " +
                            std::to_string(results[0].points[i].injection_rate));
    }
  }
}
#endif

TEST(LoadSweepTest, LoadPointsRespondToLoad) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  LoadSweepConfig config;
  config.injection_rates = {0.001, 0.015};
  config.trials = 3;
  config.base.warm_cycles = 384;
  config.base.num_vcs = 2;
  const auto result = run_load_sweep(m, blocked, router, config);
  ASSERT_EQ(result.points.size(), 2u);
  const LoadPoint& light = result.points[0];
  const LoadPoint& heavy = result.points[1];
  EXPECT_GT(light.offered_packets, 0u);
  EXPECT_EQ(light.deadlocked_trials, 0u);
  EXPECT_EQ(light.delivered_packets, light.offered_packets);
  EXPECT_GT(heavy.offered_packets, light.offered_packets);
  EXPECT_GT(heavy.latency.mean(), light.latency.mean());
  EXPECT_GT(heavy.flit_moves, light.flit_moves);
  EXPECT_DOUBLE_EQ(light.offered_flits_per_node_cycle(4), 0.004);
}

TEST(LoadSweepTest, SweepMatchesIndependentTrafficSims) {
  // A sweep cell is exactly run_traffic_sim with the forked seed — the
  // shared route cache and the parallel grid change nothing.
  const Mesh2D m(10, 10);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  LoadSweepConfig config;
  config.injection_rates = {0.003};
  config.trials = 2;
  config.base.warm_cycles = 128;
  config.seed = 5;
  const auto sweep = run_load_sweep(m, blocked, router, config);

  stats::Rng seeder(config.seed);
  const auto seeds = stats::fork_trial_seeds(seeder, 2);
  LoadPoint manual;
  manual.injection_rate = 0.003;
  manual.trials = 2;
  for (const std::uint64_t seed : seeds) {
    TrafficSimConfig trial = config.base;
    trial.injection_rate = 0.003;
    trial.seed = seed;
    const auto r = run_traffic_sim(m, blocked, router, trial);
    manual.deadlocked_trials += r.deadlocked ? 1 : 0;
    manual.offered_packets += r.offered_packets;
    manual.delivered_packets += r.delivered_packets;
    manual.unroutable_packets += r.unroutable_packets;
    manual.flit_moves += r.flit_moves;
    manual.latency_overflow += r.latency_overflow;
    manual.latency.merge(r.latency);
    manual.latency_hist.merge(r.latency_hist);
    manual.accepted.add(r.accepted_flits_per_node_cycle);
  }
  ASSERT_EQ(sweep.points.size(), 1u);
  expect_same_point(sweep.points[0], manual, "sweep vs manual trials");
}

TEST(LoadSweepTest, SaturationBisectionKeepsBracketInvariants) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  SaturationConfig config;
  config.lo = 0.001;
  config.hi = 0.05;
  config.latency_limit = 64.0;
  config.max_probes = 8;
  config.tolerance = 1e-4;
  config.trials = 2;
  config.base.warm_cycles = 256;
  config.base.num_vcs = 2;
  const auto result = find_saturation_rate(m, blocked, router, config);
  EXPECT_GE(result.lo, config.lo);
  EXPECT_LE(result.hi, config.hi);
  EXPECT_LE(result.lo, result.hi);
  EXPECT_GE(result.saturation_rate, result.lo);
  EXPECT_LE(result.saturation_rate, result.hi);
  EXPECT_LE(result.probes.size(),
            static_cast<std::size_t>(config.max_probes));
  EXPECT_GE(result.probes.size(), 2u);
  // The bracket actually tightened beyond the two endpoint probes.
  EXPECT_LT(result.hi - result.lo, config.hi - config.lo);

  const auto again = find_saturation_rate(m, blocked, router, config);
  EXPECT_EQ(result.saturation_rate, again.saturation_rate);
  EXPECT_EQ(result.lo, again.lo);
  EXPECT_EQ(result.hi, again.hi);
  ASSERT_EQ(result.probes.size(), again.probes.size());
  for (std::size_t i = 0; i < result.probes.size(); ++i) {
    expect_same_point(result.probes[i], again.probes[i],
                      "probe " + std::to_string(i));
  }
}

TEST(LoadSweepTest, SaturationCollapsesOnViolatedEndpoints) {
  const Mesh2D m(10, 10);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  SaturationConfig config;
  config.trials = 2;
  config.base.warm_cycles = 192;
  config.base.num_vcs = 2;

  // Both endpoints far below saturation: the bracket collapses to hi.
  config.lo = 0.0005;
  config.hi = 0.001;
  config.latency_limit = 1e9;
  const auto unsat = find_saturation_rate(m, blocked, router, config);
  EXPECT_EQ(unsat.saturation_rate, config.hi);
  EXPECT_EQ(unsat.lo, unsat.hi);

  // An impossible latency limit saturates even lo: collapse to lo.
  config.latency_limit = 0.0;
  const auto sat = find_saturation_rate(m, blocked, router, config);
  EXPECT_EQ(sat.saturation_rate, config.lo);
  EXPECT_EQ(sat.probes.size(), 1u);
}

TEST(RouteCacheTrafficTest, CachedOverloadIsExactDropIn) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  TrafficSimConfig config;
  config.injection_rate = 0.006;
  config.warm_cycles = 256;
  config.seed = 31;
  const auto direct = run_traffic_sim(m, blocked, router, config);

  routing::RouteCache routes(router, m);
  const auto cached = run_traffic_sim(m, blocked, config, routes);
  EXPECT_EQ(direct.offered_packets, cached.offered_packets);
  EXPECT_EQ(direct.delivered_packets, cached.delivered_packets);
  EXPECT_EQ(direct.unroutable_packets, cached.unroutable_packets);
  EXPECT_EQ(direct.deadlocked, cached.deadlocked);
  EXPECT_EQ(direct.cycles, cached.cycles);
  EXPECT_EQ(direct.flit_moves, cached.flit_moves);
  EXPECT_EQ(direct.latency.mean(), cached.latency.mean());
  EXPECT_GT(routes.size(), 0u);
  EXPECT_LE(routes.size(), m.node_count() * m.node_count());

  // Re-running against the now-warm cache changes nothing either.
  const auto warm = run_traffic_sim(m, blocked, config, routes);
  EXPECT_EQ(cached.delivered_packets, warm.delivered_packets);
  EXPECT_EQ(cached.cycles, warm.cycles);
  EXPECT_EQ(cached.latency.mean(), warm.latency.mean());
}

TEST(RouteCacheTrafficTest, LatencyOverflowSurfacesClampedTail) {
  // Light load on an open mesh: every latency fits in the 4096-cycle
  // histogram, so the overflow counter stays zero and matches the
  // histogram's own count.
  const Mesh2D m(10, 10);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  TrafficSimConfig config;
  config.injection_rate = 0.003;
  config.warm_cycles = 256;
  const auto result = run_traffic_sim(m, blocked, router, config);
  EXPECT_EQ(result.latency_overflow, result.latency_hist.overflow());
  EXPECT_EQ(result.latency_overflow, 0u);
  EXPECT_LE(result.latency.max(), 4096.0);
}

}  // namespace
}  // namespace ocp::netsim
