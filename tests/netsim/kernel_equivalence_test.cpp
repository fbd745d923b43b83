// Kernel equivalence: the simulator's event-driven worklist kernel must
// reproduce the test tree's reference sweep (support/wormhole_sweep.hpp,
// which shares no code with `WormholeSim`) bit-for-bit — same per-packet
// finish cycles, same deadlock verdicts, same cycle counts, same flit-move
// totals, same latency statistics — over seeded random packet batches on
// meshes and tori, plus the adversarial scenarios (turn cycles, wrap rings,
// sparse injection gaps the event kernel clock-jumps over, cycle caps).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/wormhole.hpp"
#include "routing/router.hpp"
#include "support/wormhole_sweep.hpp"

namespace ocp::netsim {
namespace {

using mesh::Coord;
using mesh::Mesh2D;
using mesh::Topology;

SimResult run_event(const Mesh2D& m, const SimConfig& config,
                    const std::vector<PacketSpec>& specs) {
  WormholeSim sim(m, config);
  for (const auto& spec : specs) sim.submit(spec);
  return sim.run();
}

void expect_identical(const Mesh2D& m, const SimConfig& config,
                      const std::vector<PacketSpec>& specs,
                      const std::string& what) {
  const SimResult event = run_event(m, config, specs);
  const SimResult sweep = run_sweep_reference(m, config, specs);
  SCOPED_TRACE(what);
  EXPECT_EQ(event.deadlocked, sweep.deadlocked);
  EXPECT_EQ(event.cycles, sweep.cycles);
  EXPECT_EQ(event.delivered, sweep.delivered);
  EXPECT_EQ(event.stuck, sweep.stuck);
  EXPECT_EQ(event.flit_moves, sweep.flit_moves);
  EXPECT_EQ(event.latency.count(), sweep.latency.count());
  // Bit-identical, not approximately equal: completions happen in the same
  // order, so the Welford accumulator sees the same sequence.
  EXPECT_EQ(event.latency.mean(), sweep.latency.mean());
  EXPECT_EQ(event.latency.variance(), sweep.latency.variance());
  EXPECT_EQ(event.latency.min(), sweep.latency.min());
  EXPECT_EQ(event.latency.max(), sweep.latency.max());
  ASSERT_EQ(event.packets.size(), sweep.packets.size());
  for (std::size_t i = 0; i < event.packets.size(); ++i) {
    EXPECT_EQ(event.packets[i].delivered, sweep.packets[i].delivered)
        << "packet " << i;
    EXPECT_EQ(event.packets[i].inject_cycle, sweep.packets[i].inject_cycle)
        << "packet " << i;
    if (event.packets[i].delivered && sweep.packets[i].delivered) {
      EXPECT_EQ(event.packets[i].finish_cycle, sweep.packets[i].finish_cycle)
          << "packet " << i;
    }
  }
}

/// Seeded random batch routed by `router`; inject cycles spread over
/// [0, spread], mixed lengths, vcs assigned by make_packet.
std::vector<PacketSpec> random_batch(const Mesh2D& m,
                                     const routing::Router& router,
                                     const grid::CellSet& blocked,
                                     std::size_t packets, std::uint8_t vcs,
                                     std::int64_t spread, stats::Rng& rng) {
  std::vector<PacketSpec> specs;
  std::size_t attempts = 0;
  while (specs.size() < packets && ++attempts < packets * 50) {
    const auto src = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
    const auto dst = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
    if (src == dst || blocked.contains(src) || blocked.contains(dst)) {
      continue;
    }
    const auto route = router.route(src, dst);
    if (!route.delivered()) continue;
    const auto flits =
        static_cast<std::int32_t>(rng.uniform_int(1, 12));
    specs.push_back(
        make_packet(route, vcs, flits, rng.uniform_int(0, spread)));
  }
  return specs;
}

TEST(KernelEquivalenceTest, RandomXyBatchesOnMesh) {
  const Mesh2D m(12, 12);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    stats::Rng rng(seed);
    const auto specs = random_batch(m, router, blocked, 120, 1, 96, rng);
    ASSERT_FALSE(specs.empty());
    expect_identical(m, {.num_vcs = 1, .vc_buffer_flits = 2}, specs,
                     "xy mesh seed " + std::to_string(seed));
  }
}

TEST(KernelEquivalenceTest, RandomXyBatchesOnTorus) {
  const Mesh2D m(10, 10, Topology::Torus);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    stats::Rng rng(seed);
    const auto specs = random_batch(m, router, blocked, 100, 2, 64, rng);
    ASSERT_FALSE(specs.empty());
    expect_identical(m, {.num_vcs = 2, .vc_buffer_flits = 1}, specs,
                     "xy torus seed " + std::to_string(seed));
  }
}

TEST(KernelEquivalenceTest, RingDetourBatchesOverLabeledFaults) {
  const Mesh2D m(14, 14);
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    stats::Rng rng(seed);
    const auto faults = fault::uniform_random(m, 14, rng);
    const auto labeled = labeling::run_pipeline(
        faults, {.engine = labeling::Engine::Reference});
    const auto blocked = labeling::disabled_cells(labeled.activation);
    const routing::FaultRingRouter router(m, blocked);
    std::vector<PacketSpec> specs;
    std::size_t attempts = 0;
    while (specs.size() < 80 && ++attempts < 4000) {
      const auto src = m.coord(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
      const auto dst = m.coord(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.node_count()) - 1)));
      if (src == dst || blocked.contains(src) || blocked.contains(dst)) {
        continue;
      }
      const auto route = router.route(src, dst);
      if (!route.delivered()) continue;
      try {
        PacketSpec spec = make_packet(route, 2, 6, rng.uniform_int(0, 48));
        WormholeSim probe(m, {.num_vcs = 2});
        probe.submit(spec);  // validates (drops channel-revisiting routes)
        specs.push_back(std::move(spec));
      } catch (const std::invalid_argument&) {
        continue;
      }
    }
    ASSERT_FALSE(specs.empty());
    expect_identical(m, {.num_vcs = 2, .vc_buffer_flits = 2}, specs,
                     "ring mesh seed " + std::to_string(seed));
  }
}

/// The canonical turn-cycle deadlock must produce identical verdicts,
/// cycle counts and stuck sets under both kernels.
std::vector<PacketSpec> turn_cycle(std::int32_t flits) {
  const Coord corners[] = {{2, 2}, {6, 2}, {6, 6}, {2, 6}};
  const auto leg = [](Coord from, Coord to) {
    std::vector<Coord> cells{from};
    Coord cur = from;
    while (cur != to) {
      if (cur.x != to.x) cur.x += to.x > cur.x ? 1 : -1;
      else cur.y += to.y > cur.y ? 1 : -1;
      cells.push_back(cur);
    }
    return cells;
  };
  std::vector<PacketSpec> specs;
  for (int w = 0; w < 4; ++w) {
    auto path = leg(corners[w], corners[(w + 1) % 4]);
    const auto second = leg(corners[(w + 1) % 4], corners[(w + 2) % 4]);
    path.insert(path.end(), second.begin() + 1, second.end());
    PacketSpec spec;
    spec.path = std::move(path);
    spec.vcs.assign(spec.path.size() - 1, 0);
    spec.length_flits = flits;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(KernelEquivalenceTest, TurnCycleDeadlockVerdictsMatch) {
  const Mesh2D m(10, 10);
  expect_identical(
      m, {.num_vcs = 1, .vc_buffer_flits = 1, .deadlock_threshold = 64},
      turn_cycle(32), "turn cycle, 1 vc");
  // Staggered injections: the deadlock forms while later worms are still
  // waiting on their inject cycles (exercises the frozen idle counter).
  auto staggered = turn_cycle(32);
  for (std::size_t i = 0; i < staggered.size(); ++i) {
    staggered[i].inject_cycle = static_cast<std::int64_t>(7 * i);
  }
  expect_identical(
      m, {.num_vcs = 1, .vc_buffer_flits = 1, .deadlock_threshold = 96},
      staggered, "turn cycle, staggered injections");
}

TEST(KernelEquivalenceTest, TorusWrapRingDeadlockOnOneClass) {
  // Four worms chasing each other east around a 4-wide torus row, all on
  // virtual channel 0: every worm acquires its first hop channel and blocks
  // on the next worm's — a wrap-around channel dependency cycle no planar
  // turn model can produce. Both kernels must report the same deadlock.
  const Mesh2D m(4, 4, Topology::Torus);
  std::vector<PacketSpec> specs;
  for (std::int32_t x = 0; x < 4; ++x) {
    PacketSpec spec;
    spec.path = {{x, 1}, {(x + 1) % 4, 1}, {(x + 2) % 4, 1}};
    spec.vcs = {0, 0};
    spec.length_flits = 8;
    specs.push_back(std::move(spec));
  }
  const SimConfig config{.num_vcs = 1, .vc_buffer_flits = 1,
                         .deadlock_threshold = 64};
  const SimResult result = run_event(m, config, specs);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.stuck, 4u);
  expect_identical(m, config, specs, "torus wrap ring, one vc");
}

TEST(KernelEquivalenceTest, ClassBasedAssignmentBreaksTheWrapRing) {
  // The same wrap ring routed through make_packet_class_based: the class is
  // the *planar* address comparison, so the two worms whose shorter way
  // crosses the wrap seam (dst.x < src.x) land on the EW channel even
  // though they travel east — a dateline that cuts the cycle. Both kernels
  // must agree the load drains.
  const Mesh2D m(4, 4, Topology::Torus);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);
  std::vector<PacketSpec> specs;
  for (std::int32_t x = 0; x < 4; ++x) {
    const routing::Route route =
        router.route({x, 1}, {(x + 2) % 4, 1});
    ASSERT_TRUE(route.delivered());
    specs.push_back(make_packet_class_based(route, 8, 0));
  }
  // Wrap-crossing worms (src x=2,3 -> dst 0,1) ride VC 1, the rest VC 0.
  EXPECT_EQ(specs[0].vcs.front(), 0);
  EXPECT_EQ(specs[1].vcs.front(), 0);
  EXPECT_EQ(specs[2].vcs.front(), 1);
  EXPECT_EQ(specs[3].vcs.front(), 1);
  const SimConfig config{.num_vcs = 4, .vc_buffer_flits = 1,
                         .deadlock_threshold = 64};
  const SimResult result = run_event(m, config, specs);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.delivered, 4u);
  expect_identical(m, config, specs, "torus wrap ring, class vcs");
}

TEST(KernelEquivalenceTest, SparseInjectionGapsClockJumpExactly) {
  // Worms separated by quiescent gaps far longer than the deadlock
  // threshold: the event kernel jumps the clock across each gap, and the
  // frozen idle accounting must still match the sweep cycle for cycle.
  const Mesh2D m(12, 4);
  std::vector<PacketSpec> specs;
  for (int w = 0; w < 5; ++w) {
    PacketSpec spec;
    for (std::int32_t x = 0; x <= 10; ++x) spec.path.push_back({x, 1});
    spec.vcs.assign(spec.path.size() - 1, 0);
    spec.length_flits = 4;
    spec.inject_cycle = 5000 * w;
    specs.push_back(std::move(spec));
  }
  expect_identical(m,
                   {.num_vcs = 1, .vc_buffer_flits = 2,
                    .deadlock_threshold = 128},
                   specs, "sparse injections");
}

TEST(KernelEquivalenceTest, CycleCapCutsBothKernelsIdentically) {
  // A deadlocked turn cycle with max_cycles below the deadlock trigger:
  // both kernels must stop undecided at exactly max_cycles.
  const Mesh2D m(10, 10);
  expect_identical(m,
                   {.num_vcs = 1, .vc_buffer_flits = 1, .max_cycles = 40,
                    .deadlock_threshold = 1 << 20},
                   turn_cycle(32), "cycle cap before deadlock verdict");
  // And an injection scheduled beyond the cap never runs.
  auto late = turn_cycle(8);
  late[3].inject_cycle = 1000;
  expect_identical(m,
                   {.num_vcs = 1, .vc_buffer_flits = 4, .max_cycles = 500,
                    .deadlock_threshold = 64},
                   late, "injection beyond the cap");
}

TEST(KernelEquivalenceTest, ZeroHopAndMixedBatches) {
  const Mesh2D m(8, 8);
  std::vector<PacketSpec> specs;
  PacketSpec local;
  local.path = {{3, 3}};
  local.length_flits = 5;
  specs.push_back(local);
  PacketSpec hop;
  hop.path = {{3, 3}, {4, 3}};
  hop.vcs = {0};
  hop.length_flits = 2;
  hop.inject_cycle = 3;
  specs.push_back(hop);
  expect_identical(m, {.num_vcs = 1, .vc_buffer_flits = 1}, specs,
                   "zero-hop + one-hop");
}

}  // namespace
}  // namespace ocp::netsim
