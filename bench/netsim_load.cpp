// Wormhole load study: latency and completion of batches of worms routed
// around the labeled fault regions, under the rectangle model vs the
// orthogonal convex polygon model, plus the turn-cycle deadlock
// demonstration (1 virtual channel deadlocks, 2 deliver).
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/wormhole.hpp"
#include "routing/router.hpp"

namespace {

using namespace ocp;

struct LoadPoint {
  std::size_t packets;
  double latency_mean;
  double latency_max;
  std::size_t delivered;
  bool deadlocked;
  std::int64_t cycles;
  std::int64_t flit_moves;
  double mflit_moves_per_sec;
};

LoadPoint run_load(const mesh::Mesh2D& m, const grid::CellSet& blocked,
                   std::size_t packets, std::uint64_t seed) {
  const routing::FaultRingRouter router(m, blocked);
  netsim::WormholeSim sim(m, {.num_vcs = 2, .vc_buffer_flits = 2});
  stats::Rng rng(seed);
  std::size_t submitted = 0;
  for (std::size_t i = 0; submitted < packets && i < packets * 20; ++i) {
    const auto src = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() - 1)));
    const auto dst = m.coord(static_cast<std::size_t>(
        rng.uniform_int(0, m.node_count() - 1)));
    if (src == dst || blocked.contains(src) || blocked.contains(dst)) {
      continue;
    }
    const auto route = router.route(src, dst);
    if (!route.delivered()) continue;
    sim.submit(netsim::make_packet(
        route, 2, /*flits=*/8,
        rng.uniform_int(0, static_cast<std::int64_t>(packets))));
    ++submitted;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = sim.run();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {submitted,
          result.latency.mean(),
          result.latency.max(),
          result.delivered,
          result.deadlocked,
          result.cycles,
          result.flit_moves,
          sec > 0 ? static_cast<double>(result.flit_moves) / sec / 1e6 : 0.0};
}

void deadlock_demo(ocp::bench::Options& opts) {
  // Four worms whose routes form a directed turn cycle around a square:
  // the canonical wormhole deadlock.
  const mesh::Mesh2D m(10, 10);
  const auto leg = [](mesh::Coord from, mesh::Coord to) {
    std::vector<mesh::Coord> cells{from};
    mesh::Coord cur = from;
    while (cur != to) {
      if (cur.x != to.x) cur.x += to.x > cur.x ? 1 : -1;
      else cur.y += to.y > cur.y ? 1 : -1;
      cells.push_back(cur);
    }
    return cells;
  };
  const mesh::Coord corners[] = {{2, 2}, {6, 2}, {6, 6}, {2, 6}};
  stats::Table table({"virtual channels", "outcome", "delivered", "cycles"});
  for (std::uint8_t vcs : {std::uint8_t{1}, std::uint8_t{2}}) {
    netsim::WormholeSim sim(
        m, {.num_vcs = vcs, .vc_buffer_flits = 1, .deadlock_threshold = 64});
    for (int w = 0; w < 4; ++w) {
      auto path = leg(corners[w], corners[(w + 1) % 4]);
      const auto second = leg(corners[(w + 1) % 4], corners[(w + 2) % 4]);
      path.insert(path.end(), second.begin() + 1, second.end());
      netsim::PacketSpec spec;
      spec.path = std::move(path);
      spec.vcs.assign(spec.path.size() - 1, 0);
      if (vcs == 2) {  // dateline: second leg on the escape channel
        for (std::size_t h = spec.vcs.size() / 2; h < spec.vcs.size(); ++h) {
          spec.vcs[h] = 1;
        }
      }
      spec.length_flits = 32;
      sim.submit(std::move(spec));
    }
    const auto result = sim.run();
    table.add_row({std::to_string(vcs),
                   result.deadlocked ? "DEADLOCK" : "drained",
                   std::to_string(result.delivered),
                   std::to_string(result.cycles)});
  }
  ocp::bench::emit(opts, "netsim_deadlock_demo", table);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocp;
  bench::Options opts = bench::parse_options(argc, argv);
  if (opts.n == 100) opts.n = 32;  // wormhole sim scale

  std::cout << "Wormhole load study on a " << opts.n << "x" << opts.n
            << " mesh, ring routing with a detour virtual channel\n\n";

  deadlock_demo(opts);

  const mesh::Mesh2D m = mesh::Mesh2D::square(opts.n);
  stats::Rng rng(opts.seed);
  const auto faults = fault::clustered(m, 3, 8, rng);
  const auto labeled = labeling::run_pipeline(faults);

  struct Model {
    const char* name;
    grid::CellSet blocked;
  };
  const Model models[] = {
      {"faulty-blocks", labeling::unsafe_cells(labeled.safety)},
      {"disabled-regions", labeling::disabled_cells(labeled.activation)},
  };

  stats::Table table({"model", "packets", "delivered", "mean latency",
                      "max latency", "cycles", "deadlock", "flit moves",
                      "Mflit-moves/s"});
  const std::size_t loads[] = {32, 128, opts.quick ? 256u : 512u};
  for (const auto& model : models) {
    for (std::size_t packets : loads) {
      const LoadPoint p = run_load(m, model.blocked, packets, opts.seed + 1);
      table.add_row({model.name, std::to_string(p.packets),
                     std::to_string(p.delivered),
                     stats::format_double(p.latency_mean, 1),
                     stats::format_double(p.latency_max, 0),
                     std::to_string(p.cycles), p.deadlocked ? "yes" : "no",
                     std::to_string(p.flit_moves),
                     stats::format_double(p.mflit_moves_per_sec, 2)});
    }
  }
  bench::emit(opts, "netsim_load", table);

  std::cout << "Expected shape: the turn cycle deadlocks on one virtual "
               "channel and drains on two; under both region models the "
               "escape-channel traffic drains without deadlock, with "
               "latency growing with offered load.\n";
  return 0;
}
