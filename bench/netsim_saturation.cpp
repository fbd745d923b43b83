// Latency vs offered load under continuous injection: the classic network
// evaluation, run over the rectangle model vs the orthogonal convex polygon
// model at network-study scale (mesh side 32, plus 64 in full runs). The
// paper's region refinement frees healthy nodes; this harness shows what
// that does to the network's load response, then bisects for the exact
// saturation onset of each configuration.
//
// Sweeps run through netsim::run_load_sweep: seeded trials per rate, OpenMP
// over the whole (rate x trial) grid, bit-identical for any thread count.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/load_sweep.hpp"

namespace {

using namespace ocp;

struct Scheme {
  const char* name;
  netsim::VcScheme scheme;
  std::uint8_t vcs;
};

struct Model {
  const char* name;
  grid::CellSet blocked;
};

double mflits_per_sec(std::int64_t flit_moves, double seconds) {
  return seconds > 0 ? static_cast<double>(flit_moves) / seconds / 1e6 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocp;
  bench::Options opts = bench::parse_options(argc, argv);
  if (opts.n == 100) opts.n = 32;

  std::vector<std::int32_t> sizes = {opts.n};
  if (!opts.quick && opts.n <= 32) sizes.push_back(opts.n * 2);

  const Scheme schemes[] = {
      {"2vc-escape", netsim::VcScheme::PhaseEscape, 2},
      {"4vc-class", netsim::VcScheme::MessageClass, 4},
  };
  const std::vector<double> rates = {0.001, 0.002, 0.004, 0.008, 0.016};
  const std::size_t trials = opts.quick ? 2 : 4;

  for (const std::int32_t n : sizes) {
    const mesh::Mesh2D m = mesh::Mesh2D::square(n);
    stats::Rng rng(opts.seed);
    const auto clusters =
        static_cast<std::size_t>(3 * std::max(1, n / 24));
    const auto faults = fault::clustered(m, clusters, 8, rng);
    const auto labeled = labeling::run_pipeline(faults);

    std::cout << "Wormhole saturation sweep on a " << m.describe() << " with "
              << faults.size() << " clustered faults; ring routing, "
              << trials << " trials/rate, 4-flit worms\n\n";

    const Model models[] = {
        {"faulty-blocks", labeling::unsafe_cells(labeled.safety)},
        {"disabled-regions", labeling::disabled_cells(labeled.activation)},
    };

    stats::Table table({"model", "vc scheme", "offered (flits/node/cyc)",
                        "accepted", "mean latency", "p99 latency",
                        "hist overflow", "delivered", "offered#", "deadlocks",
                        "Mflit-moves/s"});
    stats::Table saturation({"model", "vc scheme", "saturation rate",
                             "bracket", "probes", "Mflit-moves/s"});
    for (const auto& model : models) {
      const routing::FaultRingRouter router(m, model.blocked);
      for (const auto& scheme : schemes) {
        netsim::LoadSweepConfig sweep;
        sweep.injection_rates = rates;
        sweep.trials = trials;
        sweep.base.packet_flits = 4;
        sweep.base.warm_cycles = opts.quick ? 256 : 1024;
        sweep.base.num_vcs = scheme.vcs;
        sweep.base.vc_scheme = scheme.scheme;
        sweep.seed = opts.seed + 3;

        const auto t0 = std::chrono::steady_clock::now();
        const auto result =
            netsim::run_load_sweep(m, model.blocked, router, sweep);
        const double sweep_sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        std::int64_t sweep_moves = 0;
        for (const auto& p : result.points) sweep_moves += p.flit_moves;

        for (const auto& p : result.points) {
          table.add_row(
              {model.name, scheme.name,
               stats::format_double(p.offered_flits_per_node_cycle(4), 4),
               stats::format_double(p.accepted.mean(), 4),
               stats::format_double(p.latency.mean(), 1),
               stats::format_double(p.latency_hist.p99(), 0),
               std::to_string(p.latency_overflow),
               std::to_string(p.delivered_packets),
               std::to_string(p.offered_packets),
               std::to_string(p.deadlocked_trials) + "/" +
                   std::to_string(p.trials),
               stats::format_double(mflits_per_sec(sweep_moves, sweep_sec),
                                    2)});
        }

        netsim::SaturationConfig sat;
        sat.lo = rates.front();
        sat.hi = 0.05;
        sat.latency_limit = 512.0;
        sat.trials = trials;
        sat.base = sweep.base;
        sat.seed = opts.seed + 5;
        const auto s0 = std::chrono::steady_clock::now();
        const auto onset =
            netsim::find_saturation_rate(m, model.blocked, router, sat);
        const double sat_sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          s0)
                .count();
        std::int64_t sat_moves = 0;
        for (const auto& p : onset.probes) sat_moves += p.flit_moves;
        saturation.add_row(
            {model.name, scheme.name,
             stats::format_double(onset.saturation_rate, 5),
             "[" + stats::format_double(onset.lo, 5) + ", " +
                 stats::format_double(onset.hi, 5) + "]",
             std::to_string(onset.probes.size()),
             stats::format_double(mflits_per_sec(sat_moves, sat_sec), 2)});
      }
    }
    bench::emit(opts, "netsim_saturation_" + std::to_string(n), table);
    bench::emit(opts, "netsim_saturation_onset_" + std::to_string(n),
                saturation);
  }

  std::cout
      << "Expected shape: accepted throughput tracks offered load until "
         "contention bites and latency grows with load; the bisected onset "
         "quantifies where. The naive 2-VC escape scheme deadlocks once "
         "loaded (cross-packet cycles on the shared escape channel); "
         "Boppana-Chalasani message-class separation (4 VCs) pushes the "
         "deadlock-free range higher — full immunity additionally needs "
         "their exact ring-traversal rules, which our generic wall-follower "
         "approximates but does not replicate (deep over-saturation can "
         "still cycle within a class). The disabled-regions model frees "
         "healthy nodes relative to faulty-blocks, so it sustains more "
         "injectors at the same rate.\n";
  return 0;
}
