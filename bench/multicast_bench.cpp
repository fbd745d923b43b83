// Collective communication over the labeled fault regions: traffic and
// delivery depth of separate unicasts vs dual-path multicast vs greedy tree
// multicast (the path-based scheme family of the paper's reference [8]).
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "routing/multicast.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace ocp;
  bench::Options opts = bench::parse_options(argc, argv);
  if (opts.n == 100) opts.n = 32;
  const std::size_t trials = opts.quick ? 5 : 20;

  std::cout << "Multicast over disabled regions on a " << opts.n << "x"
            << opts.n << " mesh, ring routing, " << trials
            << " trials per point\n\n";

  const mesh::Mesh2D m = mesh::Mesh2D::square(opts.n);
  stats::Table table({"f", "#dests", "scheme", "traffic", "depth",
                      "complete %"});

  for (std::int32_t f : {20, 40}) {
    for (std::size_t dest_count : {4u, 16u, 48u}) {
      stats::Summary traffic[3];
      stats::Summary depth[3];
      stats::Summary complete[3];
      stats::Rng seeder(opts.seed + static_cast<std::uint64_t>(f) * 100 +
                        dest_count);
      for (std::size_t t = 0; t < trials; ++t) {
        stats::Rng rng(seeder.fork_seed());
        const auto faults = fault::uniform_random(
            m, static_cast<std::size_t>(f), rng);
        const auto labeled = labeling::run_pipeline(faults);
        const auto blocked = labeling::disabled_cells(labeled.activation);
        const routing::FaultRingRouter router(m, blocked);

        // Source and distinct destinations among usable nodes.
        const auto pick = [&]() {
          while (true) {
            const auto c = m.coord(static_cast<std::size_t>(
                rng.uniform_int(0, m.node_count() - 1)));
            if (!blocked.contains(c)) return c;
          }
        };
        const mesh::Coord src = pick();
        std::vector<mesh::Coord> dests;
        while (dests.size() < dest_count) {
          const mesh::Coord c = pick();
          if (c == src ||
              std::find(dests.begin(), dests.end(), c) != dests.end()) {
            continue;
          }
          dests.push_back(c);
        }

        const routing::Multicast results[3] = {
            routing::separate_unicast(router, src, dests),
            routing::path_multicast(router, src, dests),
            routing::tree_multicast(router, m, src, dests),
        };
        for (int s = 0; s < 3; ++s) {
          traffic[s].add(static_cast<double>(results[s].traffic));
          depth[s].add(static_cast<double>(results[s].depth));
          complete[s].add(results[s].complete() ? 100.0 : 0.0);
        }
      }
      const char* names[3] = {"unicast", "dual-path", "tree"};
      for (int s = 0; s < 3; ++s) {
        table.add_row({std::to_string(f), std::to_string(dest_count),
                       names[s], stats::format_double(traffic[s].mean(), 1),
                       stats::format_double(depth[s].mean(), 1),
                       stats::format_double(complete[s].mean(), 1)});
      }
    }
  }
  bench::emit(opts, "multicast", table);

  std::cout << "Expected shape: all schemes complete (fault-tolerant legs); "
               "tree and dual-path cut traffic vs separate unicasts, more so "
               "with many destinations; dual-path trades depth (serial "
               "chains) for simplicity, the tree balances both.\n";
  return 0;
}
