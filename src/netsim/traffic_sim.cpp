#include "netsim/traffic_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ocp::netsim {

namespace {

template <typename GetRoute>
TrafficSimResult run_traffic_sim_impl(const mesh::Mesh2D& machine,
                                      const grid::CellSet& blocked,
                                      const TrafficSimConfig& config,
                                      GetRoute&& get_route) {
  if (config.vc_scheme == VcScheme::MessageClass && config.num_vcs < 4) {
    throw std::invalid_argument(
        "MessageClass vc scheme needs at least 4 virtual channels");
  }
  const obs::Span run_span(config.trace, "traffic_sim.run");
  stats::Rng rng(config.seed);
  WormholeSim sim(machine, {.num_vcs = config.num_vcs,
                            .vc_buffer_flits = config.vc_buffer_flits,
                            .deadlock_threshold = config.deadlock_threshold,
                            .trace = config.trace});

  // Usable sources/destinations.
  std::vector<mesh::Coord> nodes;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(machine.node_count()); ++i) {
    const mesh::Coord c = machine.coord(i);
    if (!blocked.contains(c)) nodes.push_back(c);
  }

  TrafficSimResult result;
  if (nodes.size() < 2) return result;

  // Per-node injection times drawn as geometric inter-arrival gaps — the
  // same distribution as a Bernoulli trial per (cycle, node), at a cost
  // proportional to the number of injections instead of cycles x nodes.
  // Events are then ordered by (cycle, node) so worm submission order —
  // and with it simulator arbitration priority — matches a per-cycle scan
  // of the machine.
  std::vector<std::pair<std::int64_t, std::uint32_t>> events;
  if (config.injection_rate > 0.0) {
    // log(1 - p): -inf at p == 1, making every gap zero (inject each cycle).
    const double log_miss = std::log1p(-std::min(config.injection_rate, 1.0));
    for (std::uint32_t ni = 0; ni < nodes.size(); ++ni) {
      std::int64_t cycle = 0;
      for (;;) {
        // u in (0, 1]; floor(log(u)/log(1-p)) failures before the success.
        const double u = 1.0 - rng.uniform();
        const double gap = std::log(u) / log_miss;
        // Compare in doubles first: a microscopic rate can make the gap
        // overflow int64.
        if (gap >= static_cast<double>(config.warm_cycles)) break;
        cycle += static_cast<std::int64_t>(gap);
        if (cycle >= config.warm_cycles) break;
        events.emplace_back(cycle, ni);
        ++cycle;
      }
    }
    std::sort(events.begin(), events.end());
  }

  for (const auto& [cycle, ni] : events) {
    const mesh::Coord src = nodes[ni];
    const auto dst = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    if (dst == src) continue;
    const routing::Route& route = get_route(src, dst);
    if (!route.delivered()) continue;  // router gave up; not offered
    try {
      if (config.vc_scheme == VcScheme::MessageClass) {
        sim.submit(
            make_packet_class_based(route, config.packet_flits, cycle));
      } else {
        sim.submit(make_packet(route, config.num_vcs, config.packet_flits,
                               cycle));
      }
    } catch (const std::invalid_argument&) {
      // A route that traverses the same virtual channel twice (a detour
      // retracing its corridor) cannot be shipped as one worm; such
      // packets are dropped from the offered load and counted.
      ++result.unroutable_packets;
      continue;
    }
    ++result.offered_packets;
  }

  const SimResult run = sim.run();
  result.delivered_packets = run.delivered;
  result.deadlocked = run.deadlocked;
  result.cycles = run.cycles;
  result.flit_moves = run.flit_moves;
  result.latency = run.latency;
  for (const PacketOutcome& p : run.packets) {
    if (p.delivered) {
      result.latency_hist.add(static_cast<double>(p.latency()));
    }
  }
  result.latency_overflow = result.latency_hist.overflow();
  if (run.cycles > 0) {
    result.accepted_flits_per_node_cycle =
        static_cast<double>(run.delivered) * config.packet_flits /
        (static_cast<double>(run.cycles) *
         static_cast<double>(machine.node_count()));
  }
  return result;
}

}  // namespace

TrafficSimResult run_traffic_sim(const mesh::Mesh2D& machine,
                                 const grid::CellSet& blocked,
                                 const routing::Router& router,
                                 const TrafficSimConfig& config) {
  return run_traffic_sim_impl(
      machine, blocked, config,
      [&router, route = routing::Route{}](
          mesh::Coord src, mesh::Coord dst) mutable -> const routing::Route& {
        route = router.route(src, dst);
        return route;
      });
}

TrafficSimResult run_traffic_sim(const mesh::Mesh2D& machine,
                                 const grid::CellSet& blocked,
                                 const TrafficSimConfig& config,
                                 routing::RouteCache& routes) {
  return run_traffic_sim_impl(
      machine, blocked, config,
      [&routes](mesh::Coord src, mesh::Coord dst) -> const routing::Route& {
        return routes.lookup(src, dst);
      });
}

}  // namespace ocp::netsim
