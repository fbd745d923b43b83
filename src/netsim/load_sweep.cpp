#include "netsim/load_sweep.hpp"

#include "stats/trial_pool.hpp"

namespace ocp::netsim {

namespace {

/// Runs `trials` seeded trials at one injection rate (OpenMP-parallel,
/// slot-per-trial) and reduces them serially in trial order.
LoadPoint run_point(const mesh::Mesh2D& machine, const grid::CellSet& blocked,
                    routing::RouteCache& routes, const TrafficSimConfig& base,
                    double rate, const std::vector<std::uint64_t>& seeds) {
  std::vector<TrafficSimResult> records(seeds.size());
  stats::for_each_trial(seeds.size(), [&](std::size_t t) {
    const obs::Span trial_span(base.trace, "load_sweep.trial");
    TrafficSimConfig config = base;
    config.injection_rate = rate;
    config.seed = seeds[t];
    records[t] = run_traffic_sim(machine, blocked, config, routes);
  });

  LoadPoint point;
  point.injection_rate = rate;
  point.trials = seeds.size();
  for (const TrafficSimResult& r : records) {
    point.deadlocked_trials += r.deadlocked ? 1 : 0;
    point.offered_packets += r.offered_packets;
    point.delivered_packets += r.delivered_packets;
    point.unroutable_packets += r.unroutable_packets;
    point.flit_moves += r.flit_moves;
    point.latency_overflow += r.latency_overflow;
    point.latency.merge(r.latency);
    point.latency_hist.merge(r.latency_hist);
    point.accepted.add(r.accepted_flits_per_node_cycle);
  }
  return point;
}

[[nodiscard]] bool saturated(const LoadPoint& point, double latency_limit) {
  return point.deadlocked_trials > 0 || point.latency.mean() > latency_limit;
}

}  // namespace

LoadSweepResult run_load_sweep(const mesh::Mesh2D& machine,
                               const grid::CellSet& blocked,
                               const routing::Router& router,
                               const LoadSweepConfig& config) {
  const std::size_t rates = config.injection_rates.size();
  const std::size_t trials = config.trials;
  const obs::Span sweep_span(config.base.trace, "load_sweep.run");

  // One RNG stream per grid cell, forked up-front in rate-major order, and
  // one shared route cache for the whole sweep.
  stats::Rng seeder(config.seed);
  const auto seeds = stats::fork_trial_seeds(seeder, rates * trials);
  routing::RouteCache routes(router, machine);

  // Run the whole (rate x trial) grid as one flat parallel loop so slow
  // high-load cells overlap cheap low-load ones.
  std::vector<TrafficSimResult> records(rates * trials);
  stats::for_each_trial(rates * trials, [&](std::size_t cell) {
    const obs::Span trial_span(config.base.trace, "load_sweep.trial");
    TrafficSimConfig trial_config = config.base;
    trial_config.injection_rate = config.injection_rates[cell / trials];
    trial_config.seed = seeds[cell];
    records[cell] = run_traffic_sim(machine, blocked, trial_config, routes);
  });

  LoadSweepResult result;
  result.points.reserve(rates);
  for (std::size_t r = 0; r < rates; ++r) {
    LoadPoint point;
    point.injection_rate = config.injection_rates[r];
    point.trials = trials;
    for (std::size_t t = 0; t < trials; ++t) {
      const TrafficSimResult& rec = records[r * trials + t];
      point.deadlocked_trials += rec.deadlocked ? 1 : 0;
      point.offered_packets += rec.offered_packets;
      point.delivered_packets += rec.delivered_packets;
      point.unroutable_packets += rec.unroutable_packets;
      point.flit_moves += rec.flit_moves;
      point.latency_overflow += rec.latency_overflow;
      point.latency.merge(rec.latency);
      point.latency_hist.merge(rec.latency_hist);
      point.accepted.add(rec.accepted_flits_per_node_cycle);
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

SaturationResult find_saturation_rate(const mesh::Mesh2D& machine,
                                      const grid::CellSet& blocked,
                                      const routing::Router& router,
                                      const SaturationConfig& config) {
  const obs::Span search_span(config.base.trace, "saturation.search");
  stats::Rng seeder(config.seed);
  routing::RouteCache routes(router, machine);
  SaturationResult result;

  // Probe order is deterministic (each predicate is), so forking each
  // probe's seeds on demand keeps the whole search reproducible.
  const auto probe = [&](double rate) -> const LoadPoint& {
    const obs::Span probe_span(config.base.trace, "saturation.probe");
    const auto seeds = stats::fork_trial_seeds(seeder, config.trials);
    result.probes.push_back(
        run_point(machine, blocked, routes, config.base, rate, seeds));
    return result.probes.back();
  };

  // Endpoint probes establish the bracket invariant: lo unsaturated,
  // hi saturated. A violated endpoint collapses the bracket onto itself.
  if (saturated(probe(config.lo), config.latency_limit)) {
    result.lo = result.hi = result.saturation_rate = config.lo;
    return result;
  }
  if (!saturated(probe(config.hi), config.latency_limit)) {
    result.lo = result.hi = result.saturation_rate = config.hi;
    return result;
  }

  double lo = config.lo;
  double hi = config.hi;
  for (int probes_used = 2;
       probes_used < config.max_probes && hi - lo > config.tolerance;
       ++probes_used) {
    const double mid = 0.5 * (lo + hi);
    if (saturated(probe(mid), config.latency_limit)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.lo = lo;
  result.hi = hi;
  result.saturation_rate = 0.5 * (lo + hi);
  return result;
}

}  // namespace ocp::netsim
