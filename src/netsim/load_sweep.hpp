// Deterministic parallel latency-vs-offered-load sweeps on the wormhole
// substrate — the interconnect-evaluation methodology (accepted throughput
// and latency percentiles against an injection-rate grid, then bisection
// for the saturation point) run at mesh sizes and load grids comparable to
// real network studies.
//
// Parallelism follows the stats/trial_pool contract: every (rate, trial)
// cell gets its own RNG stream forked up-front in grid order, workers write
// only their own preallocated slot, and the per-rate reduction runs
// serially in trial order afterwards — so sweep output is bit-identical for
// any OpenMP thread count (including a no-OpenMP build). All trials of a
// sweep share one lazily-filled `routing::RouteCache` (thread-safe; routing
// is deterministic, so sharing cannot perturb results).
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/traffic_sim.hpp"

namespace ocp::netsim {

struct LoadSweepConfig {
  /// Injection-rate grid (probability per node per cycle), in sweep order.
  std::vector<double> injection_rates;
  /// Independent seeded trials per rate.
  std::size_t trials = 4;
  /// Per-trial simulation parameters; `injection_rate` and `seed` are
  /// overridden per grid cell.
  TrafficSimConfig base;
  /// Master seed; per-trial seeds are forked from it in grid order.
  std::uint64_t seed = 1;
};

/// Aggregate of all trials at one injection rate (reduced in trial order).
struct LoadPoint {
  double injection_rate = 0.0;
  std::size_t trials = 0;
  std::size_t deadlocked_trials = 0;
  std::size_t offered_packets = 0;
  std::size_t delivered_packets = 0;
  std::size_t unroutable_packets = 0;
  std::int64_t flit_moves = 0;
  std::uint64_t latency_overflow = 0;
  /// Per-worm latency pooled across trials.
  stats::Summary latency;
  stats::Histogram latency_hist{0.0, 4096.0, 64};
  /// Per-trial accepted throughput (flits/node/cycle): mean ± ci across
  /// trials.
  stats::Summary accepted;

  /// Offered load in flits per node per cycle.
  [[nodiscard]] double offered_flits_per_node_cycle(
      std::int32_t packet_flits) const noexcept {
    return injection_rate * packet_flits;
  }
};

struct LoadSweepResult {
  std::vector<LoadPoint> points;  // one per injection rate, in grid order
};

/// Runs the full (rate x trial) grid, OpenMP-parallel over independent
/// trials, and reduces per rate. Deterministic for a fixed config,
/// independent of thread count.
[[nodiscard]] LoadSweepResult run_load_sweep(const mesh::Mesh2D& machine,
                                             const grid::CellSet& blocked,
                                             const routing::Router& router,
                                             const LoadSweepConfig& config);

struct SaturationConfig {
  /// Bracket of injection rates to search; `lo` is assumed unsaturated and
  /// `hi` saturated (both are probed first and the bracket collapses to the
  /// violated endpoint if the assumption fails).
  double lo = 0.0005;
  double hi = 0.05;
  /// A rate counts as saturated when any trial deadlocks or the pooled mean
  /// latency exceeds this many cycles.
  double latency_limit = 512.0;
  /// Bisection stops after this many probes or when the bracket is tighter
  /// than `tolerance`.
  int max_probes = 10;
  double tolerance = 1e-4;
  std::size_t trials = 4;
  TrafficSimConfig base;
  std::uint64_t seed = 1;
};

struct SaturationResult {
  /// Midpoint of the final bracket: the estimated saturation injection rate.
  double saturation_rate = 0.0;
  /// Final bracket: highest rate observed unsaturated / lowest saturated.
  double lo = 0.0;
  double hi = 0.0;
  /// Every probed load point, in probe order (lo, hi, then bisection).
  std::vector<LoadPoint> probes;
};

/// Bisects the injection rate for the saturation onset under the given
/// criterion. Each probe runs `trials` seeded trials (parallel, determin-
/// istic as above); the probe sequence is deterministic, so the whole
/// search is reproducible for a fixed config and independent of thread
/// count.
[[nodiscard]] SaturationResult find_saturation_rate(
    const mesh::Mesh2D& machine, const grid::CellSet& blocked,
    const routing::Router& router, const SaturationConfig& config);

}  // namespace ocp::netsim
