// Open-loop traffic on the wormhole substrate: nodes inject worms to
// uniform-random destinations at a configurable offered load, routes come
// from any `routing::Router`, and the run reports accepted throughput and
// latency — the classic latency-vs-offered-load methodology for evaluating
// a fault model end to end.
#pragma once

#include <cstdint>

#include "netsim/wormhole.hpp"
#include "routing/route_cache.hpp"
#include "routing/router.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"

namespace ocp::netsim {

/// How worms are mapped to virtual channels.
enum class VcScheme : std::uint8_t {
  /// Dimension-order hops on VC 0, detour hops on the last VC. Simple but
  /// can deadlock under heavy load (cross-packet cycles on the escape VC).
  PhaseEscape = 0,
  /// Boppana-Chalasani message classes (WE/EW/NS/SN), one VC each;
  /// requires num_vcs >= 4.
  MessageClass = 1,
};

struct TrafficSimConfig {
  /// Offered load: probability per node per cycle of generating a worm
  /// (flits/node/cycle offered = injection_rate * packet_flits).
  double injection_rate = 0.002;
  std::int32_t packet_flits = 4;
  /// Cycles during which sources generate worms; the run then drains.
  std::int64_t warm_cycles = 512;
  std::uint8_t num_vcs = 2;
  VcScheme vc_scheme = VcScheme::PhaseEscape;
  std::int32_t vc_buffer_flits = 2;
  std::int64_t deadlock_threshold = 1024;
  std::uint64_t seed = 1;
  /// Observability (src/obs): propagated to the wormhole kernel; the run
  /// itself is a "traffic_sim.run" span with offered/delivered/unroutable
  /// counters. Disabled (null sink) by default; never affects results.
  obs::TraceConfig trace;
};

struct TrafficSimResult {
  std::size_t offered_packets = 0;
  std::size_t delivered_packets = 0;
  /// Routes that traverse some virtual channel twice (detour retraced a
  /// corridor) cannot be shipped as one worm and are dropped.
  std::size_t unroutable_packets = 0;
  bool deadlocked = false;
  std::int64_t cycles = 0;
  /// Individual flit movements executed by the simulator.
  std::int64_t flit_moves = 0;
  /// Latency (inject -> tail absorbed) of delivered worms.
  stats::Summary latency;
  /// Latency distribution (cycles, 64 buckets up to 4096) for percentile
  /// queries — the saturation tail a mean hides.
  stats::Histogram latency_hist{0.0, 4096.0, 64};
  /// Delivered worms whose latency was at or above the histogram range;
  /// when nonzero, upper percentiles of `latency_hist` are lower bounds,
  /// not estimates (the samples are clamped into the last bucket).
  std::uint64_t latency_overflow = 0;
  /// Accepted throughput in flits per node per cycle over the whole run.
  double accepted_flits_per_node_cycle = 0.0;
};

/// Generates the load, routes every worm with `router` (worms whose route
/// fails are dropped from the offered count), runs the wormhole simulator
/// to drain and aggregates the outcome. Deterministic for a fixed config.
[[nodiscard]] TrafficSimResult run_traffic_sim(const mesh::Mesh2D& machine,
                                               const grid::CellSet& blocked,
                                               const routing::Router& router,
                                               const TrafficSimConfig& config);

/// Same, but takes routes from `routes` (a memoizing wrapper over the
/// intended router and the same machine) so repeated (src, dst) pairs —
/// steady-state injection, or many trials over one machine — cost a table
/// lookup instead of a router traversal. Results are identical to the
/// uncached overload.
[[nodiscard]] TrafficSimResult run_traffic_sim(const mesh::Mesh2D& machine,
                                               const grid::CellSet& blocked,
                                               const TrafficSimConfig& config,
                                               routing::RouteCache& routes);

}  // namespace ocp::netsim
