// Flit-level wormhole switching simulator for 2-D meshes/tori.
//
// The paper's fault model exists to serve wormhole-routed multicomputers:
// a blocked worm holds its chain of virtual channels while waiting for the
// next one, so cyclic channel dependencies become real deadlocks. This
// simulator reproduces that mechanism directly:
//
//  * every directed link of the machine carries `num_vcs` virtual channels,
//    each with a small flit buffer;
//  * a packet (worm) follows a precomputed source route (e.g. produced by
//    the routers in routing/) and occupies a contiguous chain of virtual
//    channels from tail to head; one flit advances per channel per cycle;
//  * a virtual channel is owned by exactly one worm from the arrival of its
//    head flit until its tail flit leaves;
//  * if no flit moves for `deadlock_threshold` consecutive cycles while
//    worms are in flight, the run reports deadlock and the stuck worms.
//
// `run()` is an event-driven worklist (see DESIGN.md §8): only worms that
// can change state are stepped. A worm blocked on a busy virtual channel is
// parked on that channel's wake list and re-activated when the owning worm
// releases it, and the clock jumps over quiescent gaps between injections.
// Its `SimResult` is bit-identical to stepping every worm on every cycle in
// submission order; that sweep is a reference in the test tree
// (`tests/support/wormhole_sweep.hpp`), written without this class.
//
// Tests drive the classic scenarios: dimension-order traffic never
// deadlocks on one virtual channel; a turn cycle of four long worms
// deadlocks on one virtual channel and is broken by assigning a second one;
// `tests/netsim/kernel_equivalence_test.cpp` asserts equivalence with the
// sweep on seeded random batches.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/mesh2d.hpp"
#include "obs/trace.hpp"
#include "routing/router.hpp"
#include "stats/summary.hpp"

namespace ocp::netsim {

/// A source-routed worm to inject.
struct PacketSpec {
  /// Nodes visited, source first. Must walk machine links.
  std::vector<mesh::Coord> path;
  /// Virtual channel per hop (size = path.size() - 1), each < num_vcs.
  std::vector<std::uint8_t> vcs;
  /// Number of flits (head + body); >= 1.
  std::int32_t length_flits = 4;
  /// Cycle at which the source starts trying to inject.
  std::int64_t inject_cycle = 0;
};

/// Builds a PacketSpec from a computed route: dimension-order hops ride
/// virtual channel 0, detour hops ride `num_vcs - 1`. Simple, but NOT
/// deadlock-free under heavy load: detours of different packets can close a
/// dependency cycle on the shared escape channel (measured in
/// bench/netsim_saturation).
[[nodiscard]] PacketSpec make_packet(const routing::Route& route,
                                     std::uint8_t num_vcs,
                                     std::int32_t length_flits,
                                     std::int64_t inject_cycle);

/// Boppana-Chalasani style message-class assignment: the whole worm rides
/// one virtual channel chosen by its e-cube class — west-to-east messages
/// on VC 0, east-to-west on VC 1, column-only northbound on VC 2 and
/// southbound on VC 3 (requires num_vcs >= 4). Packets of different classes
/// can never wait on each other, which removes the cross-class cycles the
/// naive scheme allows. On a torus the class is still the *planar* address
/// comparison, so a wrap-crossing message is classed opposite to its travel
/// direction — which acts as a dateline on single-row/column wrap rings
/// (exercised in tests/netsim/kernel_equivalence_test.cpp).
[[nodiscard]] PacketSpec make_packet_class_based(const routing::Route& route,
                                                 std::int32_t length_flits,
                                                 std::int64_t inject_cycle);

struct SimConfig {
  std::uint8_t num_vcs = 1;
  /// Flit buffer capacity per virtual channel.
  std::int32_t vc_buffer_flits = 2;
  /// Hard stop for the simulation.
  std::int64_t max_cycles = 1 << 20;
  /// Cycles without any flit movement that count as deadlock.
  std::int64_t deadlock_threshold = 256;
  /// Observability: when enabled, run() is a span and reports cycles /
  /// flit-move / worms-retired / clock-jump counters. Never affects results.
  obs::TraceConfig trace;
};

struct PacketOutcome {
  bool delivered = false;
  std::int64_t inject_cycle = 0;
  /// Cycle the tail flit was absorbed (valid when delivered).
  std::int64_t finish_cycle = 0;

  [[nodiscard]] std::int64_t latency() const noexcept {
    return finish_cycle - inject_cycle;
  }
};

struct SimResult {
  bool deadlocked = false;
  /// Cycles executed.
  std::int64_t cycles = 0;
  std::size_t delivered = 0;
  std::size_t stuck = 0;
  /// Individual flit movements executed (injections + channel hops +
  /// ejections) — the natural work unit for throughput reporting.
  std::int64_t flit_moves = 0;
  /// Idle cycles the event-driven clock jumped over instead of running.
  std::int64_t cycles_jumped = 0;
  /// Latency (inject -> tail absorbed) of delivered worms.
  stats::Summary latency;
  /// Per-packet outcomes, in submission order.
  std::vector<PacketOutcome> packets;
};

/// Discrete-time wormhole simulator. Submit worms, then `run()` to
/// completion, deadlock, or the cycle cap.
class WormholeSim {
 public:
  WormholeSim(const mesh::Mesh2D& machine, const SimConfig& config);

  /// Validates and queues a worm; throws std::invalid_argument on a
  /// malformed path or out-of-range virtual channel.
  void submit(PacketSpec spec);

  [[nodiscard]] std::size_t packet_count() const noexcept {
    return worms_.size();
  }

  /// Runs to quiescence (all worms absorbed), deadlock, or max_cycles.
  [[nodiscard]] SimResult run();

 private:
  /// Per-worm scalar state. Hop data (channel ids and per-channel flit
  /// occupancy) lives in the shared `channels_` / `occupancy_` arenas at
  /// [first_hop, first_hop + hops) — no per-worm heap allocations.
  struct Worm {
    std::uint32_t first_hop = 0;
    std::uint32_t hops = 0;
    /// Worm extent: hops [tail_hop, head_hop) are currently owned
    /// (indices relative to first_hop).
    std::uint32_t tail_hop = 0;
    std::uint32_t head_hop = 0;
    /// Flits not yet injected at the source.
    std::int32_t flits_at_source = 0;
    /// Flits already absorbed at the destination.
    std::int32_t flits_absorbed = 0;
    std::int32_t length_flits = 0;
    std::int64_t inject_cycle = 0;
    bool done = false;
  };

  [[nodiscard]] std::size_t channel_id(mesh::Coord from, mesh::Dir dir,
                                       std::uint8_t vc) const noexcept;
  /// Advances one worm by at most one flit per channel; returns true if
  /// anything moved. `on_release(channel)` fires for every virtual channel
  /// the worm's tail releases this cycle (the wake hook).
  template <typename OnRelease>
  bool step_worm(std::size_t wi, OnRelease&& on_release);

  [[nodiscard]] SimResult run_event();

  mesh::Mesh2D mesh_;
  SimConfig config_;
  std::vector<Worm> worms_;
  /// Hop arenas shared by all worms (SoA; indexed by Worm::first_hop).
  std::vector<std::uint32_t> channels_;
  std::vector<std::int32_t> occupancy_;
  /// Owner worm index per channel, -1 when free.
  std::vector<std::int32_t> owner_;
  /// Duplicate-channel detection scratch for submit(): channel -> epoch of
  /// the last submit that touched it (avoids a per-submit hash set).
  std::vector<std::uint32_t> submit_mark_;
  std::uint32_t submit_epoch_ = 0;
  /// Flit movements executed by step_worm during the current run().
  std::int64_t flit_moves_ = 0;
};

}  // namespace ocp::netsim
