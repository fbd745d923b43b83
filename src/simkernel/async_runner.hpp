// Asynchronous execution of a node-local protocol.
//
// The paper assumes synchronous lock-step rounds "to simplify the
// discussion". Because the labeling rules are monotone (safe -> unsafe and
// disabled -> enabled only), the fixpoint is independent of update order, so
// an asynchronous system — nodes updating at arbitrary times from their most
// recently received neighbor statuses — converges to the same labeling. This
// runner exercises that claim under randomized and deliberately hostile
// schedules; the async study measures the seeded-random one, and
// `check::check_schedules` asserts every schedule's fixpoint equals the
// synchronous one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "simkernel/sync_runner.hpp"
#include "stats/rng.hpp"

namespace ocp::sim {

/// Update orders. All must reach the synchronous fixpoint.
enum class Schedule : std::uint8_t {
  /// Every sweep visits all nodes in a fresh seeded-random order.
  SeededRandom = 0,
  /// Event-driven LIFO worklist: the most recently disturbed node updates
  /// first, so changes propagate depth-first along a single chain before the
  /// rest of the machine moves at all.
  Lifo = 1,
  /// Cyclic sweeps whose starting node rotates by a large coprime stride
  /// each sweep, biasing progress toward a moving hot spot.
  RotatingPriority = 2,
  /// Each sweep randomly skips about half the nodes (messages delayed
  /// indefinitely); every third sweep is full so quiescence is detectable.
  DelayedSweep = 3,
};

inline constexpr std::array<Schedule, 4> kAllSchedules = {
    Schedule::SeededRandom, Schedule::Lifo, Schedule::RotatingPriority,
    Schedule::DelayedSweep};

[[nodiscard]] constexpr const char* to_string(Schedule s) noexcept {
  switch (s) {
    case Schedule::SeededRandom: return "seeded-random";
    case Schedule::Lifo: return "lifo";
    case Schedule::RotatingPriority: return "rotating-priority";
    case Schedule::DelayedSweep: return "delayed-sweep";
  }
  return "schedule";
}

/// Cost metrics of an asynchronous run.
struct AsyncStats {
  /// Individual node update executions.
  std::uint64_t activations = 0;
  /// Updates that changed the node's state.
  std::uint64_t state_changes = 0;
  /// Passes over the node set until a full pass produced no change (1 for
  /// the LIFO worklist).
  std::int32_t sweeps = 0;
};

template <typename P>
struct AsyncResult {
  grid::NodeGrid<typename P::State> states;
  AsyncStats stats;
};

/// Runs `proto` to quiescence under `schedule`, applying updates in place
/// (so a node sees the newest states of already-updated neighbors — an
/// arbitrary asynchronous interleaving). Sweeping schedules stop when one
/// sweep that visited every node changes nothing.
template <SyncProtocol P>
AsyncResult<P> run_async(const mesh::AdjacencyTable& adj, const P& proto,
                         stats::Rng& rng,
                         Schedule schedule = Schedule::SeededRandom,
                         std::int32_t max_sweeps = 1 << 20) {
  const mesh::Mesh2D& m = adj.mesh();
  const std::size_t node_count = adj.node_count();
  grid::NodeGrid<typename P::State> states(m);
  for (std::size_t i = 0; i < node_count; ++i) {
    states.at_index(i) = proto.init(m.coord(i));
  }
  const typename P::Message ghost = proto.ghost_message();
  AsyncStats stats;

  const auto activate = [&](std::size_t i) -> bool {
    typename P::State& s = states.at_index(i);
    if (!proto.participates(s)) return false;
    ++stats.activations;
    // In-place gather: neighbors may already hold this sweep's new states,
    // modelling arbitrary message timing.
    Inbox<typename P::Message> inbox;
    detail::gather(adj, proto, states.data(), ghost, i, inbox);
    if (proto.update(s, inbox)) {
      ++stats.state_changes;
      return true;
    }
    return false;
  };

  if (schedule == Schedule::Lifo) {
    // Worklist semantics: seed with every node (pushed row-major, so the
    // last node pops first), and whenever a node changes, push its
    // neighbors so they re-run immediately — depth-first change chasing.
    // The monotone rules guarantee termination (each node changes at most
    // once per status) and confluence to the synchronous fixpoint.
    std::vector<std::size_t> stack(node_count);
    std::iota(stack.begin(), stack.end(), std::size_t{0});
    std::vector<std::uint8_t> on_stack(node_count, 1);
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      on_stack[i] = 0;
      if (!activate(i)) continue;
      for (const std::int32_t j32 : adj.physical_neighbors(i)) {
        const auto j = static_cast<std::size_t>(j32);
        if (!on_stack[j]) {
          on_stack[j] = 1;
          stack.push_back(j);
        }
      }
    }
    stats.sweeps = 1;
    return AsyncResult<P>{std::move(states), stats};
  }

  std::vector<std::size_t> order(node_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::int32_t sweep = 1; sweep <= max_sweeps; ++sweep) {
    stats.sweeps = sweep;
    bool any_change = false;
    bool full_sweep = true;
    switch (schedule) {
      case Schedule::SeededRandom:
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (std::size_t i : order) any_change |= activate(i);
        break;
      case Schedule::RotatingPriority: {
        // 7919 is prime, hence coprime with any node count that is not a
        // multiple of it; the start point hops almost half the machine each
        // sweep either way, which is all the adversary needs.
        const std::size_t start =
            (static_cast<std::size_t>(sweep) * 7919) % node_count;
        for (std::size_t k = 0; k < node_count; ++k) {
          any_change |= activate((start + k) % node_count);
        }
        break;
      }
      case Schedule::DelayedSweep:
        full_sweep = sweep % 3 == 0;
        for (std::size_t i = 0; i < node_count; ++i) {
          if (!full_sweep && rng.bernoulli(0.5)) continue;  // message delayed
          any_change |= activate(i);
        }
        break;
      case Schedule::Lifo: break;  // handled above
    }
    // Quiescence is only observable after a sweep that visited every node.
    if (!any_change && full_sweep) {
      return AsyncResult<P>{std::move(states), stats};
    }
  }
  throw std::runtime_error(
      "run_async: protocol did not quiesce within max_sweeps");
}

/// Convenience overload that builds the adjacency table for one
/// seeded-random run.
template <SyncProtocol P>
AsyncResult<P> run_async(const mesh::Mesh2D& m, const P& proto,
                         stats::Rng& rng, std::int32_t max_sweeps = 1 << 20) {
  return run_async(mesh::AdjacencyTable(m), proto, rng,
                   Schedule::SeededRandom, max_sweeps);
}

}  // namespace ocp::sim
