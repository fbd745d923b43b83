// Node-by-node synchronous rounds: the reference the library's word rounds
// are checked against, and the runner for protocols without the
// word-parallel hook (the protocol mutants, `FaultDistanceProtocol`, the
// kernel's test protocols). Test-only; the library runs word rounds
// (`sim::run_sync`).
//
// A round is a synchronous double buffer: it reads only the previous
// round's states, so a dense round can run across OpenMP threads
// (`RunOptions::parallel`) with bit-identical results.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/node_grid.hpp"
#include "mesh/adjacency.hpp"
#include "simkernel/sync_runner.hpp"

namespace ocp::sim {

/// Runs `proto` to quiescence node by node over `adj` and returns the
/// fixpoint; stops after the first round with no change anywhere. Dense
/// mode evaluates every participating node every round — a literal
/// transcription of the paper's algorithm skeleton. Frontier mode evaluates
/// only nodes whose neighborhood changed in the previous round; since
/// `update` is a pure function of the inbox, a node with an unchanged inbox
/// cannot change, and the per-round states are identical.
template <SyncProtocol P>
RunResult<P> run_nodes(const mesh::AdjacencyTable& adj, const P& proto,
                       const RunOptions& opts = {}) {
  using State = typename P::State;
  const mesh::Mesh2D& m = adj.mesh();
  const std::size_t node_count = adj.node_count();

  grid::NodeGrid<State> curr(m);
  for (std::size_t i = 0; i < node_count; ++i) {
    curr.at_index(i) = proto.init(m.coord(i));
  }
  // Double buffer; invariant: next == curr at round start.
  grid::NodeGrid<State> next(curr);
  const typename P::Message ghost = proto.ghost_message();

  // Per-round broadcast cost of the paper's model: every *currently*
  // participating node announces to each physical neighbor. Maintained
  // incrementally as state changes flip `participates()`.
  std::uint64_t broadcast_now = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    if (proto.participates(curr.at_index(i))) {
      broadcast_now += static_cast<std::uint64_t>(adj.degree(i));
    }
  }
  RoundStats stats;
  // Round 0 of the event-driven refinement: everyone announces once.
  stats.messages_event_driven = broadcast_now;

  // The nodes evaluated this round: all of them in Dense mode. `changed`
  // has one writer per node, so a dense round can run across threads;
  // `queued` is a generation counter for building the next frontier without
  // an O(N) clear per round.
  std::vector<std::size_t> active(node_count);
  for (std::size_t i = 0; i < node_count; ++i) active[i] = i;
  std::vector<std::size_t> frontier;
  std::vector<std::uint8_t> changed(node_count, 0);
  std::vector<std::uint32_t> queued(node_count, 0);
  std::uint32_t generation = 0;

  for (std::int32_t round = 1; round <= opts.max_rounds; ++round) {
    stats.rounds_executed = round;
    const obs::Span round_span(opts.trace, "sync.round", opts.trace.rounds());
    stats.nodes_evaluated += active.size();
    if (opts.trace.rounds()) {
      opts.trace.instant("sync.frontier",
                         static_cast<std::int64_t>(active.size()));
    }
    stats.messages_broadcast += broadcast_now;

    std::uint64_t round_changes = 0;
    std::uint64_t changed_degree = 0;
    const auto count = static_cast<std::int64_t>(active.size());
#ifdef OCP_HAVE_OPENMP
#pragma omp parallel for if (opts.parallel && opts.mode == RunMode::Dense) \
    schedule(static) reduction(+ : round_changes, changed_degree)
#endif
    for (std::int64_t k = 0; k < count; ++k) {
      const std::size_t i = active[static_cast<std::size_t>(k)];
      State& s = next.at_index(i);
      if (!proto.participates(s)) continue;
      Inbox<typename P::Message> inbox;
      detail::gather(adj, proto, curr.data(), ghost, i, inbox);
      if (proto.update(s, inbox)) {
        changed[i] = 1;
        ++round_changes;
        changed_degree += static_cast<std::uint64_t>(adj.degree(i));
      }
    }

    if (opts.trace.rounds()) {
      opts.trace.instant("sync.changes",
                         static_cast<std::int64_t>(round_changes));
    }
    if (round_changes == 0) break;
    stats.rounds_to_quiesce = round;
    stats.state_changes += round_changes;
    // A node that changed announces its new state on each of its links.
    stats.messages_event_driven += changed_degree;

    ++generation;
    frontier.clear();
    for (const std::size_t i : active) {
      if (changed[i] == 0) continue;
      changed[i] = 0;
      // A state change may flip whether the node broadcasts next round.
      const auto deg = static_cast<std::uint64_t>(adj.degree(i));
      if (proto.participates(curr.at_index(i))) broadcast_now -= deg;
      if (proto.participates(next.at_index(i))) broadcast_now += deg;
      curr.at_index(i) = next.at_index(i);
      if (opts.mode == RunMode::Dense) continue;
      // Next round, only the changed nodes' neighborhoods can change.
      for (const std::int32_t j32 : adj.physical_neighbors(i)) {
        const auto j = static_cast<std::size_t>(j32);
        if (queued[j] != generation) {
          queued[j] = generation;
          frontier.push_back(j);
        }
      }
      if (queued[i] != generation) {
        queued[i] = generation;
        frontier.push_back(i);
      }
    }
    if (opts.mode == RunMode::Frontier) active.swap(frontier);
  }
  detail::finish_run(opts, stats);
  return RunResult<P>{std::move(curr), stats};
}

/// Convenience overload over `AdjacencyTable::cached`, valid for the whole
/// call.
template <SyncProtocol P>
RunResult<P> run_nodes(const mesh::Mesh2D& m, const P& proto,
                       const RunOptions& opts = {}) {
  return run_nodes(mesh::AdjacencyTable::cached(m), proto, opts);
}

}  // namespace ocp::sim
