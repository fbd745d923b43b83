// Synchronous lock-step execution of a node-local protocol (the paper's
// "iterative message exchanges among neighboring nodes").
//
// `run_sync` takes protocols with the word-parallel hook (`WordProtocol`,
// both of the paper's phases) and runs them on bit planes, 64 nodes per
// operation. A round is a synchronous double buffer: it reads only the
// previous round's states. The node-by-node form of the same rounds, for
// protocols without the hook, is a reference that lives with the tests
// (`tests/support/node_rounds.hpp`); the library runs such protocols only
// asynchronously (`run_async`), which shares `detail::gather` with it.
#pragma once

#include <bit>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/bit_plane.hpp"
#include "grid/node_grid.hpp"
#include "mesh/adjacency.hpp"
#include "simkernel/protocol.hpp"

namespace ocp::sim {

/// Result of a synchronous run: the stable per-node states plus cost metrics.
template <typename P>
struct RunResult {
  grid::NodeGrid<typename P::State> states;
  RoundStats stats;
};

namespace detail {

/// Builds the inbox of node `i` from the neighbor states in `prev`.
template <SyncProtocol P>
inline void gather(const mesh::AdjacencyTable& adj, const P& proto,
                   const typename P::State* prev,
                   const typename P::Message& ghost, std::size_t i,
                   Inbox<typename P::Message>& inbox) {
  const std::int32_t* row = adj.dir_row(i);
  for (std::size_t slot = 0; slot < mesh::kNumDirs; ++slot) {
    const std::int32_t j = row[slot];
    if (j >= 0) {
      inbox.by_dir[slot] = proto.announce(prev[static_cast<std::size_t>(j)]);
      inbox.from_ghost[slot] = false;
    } else {
      // Open mesh boundary: the missing neighbor is a ghost node whose
      // status never changes (paper, section 3).
      inbox.by_dir[slot] = ghost;
      inbox.from_ghost[slot] = true;
    }
  }
}

/// Ends a synchronous run: enforces the round cap.
inline void finish_run(const RunOptions& opts, const RoundStats& stats) {
  if (stats.rounds_executed >= opts.max_rounds &&
      stats.rounds_to_quiesce == stats.rounds_executed) {
    throw std::runtime_error(
        "run_sync: protocol did not quiesce within max_rounds");
  }
}

}  // namespace detail

/// Runs `proto` to quiescence on `m` and returns the fixpoint: lock-step
/// word rounds that stop after the first round with no change anywhere.
/// Row `y`'s north neighbor row is `y + 1` and its east neighbor of bit `x`
/// is bit `x + 1`; at the open mesh boundary ghost bits are shifted in, on a
/// torus the words rotate and carry across the row ends and the edge rows
/// wrap.
template <WordProtocol P>
RunResult<P> run_sync(const mesh::Mesh2D& m, const P& proto,
                      const RunOptions& opts = {}) {
  grid::BitPlane cur(m);
  grid::BitPlane part(m);
  proto.init_bits(cur, part);
  grid::BitPlane next(m);  // every round writes all of it

  const std::int32_t h = m.height();
  const bool torus = m.is_torus();
  const std::size_t last = cur.words_per_row() - 1;
  const int last_bit = (m.width() - 1) % 64;
  const std::uint64_t ghost =
      static_cast<std::uint64_t>(proto.ghost_message()) & 1;
  const std::vector<std::uint64_t> ghost_row(last + 1, ghost != 0 ? ~0ULL : 0);

  // Links announced on by `count` nodes of row `y`, whose first and last
  // words are `first` and `end`: four per torus node; on the open mesh,
  // minus the links that would leave the machine.
  const auto links = [&](std::int32_t y, std::uint64_t count,
                         std::uint64_t first, std::uint64_t end) {
    if (torus) return 4 * count;
    const std::uint64_t vertical = (y > 0 ? 1u : 0u) + (y + 1 < h ? 1u : 0u);
    return count * (2 + vertical) - (first & 1) - (end >> last_bit & 1);
  };

  // Participation is static, so every round broadcasts the same count.
  std::uint64_t participants = 0;
  std::uint64_t part_links = 0;
  for (std::int32_t y = 0; y < h; ++y) {
    const std::uint64_t* p = part.row(y);
    std::uint64_t count = 0;
    for (std::size_t k = 0; k <= last; ++k) {
      count += static_cast<std::uint64_t>(std::popcount(p[k]));
    }
    participants += count;
    part_links += links(y, count, p[0], p[last]);
  }

  RoundStats stats;
  // Round 0 of the event-driven refinement: every participant announces.
  stats.messages_event_driven = part_links;
  for (std::int32_t round = 1; round <= opts.max_rounds; ++round) {
    stats.rounds_executed = round;
    const obs::Span round_span(opts.trace, "sync.round", opts.trace.rounds());
    if (opts.trace.rounds()) {
      opts.trace.instant("sync.frontier",
                         static_cast<std::int64_t>(participants));
    }
    stats.nodes_evaluated += participants;
    stats.messages_broadcast += part_links;

    std::uint64_t changes = 0;
    std::uint64_t changed_links = 0;
    for (std::int32_t y = 0; y < h; ++y) {
      const std::uint64_t* row = cur.row(y);
      const std::uint64_t* north = y + 1 < h ? cur.row(y + 1)
                                   : torus   ? cur.row(0)
                                             : ghost_row.data();
      const std::uint64_t* south = y > 0   ? cur.row(y - 1)
                                   : torus ? cur.row(h - 1)
                                           : ghost_row.data();
      const std::uint64_t* p = part.row(y);
      std::uint64_t* out = next.row(y);
      // The bits entering at the row ends: the ghost frame, or the other
      // end of the row across the torus wrap.
      const std::uint64_t east_end = torus ? row[0] & 1 : ghost;
      const std::uint64_t west_end = torus ? row[last] >> last_bit & 1 : ghost;
      std::uint64_t count = 0;
      for (std::size_t k = 0; k <= last; ++k) {
        const std::uint64_t east =
            row[k] >> 1 | (k < last ? row[k + 1] << 63 : east_end << last_bit);
        const std::uint64_t west =
            row[k] << 1 | (k > 0 ? row[k - 1] >> 63 : west_end);
        // Pad bits are non-participants, so they stay zero.
        const std::uint64_t bits =
            proto.step_bits(row[k], p[k], east, west, north[k], south[k]);
        out[k] = bits;
        if (bits != row[k]) {
          count += static_cast<std::uint64_t>(std::popcount(bits ^ row[k]));
        }
      }
      if (count != 0) {
        changes += count;
        changed_links +=
            links(y, count, out[0] ^ row[0], out[last] ^ row[last]);
      }
    }

    if (opts.trace.rounds()) {
      opts.trace.instant("sync.changes", static_cast<std::int64_t>(changes));
    }
    if (changes == 0) break;
    stats.rounds_to_quiesce = round;
    stats.state_changes += changes;
    // A node that changed announces its new state on each of its links.
    stats.messages_event_driven += changed_links;
    std::swap(cur, next);
  }
  detail::finish_run(opts, stats);

  RunResult<P> result{grid::NodeGrid<typename P::State>(m), stats};
  proto.states_from_bits(
      cur, part, std::span(result.states.data(), result.states.size()));
  return result;
}

/// Runs `proto` to quiescence on the machine described by `adj` and returns
/// the fixpoint: word rounds need only the table's mesh.
template <WordProtocol P>
RunResult<P> run_sync(const mesh::AdjacencyTable& adj, const P& proto,
                      const RunOptions& opts = {}) {
  return run_sync(adj.mesh(), proto, opts);
}

}  // namespace ocp::sim
