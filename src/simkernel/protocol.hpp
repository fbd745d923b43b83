// Protocol concept and run statistics for the distributed labeling kernel.
//
// The paper's algorithms are synchronous iterative protocols: in each round
// every nonfaulty node sends its current status to its neighbors, receives
// theirs, and applies a local update rule; the protocol stops when a round
// produces no status change anywhere (quiescence). `SyncProtocol` captures
// exactly that node-local interface — an update rule may look only at the
// node's own state and the messages received from its (at most four)
// neighbors, which is what makes the algorithm distributed.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>

#include "grid/bit_plane.hpp"
#include "mesh/coord.hpp"
#include "mesh/mesh2d.hpp"
#include "obs/trace.hpp"

namespace ocp::sim {

/// Messages received by one node in one round, indexed by direction. On the
/// open mesh boundary the missing physical neighbor is replaced by the ghost
/// message (paper, section 3); `from_ghost` records that substitution.
template <typename Message>
struct Inbox {
  std::array<Message, mesh::kNumDirs> by_dir{};
  std::array<bool, mesh::kNumDirs> from_ghost{};

  [[nodiscard]] const Message& operator[](mesh::Dir d) const noexcept {
    return by_dir[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] bool is_ghost(mesh::Dir d) const noexcept {
    return from_ghost[static_cast<std::size_t>(d)];
  }
};

/// Node-local protocol interface. All methods must be pure functions of
/// their arguments — the kernel owns scheduling and delivery.
template <typename P>
concept SyncProtocol = requires(const P p, typename P::State s,
                                const typename P::State cs,
                                const Inbox<typename P::Message>& inbox,
                                mesh::Coord c) {
  /// Initial state of the node at `c` (round 0, before any exchange).
  { p.init(c) } -> std::same_as<typename P::State>;
  /// The status message a node broadcasts, derived from its current state.
  { p.announce(cs) } -> std::same_as<typename P::Message>;
  /// The constant message attributed to ghost neighbors outside an open mesh.
  { p.ghost_message() } -> std::same_as<typename P::Message>;
  /// Whether this node runs the update rule (faulty nodes cease to work).
  { p.participates(cs) } -> std::same_as<bool>;
  /// One local update from received messages; returns true iff `s` changed.
  { p.update(s, inbox) } -> std::same_as<bool>;
};

/// Word-parallel form of a protocol whose message is a one-byte 0/1 value
/// (a node's bit is `announce(state)`, the ghost bit is `ghost_message()`)
/// and whose participation never changes: both of the paper's phases.
/// `run_sync` requires it and evaluates 64 nodes per operation on
/// `grid::BitPlane`s; rounds, states and every `RoundStats` field match the
/// per-node rounds of the same protocol exactly on every input the
/// protocol's hook documents as valid (`WordRoundsTest`).
template <typename P>
concept WordProtocol =
    SyncProtocol<P> && sizeof(typename P::Message) == 1 &&
    requires(const P p, grid::BitPlane& plane, const grid::BitPlane& cplane,
             std::uint64_t w, std::span<typename P::State> out) {
      /// Fills the round-0 bits and the participants (of `init`'s states).
      p.init_bits(plane, plane);
      /// `update` for a word of nodes: the next bits from each node's bit,
      /// participation and neighbor bits (east, west, north, south).
      /// Non-participants keep their bits.
      { p.step_bits(w, w, w, w, w, w) } -> std::same_as<std::uint64_t>;
      /// Writes the final states (from the bits and participants) over
      /// value-initialized `out`, so only nodes unlike `State{}` need
      /// writing.
      p.states_from_bits(cplane, cplane, out);
    };

/// Word form of the paper's 2-of-4 threshold (Definitions 2a and 3): the
/// bits set in at least two of the four neighbor words.
[[nodiscard]] constexpr std::uint64_t at_least_two(std::uint64_t a,
                                                   std::uint64_t b,
                                                   std::uint64_t c,
                                                   std::uint64_t d) noexcept {
  return (a & b) | (c & d) | ((a | b) & (c | d));
}

/// How per-node rounds schedule node updates. Both modes compute the same
/// round-by-round states. `run_sync`'s word rounds are the same in either
/// mode.
enum class RunMode : std::uint8_t {
  /// Lock-step rounds, every node evaluated every round — the paper's model.
  Dense = 0,
  /// Lock-step rounds, but only nodes whose neighborhood changed in the
  /// previous round are re-evaluated. Identical round-by-round states to
  /// Dense (a node with an unchanged inbox cannot change), much faster on
  /// sparse fault patterns.
  Frontier = 1,
};

/// Convergence and cost metrics of one protocol run.
struct RoundStats {
  /// Rounds in which at least one node changed state — the paper's "number
  /// of rounds needed" metric (0 when the initial labeling is already
  /// stable).
  std::int32_t rounds_to_quiesce = 0;
  /// Rounds executed including the final all-quiet detection round.
  std::int32_t rounds_executed = 0;
  /// Total node state changes across the run.
  std::uint64_t state_changes = 0;
  /// Link messages under the paper's model (every participating node
  /// announces to every physical neighbor, every executed round).
  std::uint64_t messages_broadcast = 0;
  /// Link messages under an event-driven refinement (a node announces only
  /// when its state changed; round 0 announces initial state).
  std::uint64_t messages_event_driven = 0;
  /// Node updates computed, summed over executed rounds: every participant
  /// each round in word rounds; only the frontier in the per-node reference
  /// rounds' Frontier mode.
  std::uint64_t nodes_evaluated = 0;
};

/// Kernel knobs.
struct RunOptions {
  /// `mode` and `parallel` are read only by the per-node reference rounds
  /// in the test tree (`tests/support/node_rounds.hpp`); `run_sync` ignores
  /// both. They stay because the repository benchmark's label_cold names
  /// them.
  RunMode mode = RunMode::Frontier;
  /// Evaluate dense per-node rounds across OpenMP threads. Sound because
  /// `update` is a pure function of the previous-round plane and all round
  /// statistics are integer reductions, so results and stats are
  /// bit-identical for any thread count.
  bool parallel = false;
  /// Safety cap; the monotone labeling protocols converge in at most
  /// max-fault-block-diameter rounds, so hitting this cap indicates a bug.
  std::int32_t max_rounds = 1 << 20;
  /// Observability: disabled by default. At TraceLevel::Round the runner
  /// emits one "sync.round" span plus frontier/changes instants per round.
  obs::TraceConfig trace;
};

}  // namespace ocp::sim
