// The synchronous runners: the per-node reference rounds of the test tree
// (`run_nodes`) on the kernel's test protocols, and the library's
// `run_sync`, which takes only word-parallel protocols.
#include "simkernel/sync_runner.hpp"

#include <gtest/gtest.h>

#include "core/safety_protocol.hpp"
#include "grid/cell_set.hpp"
#include "support/node_rounds.hpp"

namespace ocp::sim {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

/// Test protocol: distributed BFS. Every node computes its hop distance to
/// the nearest seed by exchanging its current estimate with its neighbors.
/// Converges in exactly max-distance rounds, which makes round accounting
/// easy to assert.
class BfsProtocol {
 public:
  struct State {
    std::int32_t distance = kInf;
    friend constexpr bool operator==(const State&, const State&) = default;
  };
  using Message = std::int32_t;

  static constexpr std::int32_t kInf = 1 << 20;

  explicit BfsProtocol(const grid::CellSet& seeds) : seeds_(&seeds) {}

  [[nodiscard]] State init(Coord c) const {
    return {seeds_->contains(c) ? 0 : kInf};
  }
  [[nodiscard]] Message announce(const State& s) const { return s.distance; }
  [[nodiscard]] Message ghost_message() const { return kInf; }
  [[nodiscard]] bool participates(const State&) const { return true; }
  [[nodiscard]] bool update(State& s, const Inbox<Message>& inbox) const {
    std::int32_t best = s.distance;
    for (mesh::Dir d : mesh::kAllDirs) {
      if (inbox[d] != kInf) best = std::min(best, inbox[d] + 1);
    }
    if (best != s.distance) {
      s.distance = best;
      return true;
    }
    return false;
  }

 private:
  const grid::CellSet* seeds_;
};

static_assert(SyncProtocol<BfsProtocol>);

/// Whether `run_sync` accepts `P` on a mesh and on an adjacency table.
template <typename P>
constexpr bool kRunSyncAccepts =
    requires(const Mesh2D& m, const mesh::AdjacencyTable& adj, const P& p) {
      run_sync(m, p);
      run_sync(adj, p);
    };

// The library runs word rounds only: a protocol without the word hook is
// rejected at compile time and runs on `run_nodes` instead.
static_assert(!kRunSyncAccepts<BfsProtocol>);
static_assert(kRunSyncAccepts<labeling::SafetyProtocol>);

TEST(SyncRunnerTest, BfsDistancesAreCorrect) {
  const Mesh2D m(7, 5);
  const grid::CellSet seeds{m, {{0, 0}}};
  const auto result = run_nodes(m, BfsProtocol(seeds));
  for (std::int32_t x = 0; x < 7; ++x) {
    for (std::int32_t y = 0; y < 5; ++y) {
      EXPECT_EQ((result.states[{x, y}].distance), x + y);
    }
  }
}

TEST(SyncRunnerTest, RoundsEqualEccentricity) {
  const Mesh2D m(7, 5);
  const grid::CellSet seeds{m, {{0, 0}}};
  const auto result = run_nodes(m, BfsProtocol(seeds));
  // Farthest node is at distance 6 + 4 = 10; information travels one hop per
  // round.
  EXPECT_EQ(result.stats.rounds_to_quiesce, 10);
  EXPECT_EQ(result.stats.rounds_executed, 11);  // final all-quiet round
}

TEST(SyncRunnerTest, AlreadyStableInputQuiescesInZeroRounds) {
  const Mesh2D m(4, 4);
  grid::CellSet seeds(m);
  for (std::size_t i = 0; i < 16; ++i) seeds.insert(m.coord(i));  // all seeds
  const auto result = run_nodes(m, BfsProtocol(seeds));
  EXPECT_EQ(result.stats.rounds_to_quiesce, 0);
  EXPECT_EQ(result.stats.rounds_executed, 1);
  EXPECT_EQ(result.stats.state_changes, 0u);
}

TEST(SyncRunnerTest, DenseAndFrontierAgree) {
  const Mesh2D m(9, 9);
  const grid::CellSet seeds{m, {{4, 4}, {0, 8}}};
  RunOptions dense{.mode = RunMode::Dense};
  RunOptions frontier{.mode = RunMode::Frontier};
  const auto a = run_nodes(m, BfsProtocol(seeds), dense);
  const auto b = run_nodes(m, BfsProtocol(seeds), frontier);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.stats.rounds_to_quiesce, b.stats.rounds_to_quiesce);
  EXPECT_EQ(a.stats.state_changes, b.stats.state_changes);
  EXPECT_EQ(a.stats.messages_broadcast, b.stats.messages_broadcast);
  EXPECT_EQ(a.stats.messages_event_driven, b.stats.messages_event_driven);
}

TEST(SyncRunnerTest, MessageAccounting) {
  const Mesh2D m(3, 3);
  const grid::CellSet seeds{m, {{1, 1}}};
  const auto result = run_nodes(m, BfsProtocol(seeds));
  // 3x3 mesh: total degree = 4*2 + 4*3 + 1*4 = 24 per round.
  EXPECT_EQ(result.stats.messages_broadcast,
            24u * static_cast<std::uint64_t>(result.stats.rounds_executed));
  // Event-driven: one initial announcement per link endpoint plus one per
  // change; must be no more than broadcast.
  EXPECT_LE(result.stats.messages_event_driven,
            result.stats.messages_broadcast);
  EXPECT_GE(result.stats.messages_event_driven, 24u);
}

TEST(SyncRunnerTest, TorusHasNoGhostInbox) {
  const Mesh2D m(5, 5, mesh::Topology::Torus);
  const grid::CellSet seeds{m, {{0, 0}}};
  const auto result = run_nodes(m, BfsProtocol(seeds));
  // On a torus distances wrap: node (4,4) is 2 away from (0,0).
  EXPECT_EQ((result.states[{4, 4}].distance), 2);
  EXPECT_EQ((result.states[{2, 2}].distance), 4);
}

TEST(SyncRunnerTest, ThrowsWhenRoundCapExceeded) {
  const Mesh2D m(8, 8);
  const grid::CellSet seeds{m, {{0, 0}}};
  RunOptions opts;
  opts.max_rounds = 3;  // needs 14
  EXPECT_THROW(run_nodes(m, BfsProtocol(seeds), opts), std::runtime_error);
}

TEST(SyncRunnerTest, WordRoundsThrowWhenRoundCapExceeded) {
  // A fault staircase: its inner corner turns unsafe only after both of its
  // neighbors have, one round later.
  const Mesh2D m(8, 8);
  const grid::CellSet faults{m, {{2, 0}, {1, 1}, {0, 2}}};
  const labeling::SafetyProtocol proto(faults, labeling::SafeUnsafeDef::Def2a);
  const std::int32_t rounds = run_sync(m, proto).stats.rounds_to_quiesce;
  ASSERT_GE(rounds, 2);
  EXPECT_THROW(run_sync(m, proto, {.max_rounds = 1}), std::runtime_error);
  EXPECT_THROW(run_sync(m, proto, {.max_rounds = rounds}),
               std::runtime_error);
  // One more round is the all-quiet one, which ends the run.
  EXPECT_NO_THROW(run_sync(m, proto, {.max_rounds = rounds + 1}));
}

/// Ghost-aware protocol: a node becomes marked when it has a ghost neighbor.
/// Verifies the kernel substitutes ghost messages exactly on the open
/// boundary.
class GhostProbeProtocol {
 public:
  struct State {
    bool marked = false;
    friend constexpr bool operator==(const State&, const State&) = default;
  };
  using Message = std::uint8_t;

  [[nodiscard]] State init(Coord) const { return {}; }
  [[nodiscard]] Message announce(const State&) const { return 0; }
  [[nodiscard]] Message ghost_message() const { return 1; }
  [[nodiscard]] bool participates(const State&) const { return true; }
  [[nodiscard]] bool update(State& s, const Inbox<Message>& inbox) const {
    bool ghost = false;
    for (mesh::Dir d : mesh::kAllDirs) ghost = ghost || inbox.is_ghost(d);
    if (ghost && !s.marked) {
      s.marked = true;
      return true;
    }
    return false;
  }
};

TEST(SyncRunnerTest, GhostMessagesOnlyOnMeshBoundary) {
  const Mesh2D m(5, 4);
  const auto result = run_nodes(m, GhostProbeProtocol{});
  for (std::int32_t x = 0; x < 5; ++x) {
    for (std::int32_t y = 0; y < 4; ++y) {
      const bool boundary = x == 0 || x == 4 || y == 0 || y == 3;
      EXPECT_EQ((result.states[{x, y}].marked), boundary);
    }
  }
}

TEST(SyncRunnerTest, NoGhostsOnTorus) {
  const Mesh2D m(5, 4, mesh::Topology::Torus);
  const auto result = run_nodes(m, GhostProbeProtocol{});
  for (const auto& s : result.states) EXPECT_FALSE(s.marked);
}

/// Protocol whose participating set shrinks as the run progresses: a node
/// starts with a countdown of its x coordinate and participates (and
/// broadcasts) only while the countdown is positive. Exercises the per-round
/// broadcast accounting — a single participating set captured from the
/// initial states would overcount every later round.
class CountdownProtocol {
 public:
  struct State {
    std::int32_t v = 0;
    friend constexpr bool operator==(const State&, const State&) = default;
  };
  using Message = std::int32_t;

  [[nodiscard]] State init(Coord c) const { return {c.x}; }
  [[nodiscard]] Message announce(const State& s) const { return s.v; }
  [[nodiscard]] Message ghost_message() const { return 0; }
  [[nodiscard]] bool participates(const State& s) const { return s.v > 0; }
  [[nodiscard]] bool update(State& s, const Inbox<Message>&) const {
    --s.v;  // participating nodes count down; update is only run while v > 0
    return true;
  }
};

static_assert(SyncProtocol<CountdownProtocol>);

TEST(SyncRunnerTest, BroadcastCountTracksShrinkingParticipation) {
  const Mesh2D m(6, 4);
  RunOptions dense{.mode = RunMode::Dense};
  RunOptions frontier{.mode = RunMode::Frontier};
  const auto a = run_nodes(m, CountdownProtocol{}, dense);
  const auto b = run_nodes(m, CountdownProtocol{}, frontier);

  // A node at column x participates in rounds 1..x; the run quiesces once
  // the last column reaches zero.
  EXPECT_EQ(a.stats.rounds_to_quiesce, 5);

  // The paper's broadcast model, recomputed from the states each round: in
  // round r exactly the nodes with x >= r still broadcast.
  std::uint64_t expected = 0;
  for (std::int32_t r = 1; r <= a.stats.rounds_executed; ++r) {
    for (std::int32_t x = r; x < m.width(); ++x) {
      for (std::int32_t y = 0; y < m.height(); ++y) {
        expected += m.neighbors({x, y}).size();
      }
    }
  }
  EXPECT_EQ(a.stats.messages_broadcast, expected);

  // Dense recomputes the participating set; frontier maintains it
  // incrementally. They must agree exactly.
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.stats.rounds_to_quiesce, b.stats.rounds_to_quiesce);
  EXPECT_EQ(a.stats.rounds_executed, b.stats.rounds_executed);
  EXPECT_EQ(a.stats.state_changes, b.stats.state_changes);
  EXPECT_EQ(a.stats.messages_broadcast, b.stats.messages_broadcast);
  EXPECT_EQ(a.stats.messages_event_driven, b.stats.messages_event_driven);
}

}  // namespace
}  // namespace ocp::sim
