// Round-by-round property test of the word-parallel evaluator: for both of
// the paper's phases, `run_sync` on the genuine protocols (word rounds) must
// match `run_sync` on the same protocols behind an adapter that hides the
// word hook (per-node rounds) — per-round change counts, final states and
// every RoundStats field — on mesh and torus, Definitions 2a and 2b, 0–30%
// faults, and widths on, off and around whole 64-bit words.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "core/activation_protocol.hpp"
#include "core/safety_protocol.hpp"
#include "fault/generators.hpp"
#include "simkernel/sync_runner.hpp"
#include "stats/rng.hpp"

#ifdef OCP_HAVE_OPENMP
#include <omp.h>
#endif

namespace ocp::sim {
namespace {

using labeling::Safety;
using labeling::SafeUnsafeDef;

/// Exposes exactly the `SyncProtocol` interface of `P`, so `run_sync` takes
/// the per-node path.
template <typename P>
class PerNode {
 public:
  using State = typename P::State;
  using Message = typename P::Message;

  explicit PerNode(const P& inner) : inner_(&inner) {}

  [[nodiscard]] State init(mesh::Coord c) const { return inner_->init(c); }
  [[nodiscard]] Message announce(const State& s) const {
    return inner_->announce(s);
  }
  [[nodiscard]] Message ghost_message() const {
    return inner_->ghost_message();
  }
  [[nodiscard]] bool participates(const State& s) const {
    return inner_->participates(s);
  }
  [[nodiscard]] bool update(State& s, const Inbox<Message>& inbox) const {
    return inner_->update(s, inbox);
  }

 private:
  const P* inner_;
};

static_assert(WordProtocol<labeling::SafetyProtocol>);
static_assert(WordProtocol<labeling::ActivationProtocol>);
static_assert(!WordProtocol<PerNode<labeling::SafetyProtocol>>);
static_assert(!WordProtocol<PerNode<labeling::ActivationProtocol>>);

struct Traced {
  grid::NodeGrid<std::uint8_t> states;
  RoundStats stats;
  std::vector<std::int64_t> changes;  // "sync.changes", one per round
};

/// Runs `proto` at TraceLevel::Round and keeps each state's encoding
/// (`encode`), the statistics and the per-round change counts.
template <typename P, typename Encode>
Traced traced_run(const mesh::Mesh2D& m, const P& proto, RunOptions opts,
                  Encode encode) {
  obs::TraceSink sink;
  opts.trace = {&sink, obs::TraceLevel::Round};
  const auto r = run_sync(m, proto, opts);
  Traced out{grid::NodeGrid<std::uint8_t>(m), r.stats, {}};
  for (std::size_t i = 0; i < r.states.size(); ++i) {
    out.states.at_index(i) = encode(r.states.at_index(i));
  }
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::Instant &&
        std::string_view(e.name) == "sync.changes") {
      out.changes.push_back(e.value);
    }
  }
  return out;
}

void expect_same(const Traced& word, const Traced& node,
                 const std::string& what) {
  EXPECT_EQ(word.changes, node.changes) << what;
  EXPECT_EQ(word.states, node.states) << what;
  EXPECT_EQ(word.stats.rounds_to_quiesce, node.stats.rounds_to_quiesce)
      << what;
  EXPECT_EQ(word.stats.rounds_executed, node.stats.rounds_executed) << what;
  EXPECT_EQ(word.stats.state_changes, node.stats.state_changes) << what;
  EXPECT_EQ(word.stats.messages_broadcast, node.stats.messages_broadcast)
      << what;
  EXPECT_EQ(word.stats.messages_event_driven,
            node.stats.messages_event_driven)
      << what;
}

/// Compares `word` with the per-node runs of `proto` in every
/// configuration: dense, frontier, and dense across 1, 2 and 8 OpenMP
/// threads (the per-node loop that mutants and the test tree's
/// `FaultDistanceProtocol` run).
template <typename P, typename Encode>
void expect_per_node_same(const mesh::Mesh2D& m, const Traced& word,
                          const P& proto, Encode encode,
                          const std::string& what) {
  for (const RunMode mode : {RunMode::Dense, RunMode::Frontier}) {
    expect_same(word, traced_run(m, PerNode(proto), {.mode = mode}, encode),
                what + (mode == RunMode::Dense ? " dense" : " frontier"));
  }
#ifdef OCP_HAVE_OPENMP
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    expect_same(word,
                traced_run(m, PerNode(proto),
                           {.mode = RunMode::Dense, .parallel = true}, encode),
                what + " parallel(threads=" + std::to_string(threads) + ")");
  }
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(WordRoundsTest, MatchesPerNodeRoundsRoundByRound) {
  const auto encode_safety = [](const labeling::SafetyProtocol::State& s) {
    return static_cast<std::uint8_t>(static_cast<int>(s.health) * 2 +
                                     static_cast<int>(s.safety));
  };
  const auto encode_activation =
      [](const labeling::ActivationProtocol::State& s) {
        return static_cast<std::uint8_t>(static_cast<int>(s.health) * 4 +
                                         static_cast<int>(s.safety) * 2 +
                                         static_cast<int>(s.activation));
      };

  stats::Rng rng(20260417);
  int cases = 0;
  for (const std::int32_t width : {1, 2, 3, 63, 64, 65, 127, 130}) {
    for (const std::int32_t height : {1, 2, 5, 37, 70}) {
      for (const auto topology : {mesh::Topology::Mesh, mesh::Topology::Torus}) {
        const mesh::Mesh2D m(width, height, topology);
        for (const double rate : {0.0, 0.05, 0.15, 0.30}) {
          const auto f = static_cast<std::size_t>(
              static_cast<double>(m.node_count()) * rate);
          const grid::CellSet faults = fault::uniform_random(m, f, rng);
          for (const auto def : {SafeUnsafeDef::Def2a, SafeUnsafeDef::Def2b}) {
            const std::string what = m.describe() + " f=" + std::to_string(f) +
                                     " " + labeling::to_string(def);
            const labeling::SafetyProtocol phase1(faults, def);
            const Traced word1 =
                traced_run(m, phase1, {.mode = RunMode::Frontier},
                           encode_safety);
            expect_per_node_same(m, word1, phase1, encode_safety,
                                 what + " phase 1");

            grid::NodeGrid<Safety> safety(m);
            for (std::size_t i = 0; i < safety.size(); ++i) {
              safety.at_index(i) = static_cast<Safety>(
                  word1.states.at_index(i) & 1);
            }
            const labeling::ActivationProtocol phase2(faults, safety);
            const Traced word2 =
                traced_run(m, phase2, {.mode = RunMode::Dense},
                           encode_activation);
            expect_per_node_same(m, word2, phase2, encode_activation,
                                 what + " phase 2");
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 8 * 5 * 2 * 4 * 2);
}

}  // namespace
}  // namespace ocp::sim
