// Snapshots that share instead of copying: every copy-on-write successor
// answers exactly as a from-scratch build of the same labeling, its lazily
// materialized whole-machine views included, and those views stay frozen
// at their epoch while the labeling moves on. The concurrency test races
// the first calls to the lazy accessors; under OCP_SANITIZE=thread
// (ctest -L tsan) it checks the memoization is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fault/generators.hpp"
#include "svc/ingest.hpp"
#include "svc/snapshot.hpp"

namespace ocp::svc {
namespace {

using mesh::Coord;
using mesh::Mesh2D;

void expect_same_blocks(const std::vector<labeling::FaultyBlock>& a,
                        const std::vector<labeling::FaultyBlock>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].region(), b[i].region()) << context;
    ASSERT_EQ(a[i].fault_count, b[i].fault_count) << context;
    ASSERT_EQ(a[i].unsafe_nonfaulty_count, b[i].unsafe_nonfaulty_count)
        << context;
  }
}

void expect_same_regions(const std::vector<labeling::DisabledRegion>& a,
                         const std::vector<labeling::DisabledRegion>& b,
                         const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].region(), b[i].region()) << context;
    ASSERT_EQ(a[i].parent_block, b[i].parent_block) << context;
    ASSERT_EQ(a[i].fault_count, b[i].fault_count) << context;
    ASSERT_EQ(a[i].disabled_nonfaulty_count, b[i].disabled_nonfaulty_count)
        << context;
  }
}

/// Every query and every lazy view of `got` equals `want`'s.
void expect_same_answers(const Snapshot& got, const Snapshot& want,
                         const std::vector<std::pair<Coord, Coord>>& pairs,
                         const std::string& context) {
  const Mesh2D& m = want.machine();
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.node_count()); ++i) {
    const Coord c = m.coord(i);
    ASSERT_EQ(got.status_of(c), want.status_of(c)) << context;
    ASSERT_EQ(got.region_id_of(c), want.region_id_of(c)) << context;
    const RegionSummary g = got.region_summary(c);
    const RegionSummary w = want.region_summary(c);
    ASSERT_EQ(g.id, w.id) << context;
    ASSERT_EQ(g.size, w.size) << context;
    ASSERT_EQ(g.fault_count, w.fault_count) << context;
    ASSERT_EQ(g.parent_block, w.parent_block) << context;
    const labeling::DisabledRegion* gr = got.region_of(c);
    const labeling::DisabledRegion* wr = want.region_of(c);
    ASSERT_EQ(gr == nullptr, wr == nullptr) << context;
    if (gr != nullptr) {
      ASSERT_EQ(gr->region(), wr->region()) << context;
      ASSERT_EQ(gr->parent_block, wr->parent_block) << context;
      ASSERT_EQ(static_cast<std::int32_t>(gr->size()), static_cast<std::int32_t>(g.size))
          << context;
    }
  }
  for (const auto& [a, b] : pairs) {
    const routing::Route& gr = got.route(a, b);
    const routing::Route& wr = want.route(a, b);
    ASSERT_EQ(gr.status, wr.status) << context;
    ASSERT_EQ(gr.path, wr.path) << context;
    ASSERT_EQ(gr.phase, wr.phase) << context;
  }
  ASSERT_EQ(got.label_digest(), want.label_digest()) << context;
  ASSERT_EQ(got.faults(), want.faults()) << context;
  ASSERT_EQ(got.blocked(), want.blocked()) << context;
  ASSERT_EQ(got.safety(), want.safety()) << context;
  ASSERT_EQ(got.activation(), want.activation()) << context;
  expect_same_blocks(got.blocks(), want.blocks(), context);
  expect_same_regions(got.regions(), want.regions(), context);
}

TEST(SnapshotLazyTest, EveryNextAnswersAsAFreshBuild) {
  struct Case {
    std::int32_t w, h;
    mesh::Topology topology;
    std::vector<double> densities;
  };
  const std::vector<double> all = {0.0, 0.1, 0.2, 0.3};
  // 520x512 has 32x32 pages inside 128x128 tiles, with partial pages on
  // the right edge; its densities stay near the benchmark's to bound the
  // cost of the whole-machine comparisons.
  const Case cases[] = {{40, 24, mesh::Topology::Mesh, all},
                        {37, 37, mesh::Topology::Mesh, all},
                        {32, 32, mesh::Topology::Torus, all},
                        {27, 19, mesh::Topology::Torus, all},
                        {520, 512, mesh::Topology::Mesh, {0.005, 0.01}}};
  for (const Case& c : cases) {
    const Mesh2D m(c.w, c.h, c.topology);
    const grid::TileGrid tiles(m);
    for (const labeling::SafeUnsafeDef def :
         {labeling::SafeUnsafeDef::Def2a, labeling::SafeUnsafeDef::Def2b}) {
      for (const double density : c.densities) {
        stats::Rng rng(static_cast<std::uint64_t>(c.w * 100 + c.h) +
                       static_cast<std::uint64_t>(density * 10));
        labeling::MaintainedLabeling live(fault::bernoulli(m, density, rng),
                                          def);
        const std::string base =
            std::to_string(c.w) + "x" + std::to_string(c.h) +
            (c.topology == mesh::Topology::Torus ? "t" : "m") +
            (def == labeling::SafeUnsafeDef::Def2a ? " 2a " : " 2b ") +
            std::to_string(density);
        std::vector<std::pair<Coord, Coord>> pairs;
        const auto random_node = [&] {
          return m.coord(static_cast<std::size_t>(
              rng.uniform_int(0, m.node_count() - 1)));
        };
        for (int i = 0; i < 24; ++i) pairs.emplace_back(random_node(), random_node());

        std::shared_ptr<const Snapshot> prev = Snapshot::build(0, live);
        // An early epoch, checked again after the labeling has moved on.
        std::shared_ptr<const Snapshot> early;
        std::uint64_t early_digest = 0;
        for (std::uint64_t epoch = 1; epoch <= 12; ++epoch) {
          // Warm the predecessor's cache so carry-over is exercised.
          for (const auto& [a, b] : pairs) static_cast<void>(prev->route(a, b));
          grid::PageSet dirty(tiles.page_count());
          std::uint64_t padded = 0;
          const int events = 1 + static_cast<int>(epoch % 3);
          for (int e = 0; e < events; ++e) {
            const Coord node = random_node();
            const labeling::EventDelta d =
                live.set_fault_state(node, !live.faults().contains(node));
            for (const Coord cell : d.dirty_cells) {
              dirty.insert(tiles.page_of(cell));
              padded |= tiles.padded_bits(cell);
            }
          }
          const auto next = Snapshot::next(*prev, epoch, live, dirty, padded);
          const auto fresh = Snapshot::build(epoch, live);
          const std::string context = base + " epoch " + std::to_string(epoch);
          expect_same_answers(*next, *fresh, pairs, context);
          if (HasFatalFailure()) return;
          ASSERT_EQ(next->faults(), live.faults()) << context;
          ASSERT_EQ(next->safety(), live.safety()) << context;
          ASSERT_EQ(next->activation(), live.activation()) << context;
          if (epoch == 3) {
            early = next;
            early_digest = fresh->label_digest();
          }
          prev = next;
        }
        // Nothing materialized on `early` before now; its records and pages
        // must still be the ones of its own epoch.
        ASSERT_EQ(early->label_digest(), early_digest) << base;
      }
    }
  }
}

TEST(SnapshotLazyTest, RawConstructorAnswersAsABuild) {
  const Mesh2D m(33, 21);
  stats::Rng rng(5);
  const labeling::MaintainedLabeling live(fault::bernoulli(m, 0.15, rng));
  const auto built = Snapshot::build(4, live);
  const labeling::PipelineResult res = labeling::run_pipeline(
      live.faults(), {.engine = labeling::Engine::Reference});
  const Snapshot raw(4, live.faults(), res.safety, res.activation, res.blocks,
                     res.regions, routing::Hand::Right);
  std::vector<std::pair<Coord, Coord>> pairs;
  for (int i = 0; i < 16; ++i) {
    pairs.emplace_back(Coord{i % 33, i % 21}, Coord{(i * 7) % 33, (i * 5) % 21});
  }
  expect_same_answers(raw, *built, pairs, "raw");
}

// Readers make the first calls to the lazy accessors, on one snapshot and
// on whatever snapshot is current while the writer publishes. Every reader
// of a snapshot must get the same materialized object.
TEST(SnapshotLazyTest, ConcurrentFirstCallsSeeOneMaterialization) {
  const Mesh2D m(48, 48);
  stats::Rng rng(9);
  IngestEngine engine(fault::bernoulli(m, 0.08, rng));
  const std::shared_ptr<const Snapshot> shared = engine.snapshot();

  struct Seen {
    std::shared_ptr<const Snapshot> snap;
    std::vector<const void*> views;
    std::uint64_t digest = 0;
  };
  const auto observe = [](std::shared_ptr<const Snapshot> s) {
    Seen seen{std::move(s), {}, 0};
    const Snapshot& v = *seen.snap;
    seen.views = {&v.faults(), &v.blocked(),  &v.safety(),
                  &v.activation(), &v.blocks(), &v.regions()};
    seen.digest = v.label_digest();
    return seen;
  };
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kMaxSeen = 256;
  std::vector<Seen> first(kReaders);
  std::vector<std::vector<Seen>> seen(kReaders);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }
      first[r] = observe(shared);
      do {
        Seen s = observe(engine.snapshot());
        if (seen[r].size() < kMaxSeen) seen[r].push_back(std::move(s));
      } while (!stop.load());
    });
  }
  for (int i = 0; i < 120; ++i) {
    const Coord node{(i * 13) % 48, (i * 29) % 48};
    const FaultEvent events[] = {
        {engine.labeling().faults().contains(node) ? EventKind::Repair
                                                   : EventKind::Fault,
         node}};
    static_cast<void>(engine.apply(events));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  for (std::size_t r = 1; r < kReaders; ++r) {
    EXPECT_EQ(first[r].views, first[0].views);
    EXPECT_EQ(first[r].digest, first[0].digest);
  }
  std::map<const Snapshot*, const Seen*> by_snapshot;
  for (const auto& per_reader : seen) {
    for (const Seen& s : per_reader) {
      const auto [it, inserted] = by_snapshot.emplace(s.snap.get(), &s);
      if (!inserted) {
        EXPECT_EQ(s.views, it->second->views);
        EXPECT_EQ(s.digest, it->second->digest);
      }
    }
  }
  EXPECT_GT(by_snapshot.size(), 0u);
  for (const auto& [snap, s] : by_snapshot) {
    const labeling::MaintainedLabeling reference(snap->faults());
    EXPECT_EQ(Snapshot::build(0, reference)->label_digest(), s->digest);
  }
}

}  // namespace
}  // namespace ocp::svc
