// Serving under churn: concurrent query threads racing live ingest loops
// must only ever observe oracle-valid snapshots with per-shard
// monotonically non-decreasing epochs, and the workload's replay identity
// (stream digest, final label digest, final fault set) must be
// bit-identical for any query-thread count. Every test runs on the single
// writer and on a 2x2 fleet. Run under OCP_SANITIZE=thread this doubles as
// the subsystem's data-race hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "fault/generators.hpp"
#include "svc/loadgen.hpp"

namespace ocp::svc {
namespace {

using mesh::Mesh2D;

constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {{1, 1}, {2, 2}};

TEST(SvcStressTest, ConcurrentReadersObserveOnlyValidMonotoneSnapshots) {
  for (const auto& [rows, cols] : kShapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    const Mesh2D m(16, 16);
    stats::Rng rng(41);
    const auto initial = fault::uniform_random(m, 6, rng);
    const auto stream = generate_event_stream(m, initial, 60, 0.4, 43);

    Service service(initial,
                    {.shard_rows = rows, .shard_cols = cols, .max_batch = 4});
    const std::uint32_t shards = service.shard_grid().count();
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::atomic<int> epoch_regressions{0};

    constexpr int kReaders = 4;
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&service, &done, &violations, &epoch_regressions,
                            shards] {
        std::vector<std::uint64_t> last_epoch(shards, 0);
        std::vector<std::uint64_t> checked_epoch(shards, ~0ULL);
        while (!done.load(std::memory_order_acquire)) {
          for (std::uint32_t s = 0; s < shards; ++s) {
            const auto snap = service.snapshot(s);
            if (snap->epoch() < last_epoch[s]) ++epoch_regressions;
            last_epoch[s] = snap->epoch();
            // Run the full 16-check oracle once per freshly observed epoch
            // (it is too expensive to run on every spin).
            if (snap->epoch() != checked_epoch[s]) {
              checked_epoch[s] = snap->epoch();
              if (!snap->validate(labeling::SafeUnsafeDef::Def2b).ok()) {
                ++violations;
              }
            }
          }
        }
      });
    }

    for (const FaultEvent& event : stream) {
      while (service.submit(event) != SubmitStatus::Accepted) {
        std::this_thread::yield();
      }
    }
    service.flush();
    done.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(epoch_regressions.load(), 0);
    EXPECT_GE(service.stats().ingest.epochs_published, 1u);
  }
}

TEST(SvcStressTest, ReplayIdenticalAtOneTwoAndEightQueryThreads) {
  SvcLoadConfig config;
  config.mesh_side = 16;
  config.initial_faults = 6;
  config.events = 48;
  config.queries_per_thread = 300;
  config.seed = 7;

  for (const auto& [rows, cols] : kShapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    config.service.shard_rows = rows;
    config.service.shard_cols = cols;
    config.query_threads = 1;
    const SvcLoadResult one = run_svc_load(config);
    config.query_threads = 2;
    const SvcLoadResult two = run_svc_load(config);
    config.query_threads = 8;
    const SvcLoadResult eight = run_svc_load(config);

    // The event stream and the final labeling are pure functions of the seed,
    // independent of how many query threads race the writer.
    EXPECT_EQ(one.stream_digest, two.stream_digest);
    EXPECT_EQ(one.stream_digest, eight.stream_digest);
    EXPECT_EQ(one.final_digest, two.final_digest);
    EXPECT_EQ(one.final_digest, eight.final_digest);
    EXPECT_EQ(one.final_faults, two.final_faults);
    EXPECT_EQ(one.final_faults, eight.final_faults);

    for (const SvcLoadResult* r : {&one, &two, &eight}) {
      EXPECT_TRUE(r->epochs_monotone);
      EXPECT_EQ(r->queries_rejected, 0u);  // uncapped query front
      EXPECT_GT(r->queries_ok, 0u);
    }
    EXPECT_EQ(eight.queries_ok, 8u * config.queries_per_thread);
  }
}

TEST(SvcStressTest, LoadRunQuiescesToStreamFinalState) {
  SvcLoadConfig config;
  config.mesh_side = 16;
  config.initial_faults = 5;
  config.events = 64;
  config.query_threads = 2;
  config.queries_per_thread = 200;
  config.seed = 3;
  for (const auto& [rows, cols] : kShapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    config.service.shard_rows = rows;
    config.service.shard_cols = cols;
    const SvcLoadResult result = run_svc_load(config);

    // Recompute the expected final fault set by replaying the same seeded
    // stream against a shadow set.
    const Mesh2D m(config.mesh_side, config.mesh_side);
    stats::Rng master(config.seed);
    stats::Rng fault_rng(master.fork_seed());
    const std::uint64_t stream_seed = master.fork_seed();
    const auto initial =
        fault::uniform_random(m, config.initial_faults, fault_rng);
    const auto stream = generate_event_stream(
        m, initial, config.events, config.repair_fraction, stream_seed);
    EXPECT_EQ(result.stream_digest, event_stream_digest(stream));

    grid::CellSet shadow = initial;
    for (const FaultEvent& e : stream) {
      if (e.kind == EventKind::Fault) {
        shadow.insert(e.node);
      } else {
        shadow.erase(e.node);
      }
    }
    EXPECT_EQ(result.final_faults, shadow.size());
    EXPECT_EQ(result.final_digest,
              Snapshot::build(0, labeling::MaintainedLabeling(shadow))
                  ->label_digest());
  }
}

}  // namespace
}  // namespace ocp::svc
