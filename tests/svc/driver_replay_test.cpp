// Golden replay outputs of the five seeded drivers.
//
// Every driver forks its workload from one master seed: initial faults, the
// churn stream and, for the allocation drivers, the job stream and the storm
// centre. The fork order is part of the replay contract, so these digests
// are pinned as constants: a change that reorders a fork, redraws a stream
// or alters what the drivers submit fails here even when every driver still
// agrees with itself. Each value depends only on the seed, never on timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "alloc/loadgen.hpp"
#include "chaos/harness.hpp"
#include "chaos/schedule.hpp"
#include "support/alloc_schedule.hpp"
#include "svc/loadgen.hpp"

namespace ocp {
namespace {

constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {{1, 1}, {2, 2}};

/// Every injection point armed and capped, two scheduled kills.
chaos::PlanSpec storm_plan(std::uint64_t seed) {
  return {.seed = seed,
          .deny_submit = 0.1,
          .max_denies = 16,
          .duplicate_batch = 0.2,
          .max_duplicates = 6,
          .defer_batch = 0.2,
          .max_defers = 6,
          .stall_batch = 0.2,
          .stall_max_us = 150,
          .max_stalls = 6,
          .poison_publish = 0.2,
          .max_poisons = 6,
          .kill_at_stamps = {2, 5}};
}

TEST(DriverReplayTest, SvcLoadDigestsArePinned) {
  svc::SvcLoadConfig config;
  config.mesh_side = 16;
  config.initial_faults = 6;
  config.events = 64;
  config.query_threads = 2;
  config.queries_per_thread = 200;
  config.seed = 11;
  for (const auto& [rows, cols] : kShapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    config.service.shard_rows = rows;
    config.service.shard_cols = cols;
    const svc::SvcLoadResult result = svc::run_svc_load(config);
    EXPECT_EQ(result.stream_digest, 0x6aba09ee55a8f1fdu);
    EXPECT_EQ(result.final_digest, 0x5509fe02d9508b03u);
  }
}

TEST(DriverReplayTest, ChaosLoadDigestsArePinned) {
  chaos::ChaosLoadConfig config;
  config.seed = 1;
  config.service.max_batch = 8;
  config.plan = storm_plan(config.seed);
  const chaos::ChaosLoadResult result = chaos::run_chaos_load(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.clean_digest, 0x238a02478acf42eau);
  EXPECT_EQ(result.chaos_digest, 0x238a02478acf42eau);
}

TEST(DriverReplayTest, ScheduleReplayIsPinned) {
  const auto schedule = chaos::parse_schedule("S8 P Q16 R F Y K");
  ASSERT_TRUE(schedule.has_value());
  constexpr std::uint64_t kDigests[] = {0xd8b9a7b721b37effu,
                                         0x4994561244ccf0d5u,
                                         0xd47c17d6a260b1e0u};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ScheduleConfig config;
    config.seed = seed;
    config.plan = storm_plan(seed);
    const chaos::ScheduleResult result = chaos::run_schedule(config, *schedule);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.final_digest, kDigests[seed - 1]);
    EXPECT_EQ(result.queries_ok, 16u);
  }
}

TEST(DriverReplayTest, AllocLoadDigestsArePinned) {
  alloc::AllocLoadConfig config;
  config.mesh_side = 16;
  config.jobs = 80;
  config.fault_events = 40;
  config.max_job_side = 5;
  config.storm_side = 4;
  config.reads_per_thread = 200;
  config.seed = 7;
  const alloc::AllocLoadResult result = alloc::run_alloc_load(config);
  EXPECT_EQ(result.stream_digest, 0x5ed76def7fd25828u);
  EXPECT_EQ(result.job_digest, 0xc36ff5d06e3c061du);
  EXPECT_EQ(result.placement_digest, 0x27ce4b5466ae8a76u);
  EXPECT_EQ(result.final_label_digest, 0x8a64c1b111381e1au);
}

TEST(DriverReplayTest, AllocScheduleDigestsArePinned) {
  chaos::AllocScheduleConfig config;
  config.seed = 5;
  const chaos::AllocScheduleResult result = chaos::run_alloc_schedule(
      config, chaos::generate_alloc_schedule(config.seed, 24));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.placement_digest, 0x9a84932e8c773c3au);
  EXPECT_EQ(result.final_label_digest, 0x5e69125e1997dc04u);
}

}  // namespace
}  // namespace ocp
