// Schedule exploration: seeded generation, invariant-checked execution
// under chaos, ddmin shrinking to minimal repros, and the one-line
// repro round trip.
#include "chaos/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

namespace ocp::chaos {
namespace {

/// Schedules run on the single writer and on a 2x2 fleet.
constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {{1, 1}, {2, 2}};

TEST(ChaosScheduleTest, GenerationIsDeterministicInSeed) {
  const std::vector<Op> a = generate_schedule(42, 64);
  const std::vector<Op> b = generate_schedule(42, 64);
  EXPECT_EQ(a, b);
  const std::vector<Op> c = generate_schedule(43, 64);
  EXPECT_NE(a, c);
}

TEST(ChaosScheduleTest, ReproStringRoundTrips) {
  const std::vector<Op> schedule = generate_schedule(7, 48);
  const std::string repro = to_string(schedule);
  const auto parsed = parse_schedule(repro);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);

  // Hand-written repro with every op kind.
  const auto hand = parse_schedule("S8 P Q16 R F Y K S1");
  ASSERT_TRUE(hand.has_value());
  ASSERT_EQ(hand->size(), 8u);
  EXPECT_EQ((*hand)[0], (Op{OpKind::Submit, 8}));
  EXPECT_EQ((*hand)[2], (Op{OpKind::Query, 16}));
  EXPECT_EQ((*hand)[6], (Op{OpKind::Restart, 0}));

  EXPECT_FALSE(parse_schedule("S8 X").has_value());   // unknown op
  EXPECT_FALSE(parse_schedule("S P").has_value());    // missing count
  EXPECT_FALSE(parse_schedule("Q999999").has_value()) // count overflow
      << "uint16 overflow must be rejected";
}

TEST(ChaosScheduleTest, CleanScheduleUpholdsEveryInvariant) {
  for (const auto& [rows, cols] : kShapes) {
    ScheduleConfig config;
    config.seed = 3;
    config.service.shard_rows = rows;
    config.service.shard_cols = cols;
    const std::vector<Op> schedule = generate_schedule(
        3, 48, static_cast<std::uint32_t>(rows * cols));
    const ScheduleResult result = run_schedule(config, schedule);
    EXPECT_TRUE(result.ok()) << rows << "x" << cols << ": "
                             << to_string(schedule) << "\nfirst violation: "
                             << (result.violations.empty()
                                     ? ""
                                     : result.violations.front());
    EXPECT_EQ(result.final_digest, result.expected_digest);
    EXPECT_EQ(result.stale_epochs_pending, 0u);
  }
}

TEST(ChaosScheduleTest, ChaoticSchedulesConvergeAcrossSeeds) {
  for (const auto& [rows, cols] : kShapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ScheduleConfig config;
      config.seed = seed;
      config.service.shard_rows = rows;
      config.service.shard_cols = cols;
      config.plan = {.seed = seed,
                     .deny_submit = 0.1,
                     .max_denies = 12,
                     .duplicate_batch = 0.25,
                     .max_duplicates = 6,
                     .defer_batch = 0.25,
                     .max_defers = 6,
                     .stall_batch = 0.2,
                     .stall_max_us = 100,
                     .max_stalls = 5,
                     .poison_publish = 0.25,
                     .max_poisons = 6,
                     .kill_at_stamps = {2}};
      const std::vector<Op> schedule = generate_schedule(
          seed * 17, 56, static_cast<std::uint32_t>(rows * cols));
      const ScheduleResult result = run_schedule(config, schedule);
      EXPECT_TRUE(result.ok())
          << rows << "x" << cols << " seed " << seed << ": "
          << to_string(schedule) << "\nfirst violation: "
          << (result.violations.empty() ? "" : result.violations.front());
    }
  }
}

TEST(ChaosScheduleTest, ShrinkReturnsPassingScheduleUntouched) {
  ScheduleConfig config;
  std::vector<Op> schedule = generate_schedule(9, 24);
  std::size_t runs = 0;
  const std::vector<Op> shrunk = shrink_schedule(config, schedule, &runs);
  EXPECT_EQ(shrunk, schedule);  // nothing to shrink: the run passes
  EXPECT_EQ(runs, 1u);          // exactly the initial confirmation run
}

TEST(ChaosScheduleTest, DdminShrinksToTheMinimalFailingCore) {
  // Synthetic oracle: a schedule "fails" iff it contains at least one Pause
  // AND at least one Flush. The minimal failing subsequence is exactly one
  // of each; ddmin must find it without executing a single real service.
  const ScheduleOracle oracle = [](const ScheduleConfig&,
                                   const std::vector<Op>& ops) {
    const auto has = [&ops](OpKind kind) {
      return std::any_of(ops.begin(), ops.end(),
                         [kind](const Op& op) { return op.kind == kind; });
    };
    return has(OpKind::Pause) && has(OpKind::Flush);
  };

  std::vector<Op> schedule = generate_schedule(11, 64);
  schedule.push_back({OpKind::Pause, 0});   // guarantee the core exists
  schedule.push_back({OpKind::Flush, 0});
  ASSERT_TRUE(oracle({}, schedule));

  std::size_t runs = 0;
  const std::vector<Op> shrunk =
      shrink_schedule({}, schedule, &runs, oracle);
  ASSERT_EQ(shrunk.size(), 2u) << to_string(shrunk);
  EXPECT_TRUE(oracle({}, shrunk));
  EXPECT_GT(runs, 1u);
  // Exactly one of each survives (order follows the original schedule), and
  // the repro renders as a one-liner ready for chaos_soak --replay.
  const std::string repro = to_string(shrunk);
  EXPECT_TRUE(repro == "P F" || repro == "F P") << repro;
}

}  // namespace
}  // namespace ocp::chaos
