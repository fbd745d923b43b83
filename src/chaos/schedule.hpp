// Seeded schedule exploration for the serving runtime, with ddmin repros.
//
// A schedule is a short program of driver ops — submit bursts, pause /
// resume, flush barriers, query bursts, publish-retry nudges, shard kills
// and restarts — executed against a live `svc::Service` of any shape while
// a chaos plan (one per shard) injects faults underneath: denied
// admissions, duplicated / deferred / stalled batches, poisoned oracle
// verdicts, mid-batch kills. A kill op targets one shard at its *next*
// publish while the rest of the fleet keeps draining the halo deltas the
// victim just emitted — at 1x1, simply the writer dying mid-batch. The
// explorer generates schedules from a seed, runs them, and checks the
// degraded-mode guarantees as invariants:
//
//   * per-shard epochs observed by queries never decrease;
//   * queries always answer from the owner's last good epoch (typed
//     verdicts only, never a hang — and never a violation while
//     publications are withheld or a sibling shard is down);
//   * a flush barrier of an un-crashed fleet leaves every queue empty;
//   * after quiescing (plans disarmed, shards restarted, retries drained)
//     the composite digest is bit-identical to a clean single-writer
//     labeling of the net fault set, and the staleness watermark reads
//     zero.
//
// When a schedule fails, `shrink_schedule` reduces it with the same
// ddmin-style discipline as check::shrink_faults (drop op chunks while the
// violation reproduces), and `to_string`/`parse_schedule` round-trip the
// survivor as a one-line repro (e.g. "S8 P Q16 R F D4@1 K@1"), replayable
// with `bench/chaos_soak --replay`.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/plan.hpp"
#include "svc/loadgen.hpp"

namespace ocp::chaos {

/// One driver op of a schedule.
enum class OpKind : std::uint8_t {
  /// Submit the next `count` events of the seeded stream (retrying typed
  /// rejections with backoff, so no event is ever lost to the schedule).
  Submit = 0,
  Pause = 1,
  Resume = 2,
  /// Barrier: the fleet quiescent, or some shard's writer crashed.
  Flush = 3,
  /// `count` queries (status/region/route mix) checked for per-shard
  /// monotone epochs.
  Query = 4,
  /// Nudge the empty-batch publication retry path.
  RetryPublish = 5,
  /// Restart shard `shard` if a chaos kill took its writer down (no-op
  /// else).
  Restart = 6,
  /// Arm a kill on shard `shard` at its *next* publish stamp, then submit
  /// `count` events — the burst is what drives the victim to publish (and
  /// die) while its neighbors drain the halo deltas it emitted.
  Kill = 7,
};

struct Op {
  OpKind kind = OpKind::Query;
  /// Event count (Submit/Kill) or query count (Query); ignored otherwise.
  std::uint16_t count = 0;
  /// Target shard (Kill/Restart), taken modulo the fleet size.
  std::uint8_t shard = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// Workload + chaos parameters for one schedule run. The schedule itself
/// (the op list) is passed separately so ddmin can vary it while the
/// config stays fixed.
struct ScheduleConfig {
  std::int32_t mesh_side = 16;
  mesh::Topology topology = mesh::Topology::Mesh;
  std::size_t initial_faults = 6;
  /// Length of the seeded event stream the Submit ops consume. Ops past
  /// the end submit nothing; leftover events are submitted at quiesce so
  /// the expected final fault set never depends on the schedule shape.
  std::size_t events = 96;
  double repair_fraction = 0.45;
  std::uint64_t seed = 1;
  /// Chaos injected while the schedule runs (armed only during the ops;
  /// the quiesce phase disarms it). Every shard gets its own plan of this
  /// spec, seeded `plan.seed + shard`; `service`'s chaos fields are
  /// overwritten.
  PlanSpec plan;
  /// Service shape; queue_capacity is clamped up to hold the whole stream
  /// so only chaos denials — never genuine overload — reject a Submit op.
  svc::ServiceConfig service;
};

struct ScheduleResult {
  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;
  std::uint64_t final_digest = 0;
  std::uint64_t expected_digest = 0;
  std::size_t final_faults = 0;
  /// Final serving epochs summed over shards (the epoch itself at 1x1).
  std::uint64_t final_epoch = 0;
  std::uint64_t stale_epochs_pending = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_rejected = 0;
  std::uint64_t submit_retries = 0;
  std::uint64_t restarts = 0;
  std::uint64_t halo_deltas = 0;
  std::uint64_t halo_events = 0;
  /// Injections summed over the per-shard plans.
  PlanStats injected;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Seeded schedule generation: `ops` driver ops with a weighted kind mix
/// (submit/query heavy, occasional pause/resume/flush/nudge, kill and
/// restart ops aimed across a `shards`-sized fleet).
[[nodiscard]] std::vector<Op> generate_schedule(std::uint64_t seed,
                                                std::size_t ops,
                                                std::uint32_t shards = 1,
                                                std::size_t max_burst = 16);

/// Executes one schedule against a fresh Service and checks every
/// invariant, quiescing (disarm, restart, drain to fixpoint, retry) before
/// the final digest comparison.
[[nodiscard]] ScheduleResult run_schedule(const ScheduleConfig& config,
                                          const std::vector<Op>& schedule);

/// Failure predicate ddmin minimizes against: true = still failing. The
/// default (empty) oracle is `!run_schedule(config, ops).ok()`; tests
/// inject synthetic oracles to pin the minimization itself.
using ScheduleOracle =
    std::function<bool(const ScheduleConfig&, const std::vector<Op>&)>;

/// ddmin over the op list: returns the smallest subsequence of `schedule`
/// whose run still violates an invariant (or `schedule` itself if the
/// failure vanished). `runs` counts the executions spent shrinking.
[[nodiscard]] std::vector<Op> shrink_schedule(const ScheduleConfig& config,
                                              std::vector<Op> schedule,
                                              std::size_t* runs = nullptr,
                                              ScheduleOracle oracle = {});

/// One-line schedule rendering: "S8 P R F Q16 Y K D4@1" (S=submit,
/// Q=query, D=kill with counts; P/R/F/Y/K = pause/resume/flush/
/// retry-publish/restart; a nonzero target shard follows as "@shard").
[[nodiscard]] std::string to_string(const std::vector<Op>& schedule);

/// Inverse of `to_string`; nullopt on malformed input.
[[nodiscard]] std::optional<std::vector<Op>> parse_schedule(
    std::string_view text);

}  // namespace ocp::chaos
