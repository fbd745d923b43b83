// Chaos schedules for the allocation subsystem: kill the ingest writer
// mid-eviction-storm, replay, and prove the placement history converges.
//
// The driver owns a private `svc::IngestEngine` (epoch hook wired into an
// `AllocEngine`) and applies churn ONE EVENT PER BATCH. That granularity is
// the convergence argument: a chaos kill fires before the event mutates the
// labeling, `apply` reports the crash plus the unpublished backlog, and the
// driver synchronously restarts and replays (backlog first, interrupted
// event after) until the event lands. Each armed stamp kills exactly once,
// so replay terminates — and because the crash discarded nothing published
// and the epoch counter did not advance, the sequence of (epoch, dirty
// cells) turnovers the alloc engine observes is bit-identical to a run with
// no kills at all. `run_alloc_schedule` makes that the invariant: it
// executes the schedule twice — chaos armed, then a shadow run with the
// Kill ops stripped — and any difference in placement digest, label digest
// or final live set is a violation, as is an allocation-oracle failure at
// quiesce.
//
// Ops render as one-line repros ("J8 F4 W K F9 T4"): J=submit jobs,
// F=fault events, W=eviction storm (whirlwind), T=ticks, R=release,
// K=arm kill at the next publish stamp.
//
// Test-only: the allocation chaos suite and the driver replay digests run
// it; the library does not ship it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/engine.hpp"
#include "chaos/plan.hpp"

namespace ocp::chaos {

enum class AllocOpKind : std::uint8_t {
  /// Submit the next `count` jobs of the seeded job stream.
  SubmitJobs = 0,
  /// Apply the next `count` churn events, one per batch.
  Faults = 1,
  /// Apply the seeded clustered storm block, one event per batch (repeats
  /// coalesce away — the block stays faulty once injected).
  Storm = 2,
  /// Advance the alloc engine's virtual clock `count` ticks.
  Tick = 3,
  /// Release the `count` lowest live job ids.
  Release = 4,
  /// Arm a mid-batch kill at the ingest engine's next publish stamp.
  Kill = 5,
};

struct AllocOp {
  AllocOpKind kind = AllocOpKind::Tick;
  std::uint16_t count = 0;

  friend bool operator==(const AllocOp&, const AllocOp&) = default;
};

struct AllocScheduleConfig {
  std::int32_t mesh_side = 16;
  mesh::Topology topology = mesh::Topology::Mesh;
  std::size_t initial_faults = 6;
  /// Seeded churn stream length; Faults ops past the end apply nothing.
  std::size_t events = 64;
  double repair_fraction = 0.45;
  /// Seeded job stream length; SubmitJobs ops past the end submit nothing.
  std::size_t jobs = 64;
  std::int32_t max_job_side = 5;
  std::uint32_t min_lifetime = 4;
  std::uint32_t max_lifetime = 16;
  std::int32_t storm_side = 4;
  std::uint64_t seed = 1;
  alloc::StrategyKind strategy = alloc::StrategyKind::FirstFit;
  std::size_t queue_capacity = 32;
  std::uint32_t max_retries = 3;
};

struct AllocScheduleResult {
  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;
  /// Chaotic run vs the kill-stripped shadow run.
  std::uint64_t placement_digest = 0;
  std::uint64_t expected_placement_digest = 0;
  std::uint64_t final_label_digest = 0;
  std::uint64_t expected_label_digest = 0;
  /// Mid-batch kills the driver crash-recovered from.
  std::uint64_t kills = 0;
  std::uint64_t epochs_published = 0;
  std::size_t live_final = 0;
  std::uint64_t storm_evictions = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Seeded schedule generation: submit/fault/tick-heavy mix with a
/// guaranteed Storm -> Kill -> Faults cluster at the midpoint (the
/// kill-during-eviction-storm scenario every generated schedule must
/// cover).
[[nodiscard]] std::vector<AllocOp> generate_alloc_schedule(
    std::uint64_t seed, std::size_t ops, std::size_t max_burst = 12);

/// Executes the schedule chaos-armed, then as a kill-stripped shadow, and
/// reports any divergence plus allocation-oracle violations at quiesce.
[[nodiscard]] AllocScheduleResult run_alloc_schedule(
    const AllocScheduleConfig& config, const std::vector<AllocOp>& schedule);

/// One-line repro rendering ("J8 F4 W K F9 T4").
[[nodiscard]] std::string to_string(const std::vector<AllocOp>& schedule);

}  // namespace ocp::chaos
