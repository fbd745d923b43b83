// Deterministic closed-loop workload driver for the allocation subsystem.
//
// One seeded master RNG forks independent streams — initial fault pattern,
// fault/repair churn, job sizes+lifetimes, the eviction-storm center —
// through `derive_alloc_workload`, which the allocation chaos schedules
// share. A single writer interleaves job submissions with fault batches
// applied through an `IngestFeed`: a private `IngestEngine` whose
// `on_publish` epoch hook feeds every turnover (snapshot + dirty cells)
// straight into the `AllocEngine`; reader threads hammer the RCU-published
// `AllocView` checking epoch/tick monotonicity. Because every allocation
// decision is made by the single writer from seeded streams, the
// replay-identity outputs (stream/job/placement digests, final
// utilization/fragmentation, storm recovery ticks) are bit-identical at any
// reader-thread count — the 1/2/8-thread acceptance criterion — while the
// timing-derived outputs (wall time, placement-decision latency
// percentiles) vary run to run.
//
// Mid-run the driver injects an eviction storm: a clustered block of
// faults applied as one batch, mass-evicting every job it hits. Recovery is
// measured in virtual ticks until no evicted job is still waiting in the
// queue (re-placed or shed), capped — a deterministic recovery metric the
// bench reports alongside its wall-clock twin.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/engine.hpp"
#include "svc/ingest.hpp"
#include "svc/loadgen.hpp"

namespace ocp::alloc {

struct AllocLoadConfig {
  std::int32_t mesh_side = 32;
  mesh::Topology topology = mesh::Topology::Mesh;
  /// Faults labeled before serving starts (epoch 0).
  std::size_t initial_faults = 8;
  /// Jobs submitted by the writer, ids 1..jobs in submission order.
  std::size_t jobs = 256;
  /// Fault/repair churn events interleaved with the submissions.
  std::size_t fault_events = 96;
  double repair_fraction = 0.45;
  /// One batch of `fault_batch` churn events is applied (and one tick run)
  /// every `fault_every` submissions.
  std::size_t fault_every = 4;
  std::size_t fault_batch = 2;
  /// Job widths/heights are drawn 1..max_job_side, quadratically skewed
  /// toward small (u^2 scaling), lifetimes uniform in [min, max] ticks.
  std::int32_t max_job_side = 6;
  std::uint32_t min_lifetime = 4;
  std::uint32_t max_lifetime = 24;
  /// Side of the clustered fault block injected as one batch at the
  /// midpoint submission; 0 disables the storm.
  std::int32_t storm_side = 5;
  /// Ticks allowed for storm recovery before the metric is capped.
  std::uint64_t storm_recovery_cap = 512;
  std::size_t reader_threads = 2;
  std::size_t reads_per_thread = 2000;
  std::uint64_t seed = 1;
  StrategyKind strategy = StrategyKind::FirstFit;
  std::size_t queue_capacity = 64;
  std::uint32_t max_retries = 3;
};

struct AllocLoadResult {
  // -- timing-derived (vary run to run) -----------------------------------
  double wall_seconds = 0.0;
  /// Placement decisions (submits + drains + re-places) per second.
  double placements_per_second = 0.0;
  /// Submit-call latency: the cost of one placement decision, microseconds.
  double p50_place_us = 0.0;
  double p99_place_us = 0.0;
  std::uint64_t place_overflow = 0;
  double storm_recovery_seconds = 0.0;
  std::size_t reader_views = 0;

  // -- replay identity (bit-identical for any reader-thread count) --------
  std::uint64_t stream_digest = 0;
  std::uint64_t job_digest = 0;
  std::uint64_t placement_digest = 0;
  /// `Snapshot::label_digest()` of the final serving snapshot.
  std::uint64_t final_label_digest = 0;
  std::uint64_t epochs_published = 0;
  AllocStats stats;
  std::size_t live_final = 0;
  std::size_t pending_final = 0;
  /// Utilization/fragmentation at quiesce (every finite lifetime expired, so
  /// utilization here is usually ~0), the peak utilization observed after
  /// any submission or tick, and the fragmentation at the step that set the
  /// peak — the numbers the committed allocation table reports. Pure
  /// functions of engine state, so replay-identical. Quiesce fragmentation
  /// is strategy-independent (only the final fault pattern remains);
  /// `fragmentation_at_peak` is where strategies differ.
  double utilization = 0.0;
  double peak_utilization = 0.0;
  double fragmentation = 0.0;
  double fragmentation_at_peak = 0.0;
  /// Jobs evicted by the storm batch and the deterministic tick count until
  /// none of them waited in the queue any longer (capped).
  std::size_t storm_evicted = 0;
  std::uint64_t storm_recovery_ticks = 0;
  bool storm_recovered = true;

  // -- invariants ----------------------------------------------------------
  /// Every reader observed non-decreasing (epoch, tick) view pairs.
  bool views_monotone = true;
  /// The allocation oracle passed at quiesce (all checks).
  bool oracle_ok = true;
};

/// Runs the closed-loop workload to completion and reports throughput,
/// placement latency and the replay digests.
[[nodiscard]] AllocLoadResult run_alloc_load(const AllocLoadConfig& config);

/// The seeded job stream the driver replays, exposed for tests and the
/// chaos harness: ids `first_id..first_id+count-1` in order.
[[nodiscard]] std::vector<JobRequest> generate_job_stream(
    const mesh::Mesh2D& machine, std::size_t count, std::int32_t max_side,
    std::uint32_t min_lifetime, std::uint32_t max_lifetime, std::uint64_t seed,
    std::uint64_t first_id = 1);

/// FNV-1a digest of a job stream.
[[nodiscard]] std::uint64_t job_stream_digest(
    const std::vector<JobRequest>& jobs);

/// The clustered fault block of an eviction storm: every cell of the
/// side x side square whose top-left is `center` shifted to fit the
/// machine, as fault events in row-major order.
[[nodiscard]] std::vector<svc::FaultEvent> storm_events(
    const mesh::Mesh2D& machine, mesh::Coord center, std::int32_t side);

/// The svc workload plus the allocation drivers' job stream and eviction
/// storm block.
struct AllocWorkload {
  svc::Workload churn;
  std::vector<JobRequest> jobs;
  std::vector<svc::FaultEvent> storm;
};

/// `svc::derive_workload`, then the job seed and the storm RNG forked from
/// `master` in that order; the storm centre is one draw per axis.
[[nodiscard]] AllocWorkload derive_alloc_workload(
    stats::Rng& master, const mesh::Mesh2D& machine,
    std::size_t initial_faults, std::size_t events, double repair_fraction,
    std::size_t jobs, std::int32_t max_job_side, std::uint32_t min_lifetime,
    std::uint32_t max_lifetime, std::int32_t storm_side);

/// A private ingest engine wired to an alloc engine: its `on_publish` hook
/// feeds every epoch turnover (snapshot + dirty cells) into
/// `AllocEngine::observe_epoch`. Whoever calls `ingest().apply` is the
/// alloc engine's single writer too.
class IngestFeed {
 public:
  IngestFeed(const grid::CellSet& initial, svc::IngestConfig ingest_config,
             const AllocConfig& alloc_config);
  IngestFeed(const IngestFeed&) = delete;
  IngestFeed& operator=(const IngestFeed&) = delete;

  [[nodiscard]] svc::IngestEngine& ingest() noexcept { return ingest_; }
  [[nodiscard]] AllocEngine& alloc() noexcept { return *alloc_; }

 private:
  // Declared first: the hook reads it while `ingest_` is constructed.
  std::unique_ptr<AllocEngine> alloc_;
  svc::IngestEngine ingest_;
};

}  // namespace ocp::alloc
