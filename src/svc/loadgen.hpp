// Deterministic closed-loop load generator for the serving runtime.
//
// One seeded master RNG forks independent streams — initial fault pattern,
// churn event stream, one stream per query thread — with the same
// `fork_trial_seeds` discipline as the netsim load sweeps, so every run is
// reproducible from (config, seed). A writer thread replays the event
// stream through `Service::submit` with closed-loop backpressure (an
// `Overloaded` verdict retries rather than drops, so the final fault set —
// and therefore the final published labeling — is a pure function of the
// stream, independent of timing and of how many query threads race it).
// Query threads hammer the query front with a seeded mix of status /
// region / route / batch queries, recording per-query latency histograms
// and checking that the epochs they observe never decrease, per shard (an
// answer's epoch is its owning shard's; different shards' epochs are
// incomparable by design).
//
// The fleet shape comes from `config.service`: 1x1, the default, is the
// single writer. Timing-derived outputs (qps, percentiles, epochs) vary run
// to run; the replay-identity outputs (`stream_digest`, `final_digest`,
// `final_faults`) are bit-identical for any query-thread count AND any
// shape — the composite digest at quiesce equals the single writer's — the
// property the stress suite and the sharded tests pin down.
#pragma once

#include <cstdint>

#include "svc/backoff.hpp"
#include "svc/service.hpp"

namespace ocp::svc {

struct SvcLoadConfig {
  std::int32_t mesh_side = 32;
  mesh::Topology topology = mesh::Topology::Mesh;
  /// Initial fault count labeled before serving starts (epoch 0).
  std::size_t initial_faults = 10;
  /// Churn events replayed while queries run.
  std::size_t events = 128;
  /// Fraction of events that repair a currently-faulty node (when one
  /// exists); the rest inject faults (possibly duplicates).
  double repair_fraction = 0.45;
  std::size_t query_threads = 2;
  std::size_t queries_per_thread = 2000;
  /// Every Nth query is a batched query of `batch_size` items.
  std::size_t batch_every = 16;
  std::size_t batch_size = 8;
  std::uint64_t seed = 1;
  /// Writer-side reaction to `Overloaded` verdicts: seeded capped
  /// exponential backoff instead of a yield spin. The default unbounded
  /// retry budget preserves replay identity (no event is ever shed); a
  /// finite budget turns sustained overload into typed shedding, counted in
  /// `SvcLoadResult::submits_shed`.
  BackoffPolicy submit_backoff;
  ServiceConfig service;
};

struct SvcLoadResult {
  // -- timing-derived (vary run to run) -----------------------------------
  std::size_t queries_ok = 0;
  std::size_t queries_rejected = 0;
  /// Individual answers delivered inside batched queries.
  std::size_t batch_items = 0;
  /// Epochs published, summed over shards; depends on how events batched.
  std::uint64_t epochs_published = 0;
  /// Final serving epoch of every shard, in shard order.
  std::vector<std::uint64_t> shard_epochs;
  std::uint64_t submit_retries = 0;
  /// Total backoff the writer slept across all retries (microseconds), and
  /// events abandoned after exhausting a finite retry budget (always 0 with
  /// the default unbounded budget — the replay-identity invariant depends
  /// on it).
  std::uint64_t submit_backoff_us = 0;
  std::uint64_t submits_shed = 0;
  double wall_seconds = 0.0;
  /// Individual answers (single queries + batch items) per second.
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Latency samples beyond the histogram range (tail truncation marker).
  std::uint64_t latency_overflow = 0;
  /// Halo exchange volume at quiesce (gossip overhead; 0 at 1x1).
  std::uint64_t halo_deltas = 0;
  std::uint64_t halo_events = 0;

  // -- replay identity (bit-identical for any thread count and shape) -----
  /// FNV-1a over the generated event stream.
  std::uint64_t stream_digest = 0;
  /// The composite digest of the quiesced fleet — at 1x1 the single
  /// snapshot's `label_digest()`.
  std::uint64_t final_digest = 0;
  std::size_t final_faults = 0;

  // -- serving invariants --------------------------------------------------
  /// Every query thread observed per-shard non-decreasing epochs.
  bool epochs_monotone = true;
};

/// Runs the closed-loop workload to completion (all events applied and
/// gossiped to fixpoint, all queries answered) against a `Service` of
/// `config.service`'s shape and reports throughput, tail latency and the
/// replay digests.
[[nodiscard]] SvcLoadResult run_svc_load(const SvcLoadConfig& config);

/// Canned profiles shared by the bench harness (`bench/svc_load`) and the
/// experiments table so both measure the same workloads.
///
/// Query-dominant steady state: light churn under a heavy query front (the
/// default SvcLoadConfig rates at `query_threads` threads).
[[nodiscard]] SvcLoadConfig query_heavy_profile(std::size_t query_threads);
/// Ingest-dominant: 8x the churn, a light query front — stresses epoch
/// turnover (incremental relabeling + copy-on-write publication).
[[nodiscard]] SvcLoadConfig ingest_heavy_profile(std::size_t query_threads);
/// Mixed-rate: heavy churn AND a full query front racing it — the regime
/// where route-cache carry-over and page sharing pay off together.
[[nodiscard]] SvcLoadConfig mixed_rate_profile(std::size_t query_threads);

/// The seeded churn stream the generator replays, exposed for tests that
/// drive `IngestEngine::apply` directly with deterministic batching.
[[nodiscard]] std::vector<FaultEvent> generate_event_stream(
    const mesh::Mesh2D& machine, const grid::CellSet& initial_faults,
    std::size_t events, double repair_fraction, std::uint64_t seed);

/// FNV-1a digest of an event stream.
[[nodiscard]] std::uint64_t event_stream_digest(
    const std::vector<FaultEvent>& events);

}  // namespace ocp::svc
