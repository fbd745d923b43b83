// Deterministic closed-loop load generator for the serving runtime, and the
// client pieces every seeded driver shares.
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
//
// The same workload derivation, submit-with-backoff loop, query mix,
// per-shard epoch watch and post-chaos quiesce serve the chaos harness, the
// schedule explorer and (with the job stream and storm added by
// `alloc::derive_alloc_workload`) the two allocation drivers.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
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

// -- client pieces shared by the seeded drivers -----------------------------

/// A driver's seeded fault workload: the initial fault pattern and the
/// churn stream replayed over it.
struct Workload {
  grid::CellSet initial;
  std::vector<FaultEvent> stream;
};

/// Forks the workload from `master` in replay-contract order — the fault
/// RNG, then the stream seed — and leaves `master` where the caller's next
/// fork (query or reader seeds, the job seed) draws.
[[nodiscard]] Workload derive_workload(stats::Rng& master,
                                       const mesh::Mesh2D& machine,
                                       std::size_t initial_faults,
                                       std::size_t events,
                                       double repair_fraction);

/// Retries and backoff slept by `submit_with_backoff` calls, accumulated.
struct SubmitTally {
  std::uint64_t retries = 0;
  std::uint64_t backoff_us = 0;
};

/// Submits `event`, retrying `Overloaded` verdicts under `policy`'s seeded
/// backoff. Returns `Accepted`; `Closed` at once (a closed queue never
/// reopens); or `Overloaded` once a finite `policy.retry_budget` is spent.
SubmitStatus submit_with_backoff(Service& service, const FaultEvent& event,
                                 const BackoffPolicy& policy,
                                 SubmitTally& tally);

/// One draw of the 50/30/20 status/region/route query mix: `uniform()`
/// picks the kind, then the node, then (routes only) the destination.
[[nodiscard]] QueryItem draw_query(const mesh::Mesh2D& machine,
                                   stats::Rng& rng);

/// Verdict of one point query and the epoch it answered from: the epoch of
/// `service.shard_of(item.a)`, the owner of the node (a route's source).
struct PointAnswer {
  QueryStatus status = QueryStatus::Ok;
  std::uint64_t epoch = 0;
};

[[nodiscard]] PointAnswer ask(const Service& service, const QueryItem& item);

/// Per-shard high-water marks of the epochs one client observed. An
/// answer's epoch is its owning shard's and different shards' epochs are
/// incomparable, so monotonicity is a per-shard property.
class EpochWatch {
 public:
  explicit EpochWatch(std::uint32_t shards) : last_(shards, 0) {}

  /// Records `epoch` for `shard`; false when it went backwards (the mark
  /// then stays at `last(shard)`).
  bool observe(std::uint32_t shard, std::uint64_t epoch) {
    if (epoch < last_[shard]) return false;
    last_[shard] = epoch;
    return true;
  }
  [[nodiscard]] std::uint64_t last(std::uint32_t shard) const {
    return last_[shard];
  }

 private:
  std::vector<std::uint64_t> last_;
};

/// Restarts every shard whose writer a chaos kill took down; returns how
/// many came back.
std::uint64_t restart_crashed(Service& service);

/// Brings a fleet to rest once its chaos plans are disarmed: restart
/// crashed shards and flush until none is crashed (at most 8 rounds), then
/// retry withheld publications and flush. Returns the shards restarted.
std::uint64_t quiesce(Service& service);

}  // namespace ocp::svc
