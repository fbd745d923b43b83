// Deterministic fault-injection plans for the serving runtime (src/svc).
//
// A `FaultPlan` is a seeded source of chaos decisions: given a spec of
// per-point probabilities (and hard kill schedules), it answers "should
// this submission be forced to Overloaded?", "what happens to this drained
// batch?", "is this publication poisoned?", "does the ingest thread die at
// this publish stamp?". Decisions are *counter-hashed*: the verdict for the
// i-th decision at a point is a pure function of (seed, point, i), so a
// plan replays identically however threads interleave around it — the
// property that lets a chaos run assert bit-identical final digests against
// an uninterrupted run over the same net fault set.
//
// Call sites hold a `ChaosConfig` — a plan pointer that is null by default.
// Every hook is a branch-on-null when chaos is disabled (the null-object
// discipline of obs::TraceConfig), so the serving hot paths pay nothing
// when no plan is installed; the committed BENCH_svc.json band is recorded
// with the hooks compiled in and disabled.
//
// The plan deliberately knows nothing about svc types: it deals in
// verdicts and counters only, so src/svc can depend on it without a cycle
// (the schedule explorer and load harness, which do need svc, live in
// chaos/schedule and chaos/harness).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ocp::chaos {

/// What a plan can inject; used to derive independent decision streams.
enum class Point : std::uint8_t {
  /// EventQueue::push — force a typed `Overloaded` rejection.
  SubmitDeny = 0,
  /// Ingest loop, per drained batch — append a duplicate of the batch.
  BatchDuplicate = 1,
  /// Ingest loop, per drained batch — hold the batch and prepend it to the
  /// next drain (a delayed batch; FIFO order is preserved).
  BatchDefer = 2,
  /// Ingest loop, per drained batch — stall mid-batch (between drain and
  /// apply) for a seeded duration while queries keep running.
  BatchStall = 3,
  /// IngestEngine publication gate — withhold the epoch via a poisoned
  /// oracle verdict (check::kChaosPoisoned).
  PoisonPublish = 4,
  /// IngestEngine, mid-batch — crash the ingest thread before the publish
  /// of a scheduled stamp completes.
  Kill = 5,
};

/// Seeded description of what to inject and how often. Probabilities are
/// per decision point; `max_*` caps bound the total injections so a
/// closed-loop run always drains to a quiesced, publishable state
/// (0 = unlimited).
struct PlanSpec {
  std::uint64_t seed = 1;

  double deny_submit = 0.0;
  std::uint64_t max_denies = 0;

  double duplicate_batch = 0.0;
  std::uint64_t max_duplicates = 0;

  double defer_batch = 0.0;
  std::uint64_t max_defers = 0;

  double stall_batch = 0.0;
  /// Stall duration for the i-th stall: seeded uniform in [1, stall_max_us].
  std::uint32_t stall_max_us = 200;
  std::uint64_t max_stalls = 0;

  double poison_publish = 0.0;
  std::uint64_t max_poisons = 0;

  /// Publish stamps (epoch numbers about to be created) at which the
  /// ingest thread is killed mid-batch. Each stamp kills exactly once:
  /// after the restart, the replayed batch publishes normally.
  std::vector<std::uint64_t> kill_at_stamps;
};

/// What happens to one drained batch.
struct BatchDecision {
  bool duplicate = false;
  bool defer = false;
  /// Microseconds to stall mid-batch (0 = no stall).
  std::uint32_t stall_us = 0;
};

/// Injections actually performed so far.
struct PlanStats {
  std::uint64_t denies = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t defers = 0;
  std::uint64_t stalls = 0;
  std::uint64_t poisons = 0;
  std::uint64_t kills = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(PlanSpec spec);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// One decision per call, keyed by an internal per-point counter.
  [[nodiscard]] bool deny_submit();
  [[nodiscard]] BatchDecision on_batch();
  [[nodiscard]] bool poison_publish();
  /// True exactly once per spec'd stamp: the caller must crash.
  [[nodiscard]] bool kill_now(std::uint64_t publish_stamp);

  /// Harness hook: arms one additional kill at `publish_stamp` after
  /// construction. The schedule explorer uses this to target a live
  /// shard's *next* epoch — a stamp it cannot know when the plan is built.
  void arm_kill(std::uint64_t publish_stamp);

  /// Disarm turns every future decision into a no-op (injection counters
  /// keep their values); rearm restores the spec. Harnesses disarm a plan
  /// to drain a chaotic run to its final, publishable state.
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  void rearm() { armed_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] PlanStats stats() const;
  [[nodiscard]] const PlanSpec& spec() const noexcept { return spec_; }

 private:
  /// The i-th decision at `point`: true with probability `prob`, bounded by
  /// `cap` total takes. Deterministic in (seed, point, i).
  bool roll(Point point, double prob, std::uint64_t cap,
            std::atomic<std::uint64_t>& index,
            std::atomic<std::uint64_t>& taken);

  PlanSpec spec_;
  std::atomic<bool> armed_{true};

  std::atomic<std::uint64_t> deny_index_{0};
  std::atomic<std::uint64_t> batch_index_{0};
  std::atomic<std::uint64_t> poison_index_{0};

  std::atomic<std::uint64_t> denies_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> defers_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> poisons_{0};
  std::atomic<std::uint64_t> kills_{0};

  std::mutex kill_mu_;
  std::vector<std::uint64_t> pending_kills_;
};

/// The value-type handle chaos-instrumented code holds: a plan pointer
/// (null = disabled). Copy freely; default construction is the disabled
/// state and every hook is a single branch-on-null.
struct ChaosConfig {
  FaultPlan* plan = nullptr;

  [[nodiscard]] bool enabled() const noexcept { return plan != nullptr; }
  [[nodiscard]] bool deny_submit() const {
    return plan != nullptr && plan->deny_submit();
  }
  [[nodiscard]] BatchDecision on_batch() const {
    return plan != nullptr ? plan->on_batch() : BatchDecision{};
  }
  [[nodiscard]] bool poison_publish() const {
    return plan != nullptr && plan->poison_publish();
  }
  [[nodiscard]] bool kill_now(std::uint64_t publish_stamp) const {
    return plan != nullptr && plan->kill_now(publish_stamp);
  }
};

}  // namespace ocp::chaos
