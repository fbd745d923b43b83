// The InvariantOracle: every formal claim of Wu, IPPS 2001 as one reusable,
// machine-checkable specification.
//
// Given any `labeling::PipelineResult`, `check_pipeline` verifies the
// paper's theorems (1-2), lemmas (1-3), the corollary, faulty-block
// rectangularity/disjointness/separation, disabled-region separation,
// extraction bookkeeping, the status lattice, and the density-gated
// convergence bounds — returning a structured `ViolationReport` instead of
// asserting. The gtest theorem sweeps, the deterministic fuzzer, the
// metamorphic layer, the schedule-adversarial runners and the mutation smoke
// tests all consume this one oracle, so every engine rewrite is vetted
// against the same spec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "grid/cell_set.hpp"

namespace ocp::check {

/// Individual invariants, usable as a bitmask in `OracleOptions::checks`.
enum Check : std::uint32_t {
  /// Section 3: every faulty block is a rectangle.
  kBlockRectangle = 1u << 0,
  /// Section 3: inter-block distance >= 3 (Def 2a) / >= 2 (Def 2b).
  kBlockSeparation = 1u << 1,
  /// A faulty block contains at least one fault, its fault/nonfaulty counts
  /// add up, and the block rectangle is exactly the bounding box of its
  /// faults (unsafe status only ever grows between faults, never past their
  /// bounding rectangle).
  kBlockFaultContent = 1u << 2,
  /// Theorem 1: every disabled region is an orthogonal convex polygon
  /// (definitional test, 8-connectivity, and the O(n) staircase
  /// characterization must all agree).
  kTheorem1 = 1u << 3,
  /// Lemma 1: every corner node of a disabled region is faulty.
  kLemma1 = 1u << 4,
  /// Lemma 2: each quadrant anchored at any node of a disabled region
  /// contains a corner node of the region.
  kLemma2 = 1u << 5,
  /// Lemma 3: a node just outside a disabled region has at least one
  /// quadrant free of region nodes.
  kLemma3 = 1u << 6,
  /// Theorem 2: each disabled region equals the rectilinear convex closure
  /// of the faults it contains (the unique minimal orthogonal convex cover).
  kTheorem2 = 1u << 7,
  /// Corollary: per block, nonfaulty nodes kept disabled by its regions
  /// number at most those inside the minimal single polygon covering all
  /// the block's faults.
  kCorollary = 1u << 8,
  /// Disabled regions are pairwise at machine distance >= 2.
  kRegionSeparation = 1u << 9,
  /// A disabled region contains at least one fault and its counts add up.
  kRegionFaultContent = 1u << 10,
  /// Status lattice: faulty => unsafe and disabled; disabled => unsafe.
  kStatusLattice = 1u << 11,
  /// Extraction bookkeeping: blocks partition the unsafe set, regions
  /// partition the disabled set, parent links resolve, fault totals match.
  kExtraction = 1u << 12,
  /// Convergence: the universal progress bound always; the paper's
  /// "max d(B) rounds" bound per `OracleOptions::round_bound`.
  kConvergence = 1u << 13,
  /// Fault rings of disabled regions trace as simple closed walks covering
  /// every ring cell (the structure boundary-following routers rely on).
  kRingTrace = 1u << 14,
  /// The labeling is a quiesced, locally justified fixpoint of the genuine
  /// rules: no safe node currently satisfies the unsafe condition and no
  /// disabled node has enough enabled support (quiescence — catches runners
  /// that stop early), and every unsafe/enabled transition is still
  /// supported by the final neighborhood (justification — the monotone
  /// rules keep support once gained, so a label the final planes cannot
  /// explain was never derivable).
  kFixpoint = 1u << 15,
};

/// All invariants `check_pipeline` knows.
inline constexpr std::uint32_t kAllChecks = (1u << 16) - 1;

/// Pseudo-check codes used by the layers above the oracle (metamorphic
/// transforms, schedule-adversarial runs, engine cross-validation). Not part
/// of `kAllChecks`; they appear only in reports produced by those layers.
inline constexpr std::uint32_t kMetamorphic = 1u << 16;
inline constexpr std::uint32_t kScheduleIndependence = 1u << 17;
inline constexpr std::uint32_t kEngineEquivalence = 1u << 18;
/// A publication withheld by a chaos-poisoned oracle verdict (src/chaos):
/// the gate was forced to reject a healthy snapshot to exercise the serving
/// runtime's degraded modes. Appears only in reports fabricated by the
/// ingest engine's poisoning hook, never in a genuine oracle pass.
inline constexpr std::uint32_t kChaosPoisoned = 1u << 19;
/// Allocation-layer checks (src/alloc): the placement oracle reports with
/// these codes and `alloc::check_engine` masks on them. Like the other
/// pseudo-checks they are outside `kAllChecks` — `check_pipeline` never
/// evaluates them.
/// No live job overlaps a faulty block, a disabled region, or another job.
inline constexpr std::uint32_t kAllocOverlap = 1u << 20;
/// The incremental free-region index equals a from-scratch recompute from
/// the serving snapshot and the live placements.
inline constexpr std::uint32_t kAllocIndex = 1u << 21;
/// Eviction completeness: after an epoch turnover no live job intersects a
/// newly blocked cell.
inline constexpr std::uint32_t kAllocEviction = 1u << 22;
/// Conservation: every submitted job is live, pending, completed, rejected
/// at admission, or shed after bounded retries — none lost, none doubled.
inline constexpr std::uint32_t kAllocConservation = 1u << 23;

/// Human-readable name of a single check bit.
[[nodiscard]] const char* check_name(std::uint32_t check) noexcept;

/// One violated invariant.
struct Violation {
  std::uint32_t check = 0;
  std::string detail;
};

/// Result of an oracle pass: empty means every selected invariant held.
struct ViolationReport {
  std::vector<Violation> violations;
  /// True when `max_violations` stopped the pass early (the report is a
  /// prefix of the full violation list).
  bool truncated = false;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return violations.size(); }
  /// Multi-line rendering: one "check: detail" line per violation.
  [[nodiscard]] std::string to_string() const;
  /// Appends another report's violations (used by the fuzzer to merge the
  /// oracle, metamorphic and schedule layers).
  void merge(ViolationReport other);
};

/// How the paper's "within max d(B) rounds" claim is asserted. It holds in
/// the paper's sparse regime (f about 1% of the nodes) but is NOT a worst
/// case: at high densities chain-reaction block merging (phase one) and
/// snaking re-enables (phase two) can exceed the final block diameter by a
/// few rounds (documented deviation; see EXPERIMENTS.md). The universal
/// progress bound (every counted round changes at least one status) is
/// asserted at every density regardless.
enum class RoundBound : std::uint8_t {
  /// Strict bound only when the fault density is within the sparse regime
  /// (<= kStrictBoundDensity of the nodes).
  Auto = 0,
  /// Always assert the strict diameter bound.
  Strict = 1,
  /// Only the universal progress bound.
  ProgressOnly = 2,
};

/// Density threshold for `RoundBound::Auto` (fraction of faulty nodes).
inline constexpr double kStrictBoundDensity = 0.02;

struct OracleOptions {
  /// The safe/unsafe definition the pipeline ran with (sets the required
  /// inter-block separation distance).
  labeling::SafeUnsafeDef definition = labeling::SafeUnsafeDef::Def2b;
  /// Bitmask of `Check` values to verify.
  std::uint32_t checks = kAllChecks;
  RoundBound round_bound = RoundBound::Auto;
  /// Stop collecting after this many violations (the pass still returns).
  std::size_t max_violations = 32;
};

/// Verifies every selected invariant of `result` against the fault set it
/// was computed from. Convergence checks are skipped automatically for
/// reference-engine results (which carry zeroed round statistics).
[[nodiscard]] ViolationReport check_pipeline(
    const grid::CellSet& faults, const labeling::PipelineResult& result,
    const OracleOptions& opts = {});

/// The faults of a component, in its planar frame coordinates (on a torus
/// the frame is the unwrapped footprint). Shared by the Theorem 2, Corollary
/// and block-content checks; exposed for tests and tools.
[[nodiscard]] geom::Region component_frame_faults(const grid::Component& comp,
                                                  const grid::CellSet& faults);

}  // namespace ocp::check
