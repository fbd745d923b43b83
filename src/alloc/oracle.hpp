// Allocation oracle: the placement-layer invariants as maskable checks,
// reported through the same `check::ViolationReport` machinery as the
// labeling oracle so fuzz loops and harnesses compose reports freely.
//
// All checks recompute from first principles — the snapshot's status plane
// and the engine's live-job table — never from the engine's own caches, so
// a drifted incremental structure cannot vouch for itself:
//  * check::kAllocOverlap      — no live job covers a non-Enabled cell or
//                                another job's cell, and every footprint is
//                                inside the machine;
//  * check::kAllocIndex        — the incremental `FreeRegionIndex` equals a
//                                from-scratch rebuild (busy = blocked by
//                                snapshot OR covered by a live job), the
//                                engine's blocked plane matches the
//                                snapshot's status plane cell-for-cell, and
//                                the published view's frozen busy plane and
//                                free-cell count match the index;
//  * check::kAllocEviction     — eviction completeness: the engine's
//                                observed epoch is the snapshot's, and no
//                                live job survived on a blocked cell (the
//                                overlap scan against THIS snapshot);
//  * check::kAllocConservation — submitted == live + pending + completed +
//                                released + rejected + shed, and the queue
//                                respects its bound.
#pragma once

#include <cstdint>

#include "alloc/engine.hpp"
#include "check/oracle.hpp"

namespace ocp::alloc {

/// All allocation checks `check_engine` knows.
inline constexpr std::uint32_t kAllAllocChecks =
    check::kAllocOverlap | check::kAllocIndex | check::kAllocEviction |
    check::kAllocConservation;

/// Verifies `engine` against `snap` (the snapshot of the epoch the engine
/// last observed). Empty report = every selected invariant held.
[[nodiscard]] check::ViolationReport check_engine(
    const AllocEngine& engine, const svc::Snapshot& snap,
    std::uint32_t checks = kAllAllocChecks);

}  // namespace ocp::alloc
