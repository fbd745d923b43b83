// Schedule-adversarial execution of the labeling protocols.
//
// The paper assumes synchronous lock-step rounds "to simplify the
// discussion"; the rules being monotone makes the fixpoint independent of
// the update schedule. `check_schedules` drives both phases through
// `sim::run_async` under every `sim::Schedule` — seeded random sweeps, a
// LIFO worklist that chases the newest changes depth-first,
// rotating-priority sweeps, and sweeps that randomly delay half the nodes —
// and asserts each fixpoint equals the synchronous reference, turning the
// paper's schedule-independence argument into an executable property.
#pragma once

#include <cstdint>

#include "check/oracle.hpp"
#include "core/pipeline.hpp"

namespace ocp::check {

/// Runs both labeling phases under every adversarial schedule and compares
/// the fixpoints to the synchronous reference (`kScheduleIndependence`
/// violations on mismatch). Phase two consumes the synchronous phase-one
/// labeling, so each phase is checked in isolation.
[[nodiscard]] ViolationReport check_schedules(
    const grid::CellSet& faults,
    labeling::SafeUnsafeDef def = labeling::SafeUnsafeDef::Def2b,
    std::uint64_t seed = 1);

}  // namespace ocp::check
