// The reference wormhole kernel: every worm is stepped on every cycle, in
// submission order. Trivially correct and O(worms) per cycle even when
// almost nothing can move. `netsim::WormholeSim`'s event-driven kernel must
// reproduce its `SimResult` bit for bit (kernel_equivalence_test).
//
// It transcribes the per-cycle worm step from the simulator's documented
// semantics (netsim/wormhole.hpp, DESIGN.md §8) and shares no code with
// `WormholeSim`, so the equivalence test checks the step itself and not only
// the event kernel's scheduling. Test-only.
#pragma once

#include <vector>

#include "mesh/mesh2d.hpp"
#include "netsim/wormhole.hpp"

namespace ocp::netsim {

/// Runs `specs` (already valid for `WormholeSim::submit`) to quiescence,
/// deadlock or `config.max_cycles`. `config.trace` is ignored.
[[nodiscard]] SimResult run_sweep_reference(const mesh::Mesh2D& machine,
                                            const SimConfig& config,
                                            const std::vector<PacketSpec>& specs);

}  // namespace ocp::netsim
