#include "core/regions.hpp"

#include <cassert>
#include <stdexcept>

namespace ocp::labeling {

grid::CellSet unsafe_cells(const grid::NodeGrid<Safety>& safety) {
  grid::CellSet out(safety.topology());
  for (std::size_t i = 0; i < safety.size(); ++i) {
    if (safety.at_index(i) == Safety::Unsafe) out.insert_index(i);
  }
  return out;
}

grid::CellSet disabled_cells(const grid::NodeGrid<Activation>& activation) {
  grid::CellSet out(activation.topology());
  for (std::size_t i = 0; i < activation.size(); ++i) {
    if (activation.at_index(i) == Activation::Disabled) {
      out.insert_index(i);
    }
  }
  return out;
}

std::vector<FaultyBlock> extract_faulty_blocks(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety) {
  grid::BitPlane unsafe(safety.topology());
  unsafe.pack(safety.data());
  std::vector<grid::Component> comps =
      grid::connected_components(std::move(unsafe), grid::Connectivity::Four);
  std::vector<FaultyBlock> out;
  out.reserve(comps.size());
  for (auto& comp : comps) {
    FaultyBlock block;
    for (mesh::Coord cell : comp.cells()) {
      if (faults.contains(cell)) {
        ++block.fault_count;
      } else {
        ++block.unsafe_nonfaulty_count;
      }
    }
    block.component = std::move(comp);
    out.push_back(std::move(block));
  }
  return out;
}

std::vector<DisabledRegion> extract_disabled_regions(
    const grid::CellSet& faults, const grid::NodeGrid<Activation>& activation,
    const std::vector<FaultyBlock>& blocks) {
  const mesh::Mesh2D& m = activation.topology();

  // Parent lookup: block id per unsafe cell.
  grid::NodeGrid<std::int32_t> block_id(m, -1);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (mesh::Coord cell : blocks[b].component.cells()) {
      block_id[cell] = static_cast<std::int32_t>(b);
    }
  }

  grid::BitPlane disabled(m);
  disabled.pack(activation.data());
  std::vector<grid::Component> comps =
      grid::connected_components(std::move(disabled), grid::Connectivity::Eight);
  std::vector<DisabledRegion> out;
  out.reserve(comps.size());
  for (auto& comp : comps) {
    DisabledRegion region;
    const std::int32_t parent = block_id[comp.cells().front()];
    if (parent < 0) {
      // Disabled cells are unsafe by construction; a missing parent means
      // the safety and activation grids do not belong together.
      throw std::invalid_argument(
          "extract_disabled_regions: disabled cell outside any faulty block");
    }
    region.parent_block = static_cast<std::size_t>(parent);
    for (mesh::Coord cell : comp.cells()) {
      assert(block_id[cell] == parent &&
             "a disabled region never spans two faulty blocks");
      if (faults.contains(cell)) {
        ++region.fault_count;
      } else {
        ++region.disabled_nonfaulty_count;
      }
    }
    region.component = std::move(comp);
    out.push_back(std::move(region));
  }
  return out;
}

}  // namespace ocp::labeling
