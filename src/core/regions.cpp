#include "core/regions.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace ocp::labeling {

grid::CellSet unsafe_cells(const grid::NodeGrid<Safety>& safety) {
  grid::BitPlane unsafe(safety.topology());
  unsafe.pack(safety.data());
  return grid::CellSet(std::move(unsafe));
}

grid::CellSet disabled_cells(const grid::NodeGrid<Activation>& activation) {
  grid::BitPlane disabled(activation.topology());
  disabled.pack(activation.data());
  return grid::CellSet(std::move(disabled));
}

std::vector<FaultyBlock> extract_faulty_blocks(
    const grid::CellSet& faults, const grid::NodeGrid<Safety>& safety) {
  grid::BitPlane unsafe(safety.topology());
  unsafe.pack(safety.data());
  std::vector<FaultyBlock> out;
  out.reserve(unsafe.run_starts());
  // Each block is built in place; its cells are counted as the walk
  // reaches them.
  grid::gather_components(
      std::move(unsafe), grid::Connectivity::Four,
      [&out](mesh::Coord) -> grid::Component& {
        return out.emplace_back().component;
      },
      [&](mesh::Coord cell) {
        FaultyBlock& block = out.back();
        ++(faults.contains(cell) ? block.fault_count
                                 : block.unsafe_nonfaulty_count);
      });
  return out;
}

std::vector<DisabledRegion> extract_disabled_regions(
    const grid::CellSet& faults, const grid::NodeGrid<Activation>& activation,
    const std::vector<FaultyBlock>& blocks) {
  const mesh::Mesh2D& m = activation.topology();
  grid::BitPlane disabled(m);
  disabled.pack(activation.data());
  std::vector<DisabledRegion> out;
  out.reserve(disabled.run_starts());

  // Region seeds: each region's first cell in row-major order, which is
  // also the order the regions are emitted in.
  constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  grid::BitPlane seeds(m);
  grid::gather_components(
      std::move(disabled), grid::Connectivity::Eight,
      [&](mesh::Coord seed) -> grid::Component& {
        seeds.insert(seed);
        DisabledRegion& region = out.emplace_back();
        region.parent_block = kNoParent;
        return region.component;
      },
      [&](mesh::Coord cell) {
        DisabledRegion& region = out.back();
        ++(faults.contains(cell) ? region.fault_count
                                 : region.disabled_nonfaulty_count);
      });

  // Parent lookup: every disabled cell is unsafe and a region never spans
  // two blocks (the oracle checks both), so the block holding a region's
  // seed is its parent. One pass over the block cells finds them all; a
  // seed's region is its rank among the seeds, a per-word prefix count plus
  // a popcount within the word.
  const std::span<std::uint64_t> words = seeds.words();
  std::vector<std::uint32_t> seeds_before(words.size());
  std::uint32_t running = 0;
  for (std::size_t k = 0; k < words.size(); ++k) {
    seeds_before[k] = running;
    running += static_cast<std::uint32_t>(std::popcount(words[k]));
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const mesh::Coord cell : blocks[b].component.cells()) {
      const std::size_t k =
          static_cast<std::size_t>(cell.y) * seeds.words_per_row() +
          static_cast<std::size_t>(cell.x) / 64;
      const auto bit = static_cast<unsigned>(cell.x % 64);
      const std::uint64_t w = words[k];
      if ((w >> bit & 1) == 0) continue;
      const std::size_t rank =
          seeds_before[k] + static_cast<std::size_t>(std::popcount(
                                w & ((std::uint64_t{1} << bit) - 1)));
      out[rank].parent_block = b;
    }
  }
  for (const DisabledRegion& region : out) {
    if (region.parent_block == kNoParent) {
      // A missing parent means the safety and activation grids do not
      // belong together.
      throw std::invalid_argument(
          "extract_disabled_regions: disabled cell outside any faulty block");
    }
  }
  return out;
}

}  // namespace ocp::labeling
