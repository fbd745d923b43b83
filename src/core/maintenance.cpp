#include "core/maintenance.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "core/reference.hpp"

namespace ocp::labeling {

namespace {

/// Minimum row-major node index over a component's physical cells — the
/// extraction-order sort key of `grid::connected_components` (each
/// component is seeded at exactly this cell).
std::uint32_t min_phys_index(const mesh::Mesh2D& m,
                             const grid::Component& comp) {
  std::size_t best = static_cast<std::size_t>(m.node_count());
  for (mesh::Coord c : comp.cells()) best = std::min(best, m.index(c));
  return static_cast<std::uint32_t>(best);
}

/// Collects the distinct non-negative keys of `plane` over `area` in `out`.
void collect_keys(const grid::NodeGrid<std::int32_t>& plane,
                  std::span<const mesh::Coord> area,
                  std::vector<std::int32_t>& out) {
  out.clear();
  for (mesh::Coord c : area) {
    const std::int32_t key = plane[c];
    if (key >= 0 && std::find(out.begin(), out.end(), key) == out.end()) {
      out.push_back(key);
    }
  }
}

/// Stores a record and its order entry (keys are unique among live
/// records).
template <typename T>
void store(SlotTable<T>& records, std::vector<OrderEntry>& order, T record,
           std::uint32_t key) {
  const std::uint32_t slot = records.insert(std::move(record));
  order.insert(std::lower_bound(order.begin(), order.end(), key), {key, slot});
}

/// Removes `key`'s entry from `order` and returns its slot.
std::uint32_t take_entry(std::vector<OrderEntry>& order, std::int32_t key) {
  const auto it = std::lower_bound(order.begin(), order.end(),
                                   static_cast<std::uint32_t>(key));
  assert(it != order.end() && it->key == static_cast<std::uint32_t>(key));
  const std::uint32_t slot = it->slot;
  order.erase(it);
  return slot;
}

}  // namespace

MaintainedLabeling::MaintainedLabeling(grid::CellSet faults,
                                       SafeUnsafeDef def)
    : MaintainedLabeling(faults, run_pipeline(faults, {.definition = def}),
                         def) {}

MaintainedLabeling::MaintainedLabeling(grid::CellSet& faults,
                                       PipelineResult labeled,
                                       SafeUnsafeDef def)
    : def_(def),
      faults_(std::move(faults)),
      safety_(std::move(labeled.safety)),
      activation_(std::move(labeled.activation)),
      block_key_(faults_.topology(), -1),
      region_key_(faults_.topology(), -1),
      visit_scratch_(faults_.topology()),
      area_unsafe_scratch_(faults_.topology()),
      area_disabled_scratch_(faults_.topology()) {
  // Extraction order is min-index order, so every store appends.
  const mesh::Mesh2D& m = faults_.topology();
  for (FaultyBlock& block : labeled.blocks) {
    const std::uint32_t key = min_phys_index(m, block.component);
    for (mesh::Coord cell : block.component.cells()) {
      block_key_[cell] = static_cast<std::int32_t>(key);
    }
    store(block_records_, block_order_, std::move(block), key);
  }
  for (DisabledRegion& region : labeled.regions) {
    const std::uint32_t key = min_phys_index(m, region.component);
    for (mesh::Coord cell : region.component.cells()) {
      region_key_[cell] = static_cast<std::int32_t>(key);
    }
    region.parent_block = block_order_[region.parent_block].key;
    store(region_records_, region_order_, std::move(region), key);
  }
}

EventDelta MaintainedLabeling::add_fault(mesh::Coord node) {
  EventDelta delta;
  const mesh::Mesh2D& m = faults_.topology();
  if (!m.contains(node) || faults_.contains(node)) return delta;
  faults_.insert(node);

  // Incremental phase one: the rule is monotone in the fault set, so
  // resuming the closure from the new unsafe node reaches the fixpoint of
  // the enlarged instance. This mirrors what the distributed system does —
  // only the neighborhood of the new fault exchanges messages.
  std::vector<mesh::Coord>& worklist = worklist_scratch_;
  worklist.assign(1, node);
  if (safety_[node] != Safety::Unsafe) {
    safety_[node] = Safety::Unsafe;
    ++delta.safety_changed;
  }
  delta.safety_changed += close_safety(faults_, def_, safety_, worklist);

  // The affected area is the merged unsafe component around the new fault:
  // every safety flip is chained to the fault through unsafe cells, so any
  // pre-existing block it touched has been absorbed into this component,
  // and nothing outside it changed.
  rebuild_area(unsafe_component(node), delta);
  return delta;
}

std::vector<mesh::Coord> MaintainedLabeling::unsafe_component(
    mesh::Coord node) {
  // `visit_scratch_` is empty on entry and emptied again on return.
  const mesh::Mesh2D& m = faults_.topology();
  std::vector<mesh::Coord> cells{node};
  visit_scratch_.insert(node);
  for (std::size_t head = 0; head < cells.size(); ++head) {
    for (const mesh::Link& l : m.neighbors(cells[head])) {
      if (safety_[l.to] != Safety::Unsafe || visit_scratch_.contains(l.to)) {
        continue;
      }
      visit_scratch_.insert(l.to);
      cells.push_back(l.to);
    }
  }
  for (const mesh::Coord c : cells) visit_scratch_.take(c);
  return cells;
}

EventDelta MaintainedLabeling::remove_fault(mesh::Coord node) {
  EventDelta delta;
  const mesh::Mesh2D& m = faults_.topology();
  if (!m.contains(node) || !faults_.contains(node)) return delta;
  faults_.erase(node);

  // The faulty block the node belonged to: the maximal 4-connected unsafe
  // component around it. Unsafe labels derive only from faults of their own
  // component (every derived-unsafe node has an unsafe 4-neighbor, so
  // support chains never leave the component), and cells adjacent to the
  // component are safe and — by monotonicity in the fault set — stay safe
  // after the removal. The repair is therefore exact when confined to the
  // block: reset it, then re-close the fixpoint from its remaining faults.
  std::vector<mesh::Coord> footprint = unsafe_component(node);

  // Reset: remaining faults stay unsafe and seed the closure.
  std::vector<mesh::Coord>& worklist = worklist_scratch_;
  worklist.clear();
  for (mesh::Coord c : footprint) {
    if (faults_.contains(c)) {
      safety_[c] = Safety::Unsafe;
      worklist.push_back(c);
    } else {
      safety_[c] = Safety::Safe;
    }
  }

  // Same closure as `add_fault`. Propagation cannot escape the old block
  // (its surroundings are safe before and after), so it is local by
  // construction.
  close_safety(faults_, def_, safety_, worklist);

  // Every footprint cell was unsafe before the repair, so the flips are
  // exactly the cells that came back safe.
  for (mesh::Coord c : footprint) {
    if (safety_[c] == Safety::Safe) ++delta.safety_changed;
  }

  rebuild_area(std::move(footprint), delta);
  return delta;
}

void MaintainedLabeling::rebuild_area(std::vector<mesh::Coord> area,
                                      EventDelta& delta) {
  const mesh::Mesh2D& m = faults_.topology();

  // Retire the blocks and regions the event absorbed. Each old block either
  // lies entirely inside the area (it merged into the new component, or it
  // is the block being repaired) or is disjoint from it, because blocks are
  // maximal; each old region lies inside its block. So the keys found on
  // the area's cells name exactly the records to retire.
  std::vector<std::int32_t>& retired = retired_scratch_;
  collect_keys(block_key_, area, retired);
  for (const std::int32_t key : retired) {
    block_records_.erase(take_entry(block_order_, key));
  }
  collect_keys(region_key_, area, retired);
  for (const std::int32_t key : retired) {
    region_records_.erase(take_entry(region_order_, key));
  }

  // Phase two, locally: Definition 3's activation closure of an unsafe
  // component depends only on the component — its 4-neighborhood is safe
  // and therefore permanently enabled — and the closure of a monotone rule
  // is order-independent, so re-deriving it inside the area reproduces the
  // global fixpoint bit for bit.
  std::vector<Activation>& old_act = old_act_scratch_;
  old_act.clear();
  old_act.reserve(area.size());
  for (mesh::Coord c : area) {
    old_act.push_back(activation_[c]);
    activation_[c] = safety_[c] == Safety::Unsafe ? Activation::Disabled
                                                  : Activation::Enabled;
  }
  close_activation(faults_, safety_, activation_, area, worklist_scratch_);
  for (std::size_t i = 0; i < area.size(); ++i) {
    if (activation_[area[i]] != old_act[i]) ++delta.activation_changed;
  }

  // Re-extract blocks and regions inside the area with the same component
  // walker the from-scratch pipeline uses; seeded on a set holding only the
  // area's cells it produces bit-identical components. The scratch sets are
  // emptied cell by cell below — never O(mesh).
  grid::CellSet& area_unsafe = area_unsafe_scratch_;
  grid::CellSet& area_disabled = area_disabled_scratch_;
  for (mesh::Coord c : area) {
    if (safety_[c] == Safety::Unsafe) area_unsafe.insert(c);
    if (activation_[c] == Activation::Disabled) area_disabled.insert(c);
    block_key_[c] = -1;
    region_key_[c] = -1;
  }
  delta.cells_written += 2 * area.size();
  for (auto& comp : grid::connected_components_seeded(
           area_unsafe, grid::Connectivity::Four, area, component_scratch_)) {
    const std::uint32_t key = min_phys_index(m, comp);
    FaultyBlock block;
    for (mesh::Coord cell : comp.cells()) {
      if (faults_.contains(cell)) {
        ++block.fault_count;
      } else {
        ++block.unsafe_nonfaulty_count;
      }
      block_key_[cell] = static_cast<std::int32_t>(key);
    }
    delta.cells_written += comp.cells().size();
    block.component = std::move(comp);
    store(block_records_, block_order_, std::move(block), key);
    ++delta.blocks_rebuilt;
  }
  for (auto& comp : grid::connected_components_seeded(
           area_disabled, grid::Connectivity::Eight, area,
           component_scratch_)) {
    const std::uint32_t key = min_phys_index(m, comp);
    DisabledRegion region;
    for (mesh::Coord cell : comp.cells()) {
      if (faults_.contains(cell)) {
        ++region.fault_count;
      } else {
        ++region.disabled_nonfaulty_count;
      }
      region_key_[cell] = static_cast<std::int32_t>(key);
    }
    delta.cells_written += comp.cells().size();
    const std::int32_t parent = block_key_[comp.cells().front()];
    assert(parent >= 0 && "disabled cells live inside a faulty block");
    region.parent_block = static_cast<std::size_t>(parent);
    region.component = std::move(comp);
    store(region_records_, region_order_, std::move(region), key);
    ++delta.regions_rebuilt;
  }
  for (mesh::Coord c : area) {
    area_unsafe.erase(c);
    area_disabled.erase(c);
  }

  blocks_view_valid_ = false;
  regions_view_valid_ = false;
  delta.dirty_cells = std::move(area);
}

const std::vector<FaultyBlock>& MaintainedLabeling::blocks() const {
  if (!blocks_view_valid_) {
    blocks_view_.clear();
    blocks_view_.reserve(block_order_.size());
    for (const OrderEntry& e : block_order_) {
      blocks_view_.push_back(block_records_[e.slot]);
    }
    blocks_view_valid_ = true;
  }
  return blocks_view_;
}

const std::vector<DisabledRegion>& MaintainedLabeling::regions() const {
  if (!regions_view_valid_) {
    regions_view_.clear();
    regions_view_.reserve(region_order_.size());
    for (const OrderEntry& e : region_order_) {
      regions_view_.push_back(region_records_[e.slot]);
      regions_view_.back().parent_block = order_rank(
          block_order_,
          static_cast<std::uint32_t>(regions_view_.back().parent_block));
    }
    regions_view_valid_ = true;
  }
  return regions_view_;
}

}  // namespace ocp::labeling
