// Online maintenance of the fault model (paper, section 1: faulty blocks
// "can be easily established and maintained through message exchanges among
// neighboring nodes").
//
// When a node fails at runtime, the labeling does not have to be recomputed
// from scratch: the safe/unsafe rule is monotone in the fault set, so the
// new fixpoint is reached by resuming the reference solver's worklist
// closure (core/reference) from the new fault — the distributed system
// would do exactly this with a handful of local message exchanges. (The
// first labeling comes from `run_pipeline`'s word rounds.) The
// enabled/disabled labeling is *not* monotone in the fault set (a new fault
// can strip the support that activated a neighbor, and a node once enabled
// must be re-validated), but it *is* local: Definition 3's
// activation fixpoint of each unsafe component depends only on that
// component (its 4-neighborhood is safe, hence permanently enabled), so
// phase two is re-derived inside the affected component only — never over
// the whole machine. The same locality bounds the faulty-block and
// disabled-region updates: blocks and regions live in slot maps under stable
// ids (`SlotTable`), so an event retires the records it absorbs, creates the
// ones it re-extracts, and writes the per-cell key planes only on its own
// cells. The from-scratch extraction order survives as two sorted arrays of
// (min-index key, slot) pairs spliced by memmove — the only work an event
// does in proportion to the number of blocks. Every event therefore costs
// O(affected component) plus that memmove, not O(mesh), and reports exactly
// which cells it may have relabeled so the serving layer (src/svc) can
// republish copy-on-write snapshots that share every untouched page and
// record with their predecessor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/slot_table.hpp"
#include "grid/connectivity.hpp"

namespace ocp::labeling {

/// What one fault/repair event changed: flip counts for both labelings plus
/// the dirty extent — every cell whose served label (fault status, safety,
/// activation, or disabled-region membership) may differ from before the
/// event. The extent is the affected unsafe component (after an add) or the
/// repaired block's old footprint (after a removal); it is empty exactly
/// when the event was a no-op.
struct EventDelta {
  /// Nodes whose safety status changed.
  std::size_t safety_changed = 0;
  /// Nodes whose activation status changed.
  std::size_t activation_changed = 0;
  /// Cells whose label may have changed (always includes the event node for
  /// a non-no-op event; a superset of the actual flips).
  std::vector<mesh::Coord> dirty_cells;
  /// Work counters: entries the event wrote in the per-cell block-key and
  /// region-key planes, and block / region records it built. They depend
  /// only on the affected area, never on the size of the machine or on the
  /// number of blocks elsewhere.
  std::size_t cells_written = 0;
  std::size_t blocks_rebuilt = 0;
  std::size_t regions_rebuilt = 0;

  [[nodiscard]] bool no_op() const noexcept { return dirty_cells.empty(); }
};

/// One entry of the from-scratch extraction order: a block's or region's
/// sort key (the minimum row-major node index of its cells, which identifies
/// it for as long as it lives) and the slot holding its record.
struct OrderEntry {
  std::uint32_t key = 0;
  std::uint32_t slot = 0;

  friend bool operator<(const OrderEntry& e, std::uint32_t key) noexcept {
    return e.key < key;
  }
};

/// Position of `key` in an order array (the array's size when absent).
[[nodiscard]] inline std::size_t order_rank(
    const std::vector<OrderEntry>& order, std::uint32_t key) noexcept {
  const auto it = std::lower_bound(order.begin(), order.end(), key);
  return it != order.end() && it->key == key
             ? static_cast<std::size_t>(it - order.begin())
             : order.size();
}

/// A labeled machine that absorbs fault events incrementally.
///
/// Not safe for concurrent use: one writer applies events and reads the
/// state (the serving layer freezes it into immutable snapshots for
/// readers).
class MaintainedLabeling {
 public:
  /// Labels the initial fault set.
  explicit MaintainedLabeling(grid::CellSet faults,
                              SafeUnsafeDef def = SafeUnsafeDef::Def2b);

  /// Marks `node` faulty and restores both labelings and the region lists.
  /// No-op when the node is already faulty. Returns the delta, including
  /// the dirty extent (the merged unsafe component around the fault).
  EventDelta add_fault(mesh::Coord node);

  /// Halo-bounded maintenance entry point for replicated/sharded serving:
  /// drives the fault model to the asserted state at `node` and restores
  /// both labelings, dispatching to `add_fault`/`remove_fault`. Idempotent —
  /// a node already in the asserted state is a no-op with an empty dirty
  /// extent — so a shard replaying remote (halo) state assertions converges
  /// without tracking which assertions it has already absorbed.
  EventDelta set_fault_state(mesh::Coord node, bool faulty) {
    return faulty ? add_fault(node) : remove_fault(node);
  }

  /// Marks `node` repaired (no longer faulty) and restores both labelings
  /// and the region lists. No-op when the node is not faulty. Removal can
  /// only shrink the unsafe set (the rule is monotone in the fault set),
  /// and only inside the faulty block the node belonged to — unsafe labels
  /// derive from faults of their own 4-connected component — so the repair
  /// is confined to the old block footprint: reset it, re-close the
  /// fixpoint from the remaining faults, re-derive activation and the
  /// region lists inside it. Returns the delta with the footprint as the
  /// dirty extent.
  EventDelta remove_fault(mesh::Coord node);

  [[nodiscard]] const grid::CellSet& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] const grid::NodeGrid<Safety>& safety() const noexcept {
    return safety_;
  }
  [[nodiscard]] const grid::NodeGrid<Activation>& activation() const noexcept {
    return activation_;
  }
  /// The faulty blocks in from-scratch extraction order (what
  /// `run_pipeline` returns). A view materialized from the slot map on the
  /// first call after an event and cached until the next one: O(blocks +
  /// their cells), meant for the oracle, digests and tests — the serving
  /// path reads `block_order()` / `block_records()` instead.
  [[nodiscard]] const std::vector<FaultyBlock>& blocks() const;
  /// The disabled regions in from-scratch order, `parent_block` indexing
  /// `blocks()`. Materialized and cached like `blocks()`.
  [[nodiscard]] const std::vector<DisabledRegion>& regions() const;
  /// Per-cell region key: the minimum row-major node index of the disabled
  /// region containing the cell, or -1 for cells outside every region. The
  /// key identifies a region stably across events that renumber the
  /// `regions()` vector without touching the region itself — the property
  /// copy-on-write snapshot pages rely on.
  [[nodiscard]] const grid::NodeGrid<std::int32_t>& region_keys()
      const noexcept {
    return region_key_;
  }

  /// Live blocks / regions sorted by key: entry r is `blocks()[r]` /
  /// `regions()[r]`.
  [[nodiscard]] const std::vector<OrderEntry>& block_order() const noexcept {
    return block_order_;
  }
  [[nodiscard]] const std::vector<OrderEntry>& region_order() const noexcept {
    return region_order_;
  }
  /// Block records by slot. Each record is immutable while it lives.
  [[nodiscard]] const SlotTable<FaultyBlock>& block_records() const noexcept {
    return block_records_;
  }
  /// Region records by slot. A record's `parent_block` holds its parent
  /// block's key (stable while both live), not an index: `order_rank` over
  /// `block_order()` turns it into the `regions()` view's index.
  [[nodiscard]] const SlotTable<DisabledRegion>& region_records()
      const noexcept {
    return region_records_;
  }

 private:
  /// Adopts `labeled`, the from-scratch labeling of `faults`: moves its
  /// planes in and its blocks and regions into the slot tables.
  MaintainedLabeling(grid::CellSet& faults, PipelineResult labeled,
                     SafeUnsafeDef def);
  /// Re-derives activation, blocks and regions inside `area` (an affected
  /// unsafe component or a repaired block footprint), retires the records
  /// the area absorbed and stores the re-extracted ones. Appends `area` to
  /// `delta`.
  void rebuild_area(std::vector<mesh::Coord> area, EventDelta& delta);
  /// The 4-connected unsafe component around the unsafe `node`.
  std::vector<mesh::Coord> unsafe_component(mesh::Coord node);

  SafeUnsafeDef def_;
  grid::CellSet faults_;
  grid::NodeGrid<Safety> safety_;
  grid::NodeGrid<Activation> activation_;
  /// Key of the block containing each unsafe cell, -1 elsewhere.
  grid::NodeGrid<std::int32_t> block_key_;
  /// Stable region key per disabled cell (see `region_keys()`).
  grid::NodeGrid<std::int32_t> region_key_;
  SlotTable<FaultyBlock> block_records_;
  SlotTable<DisabledRegion> region_records_;
  std::vector<OrderEntry> block_order_;
  std::vector<OrderEntry> region_order_;

  // The `blocks()` / `regions()` views, valid until the next event.
  mutable std::vector<FaultyBlock> blocks_view_;
  mutable std::vector<DisabledRegion> regions_view_;
  mutable bool blocks_view_valid_ = false;
  mutable bool regions_view_valid_ = false;

  // Per-event scratch, kept across events so the hot path allocates only
  // what it returns (the dirty-cell vector) and the records it builds.
  // `visit_scratch_` is a visited plane emptied again after each BFS; the
  // scratch CellSets hold an area's unsafe/disabled cells during
  // re-extraction and are emptied again cell by cell (never an O(mesh)
  // clear).
  grid::BitPlane visit_scratch_;
  std::vector<mesh::Coord> worklist_scratch_;
  grid::CellSet area_unsafe_scratch_;
  grid::CellSet area_disabled_scratch_;
  grid::ComponentScratch component_scratch_;
  std::vector<Activation> old_act_scratch_;
  std::vector<std::int32_t> retired_scratch_;
};

}  // namespace ocp::labeling
