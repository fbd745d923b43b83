#include "svc/shard.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace ocp::svc {

namespace {

/// Clamped, remainder-front-loaded split of `tiles` tile-slots into
/// `want` contiguous chunks; fills `assign[tile] = chunk`.
std::int32_t split_axis(std::int32_t tiles, std::int32_t want,
                        std::vector<std::uint32_t>& assign) {
  const std::int32_t chunks = std::clamp(want, std::int32_t{1}, tiles);
  assign.resize(static_cast<std::size_t>(tiles));
  const std::int32_t base = tiles / chunks;
  const std::int32_t extra = tiles % chunks;
  std::int32_t tile = 0;
  for (std::int32_t chunk = 0; chunk < chunks; ++chunk) {
    const std::int32_t len = base + (chunk < extra ? 1 : 0);
    for (std::int32_t i = 0; i < len; ++i) {
      assign[static_cast<std::size_t>(tile++)] =
          static_cast<std::uint32_t>(chunk);
    }
  }
  return chunks;
}

IngestConfig with_collection(IngestConfig config) {
  config.collect_applied = true;
  return config;
}

/// The extent of a shard's halo bookkeeping: the whole machine, or a single
/// cell in a one-shard grid, where nothing is ever exchanged.
mesh::Mesh2D bookkeeping_extent(const ShardGrid& grid) {
  return grid.count() == 1 ? mesh::Mesh2D(1, 1) : grid.machine();
}

}  // namespace

ShardGrid::ShardGrid(const mesh::Mesh2D& m, std::int32_t rows,
                     std::int32_t cols)
    : tiles_(m) {
  rows_ = split_axis(tiles_.tiles_y(), rows, shard_row_of_tile_row_);
  cols_ = split_axis(tiles_.tiles_x(), cols, shard_col_of_tile_col_);
  if (rows_ * cols_ > kMaxShards) {
    throw std::invalid_argument(
        "ShardGrid: " + std::to_string(rows_) + "x" + std::to_string(cols_) +
        " shards exceed the cap of " + std::to_string(kMaxShards));
  }
}

Shard::Shard(std::uint32_t index, const ShardGrid& grid, grid::CellSet initial,
             IngestConfig config)
    : index_(index),
      grid_(&grid),
      engine_(std::move(initial),
              grid.count() == 1 ? std::move(config)
                                : with_collection(std::move(config))),
      versions_(bookkeeping_extent(grid), 0),
      heard_faults_(grid.count() == 1 ? grid::CellSet(versions_.topology())
                                      : engine_.labeling().faults()),
      told_(versions_.topology(), 0) {
  if (grid.count() == 1) return;
  // Every replica starts out knowing the initial faults.
  const auto everyone = static_cast<std::uint16_t>((1u << grid.count()) - 1);
  heard_faults_.for_each([&](mesh::Coord c) { told_[c] = everyone; });
}

Shard::ApplyResult Shard::apply(std::span<const FaultEvent> external,
                                std::span<const HaloDelta> halo) {
  ApplyResult result;
  if (grid_->count() == 1) {
    // No other shard to tell (and none to hear from): the batch goes to
    // the engine as is — no extent walk, version stamps or told_
    // bookkeeping.
    result.outcome = engine_.apply(external);
    if (result.outcome.crashed) {
      result.interrupted.assign(external.begin(), external.end());
    }
    return result;
  }
  batch_scratch_.clear();
  for (const FaultEvent& event : external) {
    // A foreign cell in the queue is a halo-derived event requeued by a
    // crash. A delta adopted since may have superseded it, and it would
    // run after that delta's event if the replay spans several batches:
    // assert the newest state heard for the cell instead.
    if (grid_->machine().contains(event.node) &&
        !grid_->owns(index_, event.node)) {
      batch_scratch_.push_back({heard_faults_.contains(event.node)
                                    ? EventKind::Fault
                                    : EventKind::Repair,
                                event.node});
    } else {
      batch_scratch_.push_back(event);
    }
  }
  for (const HaloDelta& delta : halo) {
    for (const HaloCellState& state : delta.states) {
      if (grid_->owns(index_, state.cell)) {
        continue;  // single authority on owned cells: gossip never wins
      }
      std::uint64_t& stored = versions_[state.cell];
      if (state.version <= stored) continue;
      stored = state.version;
      if (state.faulty) {
        heard_faults_.insert(state.cell);
      } else {
        heard_faults_.erase(state.cell);
      }
      // Queue the flip unconditionally: an earlier delta in this same batch
      // may hold the opposite state for this cell, pending in the scratch
      // but not yet applied, so the engine's labeling alone cannot tell
      // whether this state is news. The batch coalescer keeps the last
      // event per cell and drops already-satisfied states, so a redundant
      // event costs nothing — whereas skipping a genuine flip here is
      // permanent: the version gate would reject every re-delivery.
      batch_scratch_.push_back(
          {state.faulty ? EventKind::Fault : EventKind::Repair, state.cell});
      ++result.halo_events;
    }
  }
  // Nothing new: only a bare call (no events, no deltas — the publish-retry
  // nudge) re-attempts a withheld publication.
  if (batch_scratch_.empty() &&
      (!halo.empty() || engine_.stale_epochs_pending() == 0)) {
    result.outcome.epoch = engine_.snapshot()->epoch();
    return result;
  }

  result.outcome = engine_.apply(batch_scratch_);
  if (result.outcome.crashed) {
    result.interrupted = batch_scratch_;
    return result;
  }

  // Stamp the owned cells this batch flipped: these are the states the rest
  // of the fleet must be willing to adopt over anything older.
  for (const FaultEvent& event : result.outcome.applied_events) {
    if (grid_->owns(index_, event.node)) {
      versions_[event.node] = ++version_counter_;
    }
  }

  if (result.outcome.dirty_cells.empty()) return result;

  // Dedupe the extent and find which foreign shards it touches.
  extent_scratch_ = result.outcome.dirty_cells;
  const mesh::Mesh2D& m = grid_->machine();
  std::sort(extent_scratch_.begin(), extent_scratch_.end(),
            [&m](mesh::Coord a, mesh::Coord b) {
              return m.index(a) < m.index(b);
            });
  extent_scratch_.erase(
      std::unique(extent_scratch_.begin(), extent_scratch_.end()),
      extent_scratch_.end());
  // The extent is the merged unsafe component — faulty and unsafe cells
  // only, so on a replica that has not yet heard the foreign half of a
  // seam-spanning block it never *contains* foreign cells. The boundary
  // test therefore also walks each dirty cell's mesh neighbors (which
  // follows torus wrap links): a component one hop from foreign territory
  // can change labels there, so its owner must hear about it.
  std::vector<std::uint32_t> targets;
  const auto add_owner = [&](mesh::Coord c) {
    const std::uint32_t owner = grid_->shard_of(c);
    if (owner != index_ &&
        std::find(targets.begin(), targets.end(), owner) == targets.end()) {
      targets.push_back(owner);
    }
  };
  // Replicas that were told about an extent cell before hear about it
  // again, even when the new extent no longer reaches their territory:
  // a fault they were told of and never see repaired would stay in their
  // labeling and could later merge into a component they own cells of.
  std::uint32_t told = 0;
  for (const mesh::Coord c : extent_scratch_) {
    add_owner(c);
    for (const mesh::Link& l : m.neighbors(c)) add_owner(l.to);
    told |= told_[c];
  }
  for (std::uint32_t s = 0; s < grid_->count(); ++s) {
    if (s != index_ && ((told >> s) & 1u) != 0 &&
        std::find(targets.begin(), targets.end(), s) == targets.end()) {
      targets.push_back(s);
    }
  }
  if (targets.empty()) return result;
  std::sort(targets.begin(), targets.end());
  std::uint32_t audience = 0;
  for (const std::uint32_t target : targets) audience |= 1u << target;
  for (const mesh::Coord c : extent_scratch_) {
    told_[c] = static_cast<std::uint16_t>(told_[c] | audience);
  }

  // Every touched neighbor gets the whole extent (see header: a receiver
  // needs the full component, including third-party cells, to relabel a
  // seam-spanning region identically).
  HaloDelta delta;
  delta.source = index_;
  delta.states.reserve(extent_scratch_.size());
  const grid::CellSet& faults = engine_.labeling().faults();
  for (const mesh::Coord c : extent_scratch_) {
    delta.states.push_back({c, faults.contains(c), versions_[c]});
  }
  result.outgoing.reserve(targets.size());
  for (const std::uint32_t target : targets) {
    result.outgoing.emplace_back(target, delta);
  }
  return result;
}

std::uint64_t composite_label_digest(
    const ShardGrid& grid,
    const std::vector<std::shared_ptr<const Snapshot>>& snapshots) {
  // One shard owns every cell: its own digest is the composite.
  if (grid.count() == 1) return snapshots[0]->label_digest();
  // Blocks and regions are collected from each shard only when they
  // intersect its OWNED cells (ghost areas of a replica may hold stale
  // structure for components the shard never hears about) and deduped by
  // min-cell-index: a seam-spanning entry is extracted identically by every
  // owner — same converged fault knowledge, same deterministic extraction —
  // so duplicates collapse to one key. Min-cell-index is also the key order
  // the single writer keeps its regions in.
  const mesh::Mesh2D& m = grid.machine();
  const std::size_t n = static_cast<std::size_t>(m.node_count());
  std::map<std::size_t, std::uint8_t> block_keys;
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> regions;
  for (std::uint32_t s = 0; s < grid.count(); ++s) {
    const Snapshot& snap = *snapshots[s];
    for (const labeling::FaultyBlock& block : snap.blocks()) {
      std::size_t key = n;
      bool owned = false;
      for (const mesh::Coord c : block.component.cells()) {
        key = std::min(key, m.index(c));
        owned = owned || grid.owns(s, c);
      }
      if (owned) block_keys.emplace(key, 0);
    }
    for (const labeling::DisabledRegion& region : snap.regions()) {
      std::size_t key = n;
      bool owned = false;
      for (const mesh::Coord c : region.component.cells()) {
        key = std::min(key, m.index(c));
        owned = owned || grid.owns(s, c);
      }
      if (owned) {
        regions.emplace(key, std::pair(region.size(), region.fault_count));
      }
    }
  }
  // Each node's planes are read from its owning shard.
  return fold_label_digest(
      m,
      [&](mesh::Coord c, std::size_t i) {
        const Snapshot& snap = *snapshots[grid.shard_of(c)];
        return label_bits(snap.faults().contains(c), snap.safety().at_index(i),
                          snap.activation().at_index(i));
      },
      block_keys.size(), regions.size(), [&regions](auto&& fold) {
        for (const auto& [key, entry] : regions) {
          fold(entry.first, entry.second);
        }
      });
}

}  // namespace ocp::svc
