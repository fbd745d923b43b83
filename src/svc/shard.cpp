#include "svc/shard.hpp"

#include <algorithm>

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

}  // namespace

ShardGrid::ShardGrid(const mesh::Mesh2D& m, std::int32_t rows,
                     std::int32_t cols)
    : tiles_(m) {
  // Clamp the total to 16 shards (acquire-slot capacity): shrink the larger
  // axis first — it has the most slack — until the product fits.
  rows = std::clamp(rows, std::int32_t{1}, tiles_.tiles_y());
  cols = std::clamp(cols, std::int32_t{1}, tiles_.tiles_x());
  while (rows * cols > 16) {
    (rows >= cols ? rows : cols) -= 1;
  }
  rows_ = split_axis(tiles_.tiles_y(), rows, shard_row_of_tile_row_);
  cols_ = split_axis(tiles_.tiles_x(), cols, shard_col_of_tile_col_);
}

Shard::Shard(std::uint32_t index, const ShardGrid& grid, grid::CellSet initial,
             IngestConfig config)
    : index_(index),
      grid_(&grid),
      engine_(std::move(initial), with_collection(std::move(config))),
      versions_(grid.machine(), 0),
      heard_faults_(engine_.labeling().faults()),
      told_(grid.machine(), 0) {
  // Every replica starts out knowing the initial faults.
  const auto everyone = static_cast<std::uint16_t>((1u << grid.count()) - 1);
  heard_faults_.for_each([&](mesh::Coord c) { told_[c] = everyone; });
}

Shard::ApplyResult Shard::apply(std::span<const FaultEvent> external,
                                std::span<const HaloDelta> halo) {
  ApplyResult result;
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
  if (batch_scratch_.empty() &&
      engine_.stale_epochs_pending() == 0) {
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

}  // namespace ocp::svc
