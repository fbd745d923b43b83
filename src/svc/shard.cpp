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
  // Mirrors Snapshot::label_digest bit for bit: same FNV-1a constants, same
  // fold order — per-cell planes row-major (each cell read from its owning
  // shard), then block count, then region count, then (size, fault_count)
  // per region in min-cell-index order (the order the single-writer
  // maintains its regions() vector in).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const mesh::Mesh2D& m = grid.machine();
  const std::size_t n = static_cast<std::size_t>(m.node_count());
  for (std::size_t i = 0; i < n; ++i) {
    const mesh::Coord c = m.coord(i);
    const Snapshot& snap = *snapshots[grid.shard_of(c)];
    std::uint64_t v = snap.faults().contains(c) ? 4u : 0u;
    v |= snap.safety().at_index(i) == labeling::Safety::Unsafe ? 2u : 0u;
    v |= snap.activation().at_index(i) == labeling::Activation::Disabled ? 1u
                                                                         : 0u;
    mix(v + 1);
  }
  // Blocks and regions are collected from each shard only when they
  // intersect its OWNED cells (ghost areas of a replica may hold stale
  // structure for components the shard never hears about) and deduped by
  // min-cell-index: a seam-spanning entry is extracted identically by every
  // owner — same converged fault knowledge, same deterministic extraction —
  // so duplicates collapse to one key.
  std::map<std::size_t, std::uint8_t> block_keys;
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> regions;
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
        regions.emplace(
            key, std::make_pair(static_cast<std::uint64_t>(region.size()),
                                static_cast<std::uint64_t>(region.fault_count)));
      }
    }
  }
  mix(block_keys.size());
  mix(regions.size());
  for (const auto& [key, entry] : regions) {
    mix(entry.first);
    mix(entry.second);
  }
  return h;
}

ShardedRoundsResult run_sharded_rounds(const ShardGrid& grid,
                                       const grid::CellSet& initial,
                                       std::span<const FaultEvent> stream,
                                       std::size_t max_batch,
                                       IngestConfig config) {
  const std::uint32_t count = grid.count();
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    shards.push_back(std::make_unique<Shard>(s, grid, initial, config));
  }

  const mesh::Mesh2D& m = grid.machine();
  std::vector<std::vector<FaultEvent>> backlog(count);
  for (const FaultEvent& event : stream) {
    const std::uint32_t target =
        m.contains(event.node) ? grid.shard_of(event.node) : 0;
    backlog[target].push_back(event);
  }

  std::vector<std::size_t> cursor(count, 0);
  std::vector<std::vector<HaloDelta>> inbox(count);
  std::vector<std::vector<HaloDelta>> next_inbox(count);
  std::vector<Shard::ApplyResult> results(count);
  ShardedRoundsResult out;
  for (;;) {
    bool pending = false;
    for (std::uint32_t s = 0; s < count; ++s) {
      if (cursor[s] < backlog[s].size() || !inbox[s].empty()) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    ++out.rounds;

    // Parallel section (serial at one shard): shards touch disjoint state
    // (their own engine, their own inbox slice); results land in per-shard
    // slots. Identical for any thread count.
    const auto shard_count = static_cast<std::int64_t>(count);
#ifdef OCP_HAVE_OPENMP
#pragma omp parallel for schedule(static) if (count > 1)
#endif
    for (std::int64_t s = 0; s < shard_count; ++s) {
      const auto idx = static_cast<std::size_t>(s);
      const std::size_t take =
          std::min(max_batch, backlog[idx].size() - cursor[idx]);
      const std::span<const FaultEvent> external(
          backlog[idx].data() + cursor[idx], take);
      results[idx] = shards[idx]->apply(external, inbox[idx]);
      cursor[idx] += take;
    }

    // Serial delta routing in ascending shard order: the inter-round
    // delivery order — and with it every downstream batch — is fixed.
    for (std::uint32_t s = 0; s < count; ++s) {
      Shard::ApplyResult& result = results[s];
      // Attribute applies to the external stream vs gossip; a halo-derived
      // event can itself coalesce away, so clamp instead of underflowing.
      const std::size_t halo_share =
          std::min(result.halo_events, result.outcome.applied);
      out.applied += result.outcome.applied - halo_share;
      out.halo_events += result.halo_events;
      for (auto& [target, delta] : result.outgoing) {
        next_inbox[target].push_back(std::move(delta));
        ++out.halo_deltas;
      }
      result = {};
    }
    for (std::uint32_t s = 0; s < count; ++s) {
      inbox[s] = std::move(next_inbox[s]);
      next_inbox[s].clear();
    }
  }

  out.snapshots.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    out.snapshots.push_back(shards[s]->engine().snapshot());
  }
  out.composite_digest = composite_label_digest(grid, out.snapshots);
  return out;
}

}  // namespace ocp::svc
