// The immutable serving artifact of the query runtime (src/svc).
//
// A `Snapshot` freezes one epoch of the labeled machine. What it holds is
// what queries need at serving speed:
//  * a paged per-node status plane — O(1) "what is this node", doubling as
//    the blocked set a `FaultRingRouter` reads (a node is blocked iff its
//    status is not Enabled);
//  * a paged per-node region-key plane plus copies of the maintained
//    labeling's sorted (key, slot) order arrays — "which disabled region am
//    I in" is a page read and an O(log R) rank lookup, and so is the
//    region's parent block;
//  * frozen copy-on-write tables of the block and region records, shared
//    with the labeling and with every other epoch that serves them;
//  * a per-epoch `routing::RouteCache` that memoizes routes lazily.
//
// Epoch turnover is copy-on-write and never O(mesh): `next()` rebuilds
// exactly the serving pages that hold a dirty cell, row by row from the
// labeling's flat planes, shares every other page (see pages.hpp), memcpys
// the two order arrays (8 bytes per block or region) and carries the
// predecessor's route cache by sharing its immutable entries, dropping only
// the ones whose footprint intersects the padded dirty tiles. Storage is
// paged finely (32x32 at most) while invalidation stays coarse (the <= 64
// tiles of grid::TileGrid), so an epoch costs O(dirty pages + carried
// routes) and retiring one frees only what it built. A region's key
// (the minimum row-major node index of its cells) is stable across events
// that renumber the `regions()` view without touching the region itself,
// which is what keeps pages of untouched regions shareable.
//
// The whole-machine views — `faults()`, `safety()`, `activation()`,
// `blocked()`, `blocks()` and `regions()` — are derived from the status
// pages and the record tables on first use and memoized under
// `std::call_once`, so concurrent first callers see one value. Only the
// oracle, digests, tests and crash recovery read them.
//
// Snapshots are published by the single-writer ingest loop through an
// RCU-style `shared_ptr` swap (see ingest.hpp): readers acquire a snapshot,
// answer any number of queries against perfectly consistent state, and drop
// it; old epochs die when their last reader releases them. Nothing in a
// snapshot changes after publication except the route cache's internal
// memo table and the memoized views, both thread-safe and invisible to
// results (routing is deterministic).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "check/oracle.hpp"
#include "core/maintenance.hpp"
#include "core/pipeline.hpp"
#include "routing/route_cache.hpp"
#include "stats/fnv.hpp"
#include "svc/pages.hpp"

namespace ocp::svc {

/// What a node is, as served to routers and schedulers. The three-valued
/// collapse of the paper's status lattice: consumers route through Enabled
/// nodes, detour around Disabled ones, and treat Faulty as dead hardware.
enum class NodeStatus : std::uint8_t {
  Enabled = 0,
  /// Nonfaulty but disabled — sacrificed to keep fault regions convex.
  Disabled = 1,
  Faulty = 2,
};

[[nodiscard]] constexpr const char* to_string(NodeStatus s) noexcept {
  switch (s) {
    case NodeStatus::Enabled: return "enabled";
    case NodeStatus::Disabled: return "disabled";
    case NodeStatus::Faulty: return "faulty";
  }
  return "?";
}

/// The disabled region containing a node, summarized without
/// materializing `Snapshot::regions()`.
struct RegionSummary {
  /// Index into `regions()`, -1 when the node is enabled.
  std::int32_t id = -1;
  std::size_t size = 0;
  std::size_t fault_count = 0;
  /// Index into `blocks()` of the region's parent faulty block.
  std::size_t parent_block = 0;
};

class Snapshot {
 public:
  /// Freezes the current state of a maintained labeling as epoch `epoch`.
  /// Every serving page is built fresh and the route cache starts cold.
  /// Must run on the labeling's writer thread.
  [[nodiscard]] static std::shared_ptr<const Snapshot> build(
      std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
      routing::Hand hand = routing::Hand::Right);

  /// Copy-on-write successor of `prev`: the serving pages in `dirty_pages`
  /// (page ids of `tiles()`) are rebuilt from `labeling`, every other page
  /// is shared with `prev`, and `prev`'s route cache is carried over minus
  /// the entries whose footprint intersects `padded_dirty_tiles` (the tiles
  /// of the dirty cells plus their neighborhoods — what a routing decision
  /// can have probed). Precondition: the labels outside the dirty pages are
  /// identical between `prev` and `labeling` — exactly what the maintained
  /// labeling's `EventDelta::dirty_cells` guarantees for the accumulated
  /// deltas since `prev` was built. Must run on the labeling's writer
  /// thread.
  [[nodiscard]] static std::shared_ptr<const Snapshot> next(
      const Snapshot& prev, std::uint64_t epoch,
      const labeling::MaintainedLabeling& labeling,
      const grid::PageSet& dirty_pages, std::uint64_t padded_dirty_tiles);

  /// Coarse-mask form of `next`: rebuilds every page of the tiles in
  /// `dirty_tiles` (a grid::TileGrid bitmask). Kept for callers that track
  /// dirt per tile; the page-set form rebuilds only pages with dirty cells.
  [[nodiscard]] static std::shared_ptr<const Snapshot> next(
      const Snapshot& prev, std::uint64_t epoch,
      const labeling::MaintainedLabeling& labeling,
      std::uint64_t dirty_tiles, std::uint64_t padded_dirty_tiles);

  /// Raw-component constructor; prefer `build`. Serves a from-scratch
  /// pipeline result without a maintained labeling, and lets tests
  /// assemble deliberately inconsistent snapshots to exercise `validate`'s
  /// rejection path. The given planes and lists are kept as they are.
  Snapshot(std::uint64_t epoch, grid::CellSet faults,
           grid::NodeGrid<labeling::Safety> safety,
           grid::NodeGrid<labeling::Activation> activation,
           std::vector<labeling::FaultyBlock> blocks,
           std::vector<labeling::DisabledRegion> regions, routing::Hand hand);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const mesh::Mesh2D& machine() const noexcept {
    return tiles_.machine();
  }

  // Whole-machine views, materialized on first call (O(mesh) or O(blocks
  // + cells) once per snapshot) and memoized; safe to call concurrently.
  [[nodiscard]] const grid::CellSet& faults() const;
  /// Union of the disabled regions (faulty and sacrificed nodes): what
  /// routing treats as impassable. Always equals the set of nodes whose
  /// `status_of` is not Enabled.
  [[nodiscard]] const grid::CellSet& blocked() const;
  [[nodiscard]] const grid::NodeGrid<labeling::Safety>& safety() const;
  [[nodiscard]] const grid::NodeGrid<labeling::Activation>& activation()
      const;
  /// Faulty blocks in from-scratch extraction order.
  [[nodiscard]] const std::vector<labeling::FaultyBlock>& blocks() const;
  /// Disabled regions in from-scratch order, `parent_block` indexing
  /// `blocks()`.
  [[nodiscard]] const std::vector<labeling::DisabledRegion>& regions() const;

  /// O(1) from the paged status plane. Precondition: machine().contains(c).
  [[nodiscard]] NodeStatus status_of(mesh::Coord c) const noexcept {
    return status_pages_.at(tiles_, c);
  }

  /// Index into `regions()` of the disabled region containing `c`, or -1
  /// when `c` is enabled. The paged region key, then an O(log R) rank
  /// lookup in the order array; never materializes `regions()`.
  [[nodiscard]] std::int32_t region_id_of(mesh::Coord c) const noexcept;

  /// The disabled region containing `c`, or nullptr when `c` is enabled:
  /// `&regions()[region_id_of(c)]`, so the first call materializes
  /// `regions()`. Serving paths use `region_summary`.
  [[nodiscard]] const labeling::DisabledRegion* region_of(
      mesh::Coord c) const;

  /// Id, size, fault count and parent block of the region containing `c`
  /// (id -1 when `c` is enabled). O(log R + log B), no materialization.
  [[nodiscard]] RegionSummary region_summary(mesh::Coord c) const noexcept;

  /// Route over enabled nodes, memoized in this epoch's cache. The
  /// reference is stable for the snapshot's lifetime (per-epoch caches are
  /// never cleared).
  [[nodiscard]] const routing::Route& route(mesh::Coord src,
                                            mesh::Coord dst) const {
    return cache_.lookup(src, dst);
  }

  [[nodiscard]] const routing::RouteCache& route_cache() const noexcept {
    return cache_;
  }

  /// The decomposition the serving pages (fine pages) and the cache
  /// footprints (coarse tiles) use.
  [[nodiscard]] const grid::TileGrid& tiles() const noexcept {
    return tiles_;
  }
  /// Serving pages rebuilt vs shared when this snapshot was created (a
  /// fresh `build` counts every page as copied).
  [[nodiscard]] const PageStats& page_stats() const noexcept {
    return page_stats_;
  }
  /// Route-cache entries carried from / invalidated against the
  /// predecessor (both zero for a fresh `build`).
  [[nodiscard]] const routing::RouteCache::AdoptStats& cache_carry_stats()
      const noexcept {
    return cache_carry_stats_;
  }
  /// Test hook: whether page `p`'s status and region-key pages are shared
  /// with `prev`'s.
  [[nodiscard]] bool shares_pages_with(const Snapshot& prev,
                                       std::uint32_t p) const noexcept {
    return status_pages_.shares_page_with(prev.status_pages_, p) &&
           region_key_pages_.shares_page_with(prev.region_key_pages_, p);
  }

  /// Runs the 16-check invariant oracle against this snapshot's labeling
  /// (convergence checks skip automatically: a snapshot carries no round
  /// statistics). The publish gate of the ingest loop.
  [[nodiscard]] check::ViolationReport validate(
      labeling::SafeUnsafeDef def,
      std::uint32_t checks = check::kAllChecks) const;

  /// FNV-1a digest over the fault/safety/activation planes and the region
  /// structure — the replay-identity fingerprint (epoch-independent).
  [[nodiscard]] std::uint64_t label_digest() const;

 private:
  /// The router's view of the blocked set: the status pages.
  struct BlockedByStatus {
    const Snapshot* snap;
    [[nodiscard]] bool contains(mesh::Coord c) const noexcept {
      return snap->machine().contains(c) &&
             snap->status_of(c) != NodeStatus::Enabled;
    }
  };

  /// Shared implementation of `build` (prev == nullptr: every page built,
  /// `dirty_pages` unread) and `next`.
  Snapshot(std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
           const Snapshot* prev, const grid::PageSet* dirty_pages,
           std::uint64_t padded_dirty_tiles, routing::Hand hand);
  /// Position in the region order of the region containing `c`, or
  /// `region_order_.size()` when `c` is enabled.
  [[nodiscard]] std::size_t region_rank(mesh::Coord c) const noexcept;
  /// Index into `regions()` of the region at order position `rank`.
  [[nodiscard]] std::int32_t region_id(std::size_t rank) const noexcept;
  /// The region at order position `rank` and its parent's index into
  /// `blocks()`.
  [[nodiscard]] const labeling::DisabledRegion& region_at(
      std::size_t rank) const noexcept;
  [[nodiscard]] std::size_t parent_index(
      const labeling::DisabledRegion& region) const noexcept;
  /// Calls `fn(cell, status)` for every node, row by row per page.
  template <typename Fn>
  void for_each_status(Fn&& fn) const;

  std::uint64_t epoch_;
  grid::TileGrid tiles_;
  routing::Hand hand_;
  PagedPlane<NodeStatus> status_pages_;
  PagedPlane<std::int32_t> region_key_pages_;
  /// Live blocks / regions sorted by key. For a snapshot of a maintained
  /// labeling, `slot` indexes the record tables below; for the raw
  /// constructor it indexes the given lists (`records_ == false`).
  std::vector<labeling::OrderEntry> block_order_;
  std::vector<labeling::OrderEntry> region_order_;
  bool records_ = false;
  labeling::SlotTable<labeling::FaultyBlock>::Frozen block_records_;
  labeling::SlotTable<labeling::DisabledRegion>::Frozen region_records_;
  BlockedByStatus blocked_by_status_{this};
  routing::BasicFaultRingRouter<BlockedByStatus> router_;
  mutable routing::RouteCache cache_;
  PageStats page_stats_;
  routing::RouteCache::AdoptStats cache_carry_stats_;

  // The whole-machine views: given to the raw constructor, otherwise
  // materialized on first use.
  mutable std::once_flag faults_once_, blocked_once_, safety_once_,
      activation_once_, blocks_once_, regions_once_;
  mutable std::optional<grid::CellSet> faults_;
  mutable std::optional<grid::CellSet> blocked_;
  mutable std::optional<grid::NodeGrid<labeling::Safety>> safety_;
  mutable std::optional<grid::NodeGrid<labeling::Activation>> activation_;
  mutable std::optional<std::vector<labeling::FaultyBlock>> blocks_;
  mutable std::optional<std::vector<labeling::DisabledRegion>> regions_;
};

/// A node's bits in the label digest: 4 if faulty, 2 if unsafe, 1 if
/// disabled.
[[nodiscard]] constexpr std::uint64_t label_bits(
    bool faulty, labeling::Safety safety,
    labeling::Activation activation) noexcept {
  return (faulty ? 4u : 0u) | (safety == labeling::Safety::Unsafe ? 2u : 0u) |
         (activation == labeling::Activation::Disabled ? 1u : 0u);
}

/// The label digest format, one fold for `Snapshot::label_digest` and the
/// shard fleet's `composite_label_digest` (shard.hpp): FNV-1a over every
/// node's `label_bits` plus one, row-major, then the block count, the
/// region count, and (size, fault count) per region in key order.
/// `cell_bits(c, i)` reads node `c` (row-major index `i`);
/// `for_each_region(fold)` calls `fold(size, fault_count)` per region in
/// key order.
template <typename CellBits, typename ForEachRegion>
[[nodiscard]] std::uint64_t fold_label_digest(const mesh::Mesh2D& m,
                                              CellBits&& cell_bits,
                                              std::size_t blocks,
                                              std::size_t regions,
                                              ForEachRegion&& for_each_region) {
  stats::Fnv1a h;
  std::size_t i = 0;
  for (std::int32_t y = 0; y < m.height(); ++y) {
    for (std::int32_t x = 0; x < m.width(); ++x) {
      h.mix(cell_bits(mesh::Coord{x, y}, i++) + 1);
    }
  }
  h.mix(blocks);
  h.mix(regions);
  for_each_region([&h](std::size_t size, std::size_t fault_count) {
    h.mix(size);
    h.mix(fault_count);
  });
  return h.value;
}

}  // namespace ocp::svc
