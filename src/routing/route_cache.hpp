// Lazy per-(src, dst) route memoization.
//
// The routers are pure functions of (src, dst) for a fixed machine and
// blocked set, so steady-state traffic generation — which keeps asking for
// routes between the same usable endpoints — can be a table lookup instead
// of a fresh wall-following traversal per packet. The cache fills lazily:
// only pairs that are actually requested are ever routed, which keeps the
// footprint proportional to observed traffic rather than node_count².
//
// Each entry is an immutable, refcounted record (`shared_ptr<const Entry>`)
// indexed by a flat open-addressing table, and it records the tile
// footprint its computation consulted — the tiles of every path cell plus
// their 4-neighborhoods (see grid::TileGrid). A successor cache serving a
// changed blocked set can `adopt()` every entry whose footprint misses the
// dirty tiles: those routes are provably identical under the new blocked
// set, because the router only ever probes blocked cells inside the
// footprint. Adoption shares the entry rather than copying it (one refcount
// bump and one index slot per carried route), so a route carried across
// many epochs is one object, and retiring a cache frees only its index and
// the entries no other cache still holds. Shared lookups hand out aliasing
// handles to the entry, which outlive every cache that held it.
//
// Thread-safe: the parallel load-sweep driver (netsim/load_sweep) shares one
// cache across all (load, seed) trials of a sweep, since every trial sees
// the same machine, blocked set and router. Determinism is unaffected —
// routing is deterministic, so the cached route equals the recomputed one
// regardless of which trial populated the entry first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "grid/tiles.hpp"
#include "routing/router.hpp"

namespace ocp::routing {

class RouteCache {
 public:
  RouteCache(const Router& router, const mesh::Mesh2D& machine)
      : router_(&router), mesh_(machine), tiles_(machine) {}

  /// The route src -> dst, computed on first request and remembered. The
  /// returned reference stays valid until `clear()` retires the entry (or
  /// the cache is destroyed); callers that outlive an invalidation epoch
  /// must use `lookup_shared`.
  [[nodiscard]] const Route& lookup(mesh::Coord src, mesh::Coord dst) const;

  /// Like `lookup`, but the returned handle owns the route's entry: it
  /// stays valid across a concurrent `clear()` and after this cache and
  /// every cache that carried the entry are gone. The handle aliases the
  /// entry (no per-lookup allocation).
  [[nodiscard]] std::shared_ptr<const Route> lookup_shared(
      mesh::Coord src, mesh::Coord dst) const;

  /// Retires every memoized route and advances the generation counter.
  /// Used at epoch rollover: when the blocked set (and hence the router's
  /// answers) changes, stale routes must not survive. Safe to call
  /// concurrently with `lookup_shared`; routes handed out earlier stay
  /// alive through their shared handles.
  void clear();

  /// What `adopt` did: entries shared into this cache vs dropped because
  /// their footprint intersected the dirty tiles.
  struct AdoptStats {
    std::size_t carried = 0;
    std::size_t invalidated = 0;
  };

  /// Carries `prev`'s entries over to this cache, dropping every entry
  /// whose tile footprint intersects `dirty_tiles` (a grid::TileGrid
  /// bitmask over the shared machine). Sound when the blocked sets backing
  /// the two caches differ only inside the dirty tiles: a surviving route
  /// never probed a changed cell, so recomputing it would yield the same
  /// answer. A carried entry is shared, not copied: both caches serve the
  /// same immutable object. Safe against concurrent lookups on `prev`
  /// (which may still be serving); `prev` must not be this cache.
  AdoptStats adopt(const RouteCache& prev, std::uint64_t dirty_tiles);

  /// Monotonically increasing invalidation epoch: 0 at construction,
  /// +1 per `clear()`.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Number of distinct (src, dst) pairs routed so far.
  [[nodiscard]] std::size_t size() const;

  /// Lookups answered from the table / lookups that ran the router. When
  /// two threads miss the same key concurrently both count a miss (both
  /// ran the router), so hits + misses == lookups but misses can exceed
  /// size(). Adopted entries count as hits when first re-requested.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Mutex acquisitions on the lookup paths since construction: shared
  /// (reader side — one per lookup) and exclusive (miss insertion). These
  /// are the cache's per-query shared-state touches; the serving layer
  /// exports them so contention on the reader lock is attributable when a
  /// closed-loop curve goes flat.
  [[nodiscard]] std::uint64_t shared_lock_acquisitions() const noexcept {
    return shared_locks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t exclusive_lock_acquisitions() const noexcept {
    return exclusive_locks_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Route route;
    /// Tiles this route's computation may have probed (path cells and
    /// their neighborhoods, plus both endpoints).
    std::uint64_t tiles = 0;
  };
  /// Pair key -> shared entry: linear probing over a power-of-two slot
  /// array kept at most half full. Entries live on the heap, so growing the
  /// index never moves a route a `lookup` reference points at.
  class Index {
   public:
    /// The entry under `key`, or nullptr.
    [[nodiscard]] const std::shared_ptr<const Entry>* find(
        std::uint64_t key) const noexcept;
    /// Inserts or replaces the entry under `key`.
    void assign(std::uint64_t key, std::shared_ptr<const Entry> entry);
    /// Makes room for `n` entries without regrowing.
    void reserve(std::size_t n);
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// Calls `fn(key, entry)` for every stored entry.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Slot& s : slots_) {
        if (s.entry) fn(s.key, s.entry);
      }
    }

   private:
    struct Slot {
      std::uint64_t key = 0;
      std::shared_ptr<const Entry> entry;  // null: empty slot
    };
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
    /// The slot holding `key`, else the empty slot ending its probe run.
    /// Precondition: slots_ is not empty.
    [[nodiscard]] std::size_t position(std::uint64_t key) const noexcept;

    std::vector<Slot> slots_;
    std::uint32_t shift_ = 64;  // 64 - log2(slots_.size())
    std::size_t size_ = 0;
  };

  /// Slow path: routes src -> dst, inserts (or finds a racing insertion)
  /// and returns the stored entry.
  std::shared_ptr<const Entry> miss(std::uint64_t key, mesh::Coord src,
                                    mesh::Coord dst) const;
  [[nodiscard]] std::uint64_t footprint(const Route& route, mesh::Coord src,
                                        mesh::Coord dst) const;

  const Router* router_;  // non-owning
  mesh::Mesh2D mesh_;
  grid::TileGrid tiles_;
  mutable std::shared_mutex mutex_;
  mutable Index index_;
  std::atomic<std::uint64_t> generation_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> shared_locks_{0};
  mutable std::atomic<std::uint64_t> exclusive_locks_{0};
};

}  // namespace ocp::routing
