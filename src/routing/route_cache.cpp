#include "routing/route_cache.hpp"

#include <cassert>
#include <mutex>
#include <utility>

namespace ocp::routing {

namespace {

std::uint64_t pair_key(const mesh::Mesh2D& m, mesh::Coord src,
                       mesh::Coord dst) {
  return static_cast<std::uint64_t>(m.index(src)) *
             static_cast<std::uint64_t>(m.node_count()) +
         static_cast<std::uint64_t>(m.index(dst));
}

}  // namespace

std::size_t RouteCache::Index::home(std::uint64_t key) const noexcept {
  // Fibonacci hashing: pair keys of nearby nodes differ in low bits only.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t RouteCache::Index::position(std::uint64_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].entry && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

const std::shared_ptr<const RouteCache::Entry>* RouteCache::Index::find(
    std::uint64_t key) const noexcept {
  if (size_ == 0) return nullptr;
  const Slot& s = slots_[position(key)];
  return s.entry ? &s.entry : nullptr;
}

void RouteCache::Index::reserve(std::size_t n) {
  std::size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  if (n == 0 || capacity <= slots_.size()) return;
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  size_ = 0;
  for (Slot& s : old) {
    if (s.entry) assign(s.key, std::move(s.entry));
  }
}

void RouteCache::Index::assign(std::uint64_t key,
                               std::shared_ptr<const Entry> entry) {
  if (2 * (size_ + 1) > slots_.size()) reserve(size_ + 1);
  Slot& s = slots_[position(key)];
  if (!s.entry) {
    s.key = key;
    ++size_;
  }
  s.entry = std::move(entry);
}

const Route& RouteCache::lookup(mesh::Coord src, mesh::Coord dst) const {
  const std::uint64_t key = pair_key(mesh_, src, dst);
  {
    shared_locks_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(mutex_);
    if (const auto* e = index_.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Stable until clear(): the index owns the entry until the next
      // invalidation, and entries never move.
      return (*e)->route;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return miss(key, src, dst)->route;
}

std::shared_ptr<const Route> RouteCache::lookup_shared(mesh::Coord src,
                                                       mesh::Coord dst) const {
  const std::uint64_t key = pair_key(mesh_, src, dst);
  {
    shared_locks_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(mutex_);
    if (const auto* e = index_.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Aliasing handle: shares the entry's control block, so a hit never
      // allocates and the route lives as long as the handle.
      return {*e, &(*e)->route};
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Entry> e = miss(key, src, dst);
  const Route* route = &e->route;
  return {std::move(e), route};
}

std::shared_ptr<const RouteCache::Entry> RouteCache::miss(
    std::uint64_t key, mesh::Coord src, mesh::Coord dst) const {
  // Route outside any lock (wall-following can be slow); insertion races
  // are benign because both threads computed the identical route.
  auto fresh = std::make_shared<Entry>();
  fresh->route = router_->route(src, dst);
  fresh->tiles = footprint(fresh->route, src, dst);

  exclusive_locks_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  if (const auto* e = index_.find(key)) return *e;
  index_.assign(key, fresh);
  return fresh;
}

std::uint64_t RouteCache::footprint(const Route& route, mesh::Coord src,
                                    mesh::Coord dst) const {
  // Everything the router can have probed: it consults the blocked set only
  // at the endpoints and at 4-neighbors of cells it visited, and every
  // visited cell is on the recorded path.
  std::uint64_t bits = 0;
  if (mesh_.contains(src)) bits |= tiles_.padded_bits(src);
  if (mesh_.contains(dst)) bits |= tiles_.padded_bits(dst);
  for (const mesh::Coord c : route.path) bits |= tiles_.padded_bits(c);
  return bits;
}

void RouteCache::clear() {
  // Swap the index out under the lock, destroy it outside: shared handles
  // from lookup_shared and successor caches may co-own the entries, and
  // route destruction should not run under the cache mutex.
  Index retired;
  {
    std::unique_lock lock(mutex_);
    std::swap(retired, index_);
    generation_.fetch_add(1, std::memory_order_release);
  }
}

RouteCache::AdoptStats RouteCache::adopt(const RouteCache& prev,
                                         std::uint64_t dirty_tiles) {
  assert(&prev != this && "a cache cannot adopt itself");
  AdoptStats stats;
  // `prev` may still be serving: concurrent misses insert under its
  // exclusive lock, so holding its shared lock freezes the index for the
  // whole pass. Lock order (prev shared, then self exclusive) is safe
  // because adoption only ever flows old epoch -> new epoch.
  std::shared_lock prev_lock(prev.mutex_);
  std::unique_lock lock(mutex_);
  index_.reserve(index_.size() + prev.index_.size());
  prev.index_.for_each(
      [&](std::uint64_t key, const std::shared_ptr<const Entry>& entry) {
        if ((entry->tiles & dirty_tiles) != 0) {
          ++stats.invalidated;
          return;
        }
        index_.assign(key, entry);
        ++stats.carried;
      });
  return stats;
}

std::size_t RouteCache::size() const {
  std::shared_lock lock(mutex_);
  return index_.size();
}

}  // namespace ocp::routing
