#include "netsim/wormhole.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace ocp::netsim {

namespace {

/// Direction of the hop a -> b on machine `m` (torus wrap resolved).
/// Decides from the coordinate delta — submit() calls this once per hop of
/// every packet, so probing all four neighbors would dominate batch setup.
mesh::Dir hop_direction(const mesh::Mesh2D& m, mesh::Coord a, mesh::Coord b) {
  if (m.contains(a) && m.contains(b)) {
    const std::int32_t dx = b.x - a.x;
    const std::int32_t dy = b.y - a.y;
    const bool torus = m.topology() == mesh::Topology::Torus;
    if (dy == 0 && dx != 0) {
      if (dx == 1) return mesh::Dir::East;
      if (dx == -1) return mesh::Dir::West;
      if (torus && dx == -(m.width() - 1)) return mesh::Dir::East;
      if (torus && dx == m.width() - 1) return mesh::Dir::West;
    } else if (dx == 0 && dy != 0) {
      if (dy == 1) return mesh::Dir::North;
      if (dy == -1) return mesh::Dir::South;
      if (torus && dy == -(m.height() - 1)) return mesh::Dir::North;
      if (torus && dy == m.height() - 1) return mesh::Dir::South;
    }
  }
  throw std::invalid_argument("PacketSpec path does not follow machine links");
}

}  // namespace

PacketSpec make_packet(const routing::Route& route, std::uint8_t num_vcs,
                       std::int32_t length_flits, std::int64_t inject_cycle) {
  PacketSpec spec;
  spec.path = route.path;
  spec.vcs.reserve(route.phase.size());
  for (std::uint8_t phase : route.phase) {
    spec.vcs.push_back(phase == 0 ? std::uint8_t{0}
                                  : static_cast<std::uint8_t>(num_vcs - 1));
  }
  spec.length_flits = length_flits;
  spec.inject_cycle = inject_cycle;
  return spec;
}

PacketSpec make_packet_class_based(const routing::Route& route,
                                   std::int32_t length_flits,
                                   std::int64_t inject_cycle) {
  PacketSpec spec;
  spec.path = route.path;
  std::uint8_t vc = 0;
  if (!route.path.empty()) {
    const mesh::Coord src = route.path.front();
    const mesh::Coord dst = route.path.back();
    if (dst.x > src.x) vc = 0;       // WE class
    else if (dst.x < src.x) vc = 1;  // EW class
    else if (dst.y > src.y) vc = 2;  // column-only, northbound
    else vc = 3;                     // column-only, southbound
  }
  spec.vcs.assign(route.phase.size(), vc);
  spec.length_flits = length_flits;
  spec.inject_cycle = inject_cycle;
  return spec;
}

WormholeSim::WormholeSim(const mesh::Mesh2D& machine, const SimConfig& config)
    : mesh_(machine), config_(config) {
  if (config.num_vcs == 0) {
    throw std::invalid_argument("num_vcs must be positive");
  }
  if (config.vc_buffer_flits <= 0) {
    throw std::invalid_argument("vc_buffer_flits must be positive");
  }
  owner_.assign(static_cast<std::size_t>(mesh_.node_count()) *
                    mesh::kNumDirs * config.num_vcs,
                -1);
  submit_mark_.assign(owner_.size(), 0);
}

std::size_t WormholeSim::channel_id(mesh::Coord from, mesh::Dir dir,
                                    std::uint8_t vc) const noexcept {
  return (mesh_.index(from) * mesh::kNumDirs +
          static_cast<std::size_t>(dir)) *
             config_.num_vcs +
         vc;
}

void WormholeSim::submit(PacketSpec spec) {
  if (spec.path.empty()) {
    throw std::invalid_argument("PacketSpec path must contain the source");
  }
  if (spec.length_flits < 1) {
    throw std::invalid_argument("PacketSpec needs at least one flit");
  }
  if (spec.vcs.size() + 1 != spec.path.size()) {
    throw std::invalid_argument("PacketSpec needs one vc per hop");
  }
  if (++submit_epoch_ == 0) {
    // Epoch counter wrapped (after ~4e9 submits): clear the marks so stale
    // entries cannot alias the new epoch.
    std::fill(submit_mark_.begin(), submit_mark_.end(), 0u);
    submit_epoch_ = 1;
  }
  Worm worm;
  worm.first_hop = static_cast<std::uint32_t>(channels_.size());
  worm.hops = static_cast<std::uint32_t>(spec.vcs.size());
  for (std::size_t i = 0; i + 1 < spec.path.size(); ++i) {
    if (spec.vcs[i] >= config_.num_vcs) {
      channels_.resize(worm.first_hop);
      throw std::invalid_argument("PacketSpec vc out of range");
    }
    const mesh::Dir dir = hop_direction(mesh_, spec.path[i], spec.path[i + 1]);
    const std::size_t ch = channel_id(spec.path[i], dir, spec.vcs[i]);
    if (submit_mark_[ch] == submit_epoch_) {
      // A worm that needs the same virtual channel twice can never make
      // progress past itself; reject instead of deadlocking silently.
      channels_.resize(worm.first_hop);
      throw std::invalid_argument(
          "PacketSpec revisits a virtual channel; route one packet per "
          "channel visit");
    }
    submit_mark_[ch] = submit_epoch_;
    channels_.push_back(static_cast<std::uint32_t>(ch));
  }
  occupancy_.resize(channels_.size(), 0);
  worm.flits_at_source = spec.length_flits;
  worm.length_flits = spec.length_flits;
  worm.inject_cycle = spec.inject_cycle;
  worms_.push_back(worm);
}

template <typename OnRelease>
bool WormholeSim::step_worm(std::size_t wi, OnRelease&& on_release) {
  Worm& worm = worms_[wi];
  const std::size_t hops = worm.hops;
  const auto self = static_cast<std::int32_t>(wi);
  const std::uint32_t* ch = channels_.data() + worm.first_hop;
  std::int32_t* occ = occupancy_.data() + worm.first_hop;
  bool moved = false;

  // Zero-hop worm: source and destination coincide; absorb directly.
  if (hops == 0) {
    ++worm.flits_absorbed;
    --worm.flits_at_source;
    ++flit_moves_;
    return true;
  }

  // 1. Destination ejection: once the head owns the final hop channel, one
  //    flit per cycle leaves the network.
  if (worm.head_hop == hops && occ[hops - 1] > 0) {
    --occ[hops - 1];
    ++worm.flits_absorbed;
    ++flit_moves_;
    moved = true;
  }

  // 2. Forward flits front-to-back so a hole created ahead is filled this
  //    cycle by the flit behind it (one hop per flit per cycle).
  //    Moving into the first unowned channel acquires it (head extension).
  for (std::size_t i = std::min<std::size_t>(worm.head_hop, hops - 1);
       i-- > worm.tail_hop;) {
    if (occ[i] == 0) continue;
    const std::size_t next = i + 1;
    if (next == worm.head_hop) {
      // Head flit requests the next virtual channel.
      if (owner_[ch[next]] == -1) {
        owner_[ch[next]] = self;
        ++worm.head_hop;
        --occ[i];
        ++occ[next];
        ++flit_moves_;
        moved = true;
      }
    } else if (occ[next] < config_.vc_buffer_flits) {
      --occ[i];
      ++occ[next];
      ++flit_moves_;
      moved = true;
    }
  }

  // 3. Source injection into the first hop channel.
  if (worm.flits_at_source > 0) {
    if (worm.head_hop == 0) {
      if (owner_[ch[0]] == -1) {
        owner_[ch[0]] = self;
        worm.head_hop = 1;
        ++occ[0];
        --worm.flits_at_source;
        ++flit_moves_;
        moved = true;
      }
    } else if (worm.tail_hop == 0 && occ[0] < config_.vc_buffer_flits) {
      ++occ[0];
      --worm.flits_at_source;
      ++flit_moves_;
      moved = true;
    }
  }

  // 4. Tail release: drained channels with nothing behind them free their
  //    virtual channel for other worms.
  while (worm.tail_hop < worm.head_hop && occ[worm.tail_hop] == 0 &&
         !(worm.tail_hop == 0 && worm.flits_at_source > 0)) {
    owner_[ch[worm.tail_hop]] = -1;
    on_release(static_cast<std::size_t>(ch[worm.tail_hop]));
    ++worm.tail_hop;
  }

  return moved;
}

SimResult WormholeSim::run() {
  const obs::Span run_span(config_.trace, "wormhole.run");
  flit_moves_ = 0;
  SimResult result = run_event();
  result.flit_moves = flit_moves_;
  return result;
}

// Event-driven kernel. Same cycle-by-cycle semantics as the sweep that steps
// every worm on every cycle in submission order (the test tree's reference,
// tests/support/wormhole_sweep.hpp), but only worms that can change state
// are stepped:
//
//  * A worm whose step makes no move is *parked* on the one virtual channel
//    whose release can unblock it — `channels[head_hop]` (a stalled worm is
//    always head-blocked: every other resource it needs is its own). Parked
//    steps are side-effect-free in the sweep, so skipping them is exact.
//  * When a worm releases a channel, all parked waiters wake: waiters with a
//    larger worm index rejoin the *current* cycle (the sweep steps them
//    after the releaser), smaller indices rejoin the next cycle (their no-op
//    step for this cycle already happened).
//  * Worms are stepped in ascending index order within a cycle (a bitmap
//    worklist scanned low to high; in-cycle wakes only ever set bits above
//    the cursor, which the scan picks up), so channel arbitration,
//    completion order and the latency accumulator see exactly the sweep's
//    sequence.
//  * When nothing is runnable the clock jumps: to the next injection while
//    scheduled worms remain (idle accounting is frozen while any worm still
//    waits on its inject cycle, as in the sweep), or straight to the
//    deadlock verdict / cycle cap when only parked worms remain.
SimResult WormholeSim::run_event() {
  SimResult result;
  const std::size_t n = worms_.size();
  result.packets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.packets[i].inject_cycle = worms_[i].inject_cycle;
  }
  if (n == 0) return result;

  // Per-channel wake lists, threaded through `wait_next` (a parked worm
  // waits on exactly one channel, so one link per worm suffices).
  std::vector<std::int32_t> wait_head(owner_.size(), -1);
  std::vector<std::int32_t> wait_next(n, -1);

  // Injection schedule: worm indices ordered by (inject_cycle, index).
  std::vector<std::uint32_t> by_inject(n);
  std::iota(by_inject.begin(), by_inject.end(), 0u);
  std::stable_sort(by_inject.begin(), by_inject.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return worms_[a].inject_cycle < worms_[b].inject_cycle;
                   });
  std::size_t next_inject = 0;

  // Current- and next-cycle worklists as bitmaps over worm indices. Every
  // worm is in exactly one place (a worklist, a wake list, scheduled, or
  // done), so sets never hit an already-set bit and the population counters
  // stay exact. A wake during the scan only ever targets an index above the
  // cursor, which the low-to-high scan picks up in the same pass.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> active(words, 0);
  std::vector<std::uint64_t> upcoming(words, 0);
  std::size_t active_count = 0;
  std::size_t upcoming_count = 0;
  const auto set_bit = [](std::vector<std::uint64_t>& bits, std::uint32_t i) {
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  };

  std::size_t remaining = n;
  std::int64_t idle_cycles = 0;
  std::int64_t now = 0;
  for (;;) {
    if (active_count == 0) {
      if (next_inject < n) {
        // Quiescent gap before the next injection: every skipped cycle has
        // a worm waiting on its schedule, so idle accounting is frozen.
        const std::int64_t target =
            worms_[by_inject[next_inject]].inject_cycle;
        if (target > now) {
          result.cycles_jumped += target - now;
          now = target;
        }
      } else {
        // Only parked worms remain; nothing can ever move again. The idle
        // counter grows by one per cycle until the deadlock verdict or the
        // cycle cap, whichever the sweep would reach first.
        const std::int64_t trigger =
            now + config_.deadlock_threshold - idle_cycles - 1;
        if (trigger < config_.max_cycles) {
          result.deadlocked = true;
          result.cycles = trigger + 1;
        } else {
          result.cycles = config_.max_cycles;
        }
        // Every cycle between `now` and the verdict was skipped, not run.
        result.cycles_jumped += std::max<std::int64_t>(0, result.cycles - now);
        result.stuck = remaining;
        return result;
      }
    }
    if (now >= config_.max_cycles) {
      result.cycles = config_.max_cycles;
      result.stuck = remaining;
      return result;
    }

    while (next_inject < n &&
           worms_[by_inject[next_inject]].inject_cycle <= now) {
      set_bit(active, by_inject[next_inject]);
      ++active_count;
      ++next_inject;
    }
    const bool waiting_on_schedule = next_inject < n;

    bool any_motion = false;
    for (std::size_t w = 0; w < words; ++w) {
      while (active[w] != 0) {
        const auto wi = static_cast<std::uint32_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(active[w])));
        active[w] &= active[w] - 1;
        --active_count;
        Worm& worm = worms_[wi];
        const bool moved = step_worm(wi, [&](std::size_t ch) {
          for (std::int32_t j = wait_head[ch]; j != -1;) {
            const auto waiter = static_cast<std::uint32_t>(j);
            const std::int32_t nxt = wait_next[waiter];
            wait_next[waiter] = -1;
            if (waiter > wi) {
              set_bit(active, waiter);
              ++active_count;
            } else {
              set_bit(upcoming, waiter);
              ++upcoming_count;
            }
            j = nxt;
          }
          wait_head[ch] = -1;
        });
        if (moved) {
          any_motion = true;
          if (worm.flits_absorbed == worm.length_flits) {
            worm.done = true;
            --remaining;
            result.packets[wi].delivered = true;
            result.packets[wi].finish_cycle = now;
            ++result.delivered;
            result.latency.add(
                static_cast<double>(result.packets[wi].latency()));
          } else {
            set_bit(upcoming, wi);
            ++upcoming_count;
          }
        } else {
          // Head-blocked: park until channels[head_hop] is released.
          const std::size_t ch = channels_[worm.first_hop + worm.head_hop];
          wait_next[wi] = wait_head[ch];
          wait_head[ch] = static_cast<std::int32_t>(wi);
        }
      }
    }

    if (any_motion) {
      idle_cycles = 0;
    } else if (!waiting_on_schedule) {
      if (++idle_cycles >= config_.deadlock_threshold) {
        result.deadlocked = true;
        result.cycles = now + 1;
        result.stuck = remaining;
        return result;
      }
    }
    if (remaining == 0) {
      result.cycles = now + 1;
      return result;
    }
    ++now;
    active.swap(upcoming);  // the current bitmap is all zeros after the scan
    active_count = upcoming_count;
    upcoming_count = 0;
  }
}

}  // namespace ocp::netsim
