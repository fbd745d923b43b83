#include "support/wormhole_sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace ocp::netsim {

namespace {

/// One worm of the reference run: the virtual channel of every hop and the
/// flits buffered in it. The worm owns hops [tail, head).
struct Worm {
  std::vector<std::size_t> channel;
  std::vector<std::int32_t> flits;
  std::size_t tail = 0;
  std::size_t head = 0;
  std::int32_t at_source = 0;
  std::int32_t absorbed = 0;
  std::int32_t length = 0;
  std::int64_t inject_cycle = 0;
  bool done = false;
};

/// The link a -> b as a direction out of a: a unit step, or on a torus the
/// step across the wrap seam (a unit step wins on a two-wide ring).
mesh::Dir link_direction(const mesh::Mesh2D& m, mesh::Coord a, mesh::Coord b) {
  const std::int32_t dx = b.x - a.x;
  const std::int32_t dy = b.y - a.y;
  const bool torus = m.is_torus();
  if (dy == 0 && dx == 1) return mesh::Dir::East;
  if (dy == 0 && dx == -1) return mesh::Dir::West;
  if (dx == 0 && dy == 1) return mesh::Dir::North;
  if (dx == 0 && dy == -1) return mesh::Dir::South;
  if (torus && dy == 0 && dx == 1 - m.width()) return mesh::Dir::East;
  if (torus && dy == 0 && dx == m.width() - 1) return mesh::Dir::West;
  if (torus && dx == 0 && dy == 1 - m.height()) return mesh::Dir::North;
  if (torus && dx == 0 && dy == m.height() - 1) return mesh::Dir::South;
  throw std::invalid_argument("reference sweep: path leaves machine links");
}

/// One cycle of one worm, in the simulator's order: eject at the
/// destination, forward flits front to back (the head acquiring the next
/// free channel), inject at the source, then release drained channels at
/// the tail. Returns whether any flit moved.
bool step(Worm& w, std::int32_t self, std::vector<std::int32_t>& owner,
          std::int32_t buffer, std::int64_t& moves) {
  const std::size_t hops = w.channel.size();
  if (hops == 0) {
    ++w.absorbed;
    --w.at_source;
    ++moves;
    return true;
  }
  bool moved = false;
  if (w.head == hops && w.flits[hops - 1] > 0) {
    --w.flits[hops - 1];
    ++w.absorbed;
    ++moves;
    moved = true;
  }
  for (std::size_t i = std::min(w.head, hops - 1); i > w.tail;) {
    --i;
    if (w.flits[i] == 0) continue;
    const std::size_t next = i + 1;
    bool advance = false;
    if (next == w.head) {
      if (owner[w.channel[next]] == -1) {
        owner[w.channel[next]] = self;
        ++w.head;
        advance = true;
      }
    } else {
      advance = w.flits[next] < buffer;
    }
    if (advance) {
      --w.flits[i];
      ++w.flits[next];
      ++moves;
      moved = true;
    }
  }
  if (w.at_source > 0) {
    bool inject = false;
    if (w.head == 0) {
      if (owner[w.channel[0]] == -1) {
        owner[w.channel[0]] = self;
        w.head = 1;
        inject = true;
      }
    } else {
      inject = w.tail == 0 && w.flits[0] < buffer;
    }
    if (inject) {
      ++w.flits[0];
      --w.at_source;
      ++moves;
      moved = true;
    }
  }
  while (w.tail < w.head && w.flits[w.tail] == 0 &&
         !(w.tail == 0 && w.at_source > 0)) {
    owner[w.channel[w.tail]] = -1;
    ++w.tail;
  }
  return moved;
}

}  // namespace

SimResult run_sweep_reference(const mesh::Mesh2D& machine,
                              const SimConfig& config,
                              const std::vector<PacketSpec>& specs) {
  const std::size_t vcs = config.num_vcs;
  std::vector<std::int32_t> owner(
      static_cast<std::size_t>(machine.node_count()) * mesh::kNumDirs * vcs,
      -1);
  std::vector<Worm> worms;
  SimResult result;
  for (const PacketSpec& spec : specs) {
    Worm w;
    for (std::size_t i = 0; i + 1 < spec.path.size(); ++i) {
      const auto dir = static_cast<std::size_t>(
          link_direction(machine, spec.path[i], spec.path[i + 1]));
      const std::size_t link = machine.index(spec.path[i]) * mesh::kNumDirs;
      w.channel.push_back((link + dir) * vcs + spec.vcs[i]);
    }
    w.flits.assign(w.channel.size(), 0);
    w.at_source = spec.length_flits;
    w.length = spec.length_flits;
    w.inject_cycle = spec.inject_cycle;
    worms.push_back(std::move(w));
    result.packets.push_back({.inject_cycle = spec.inject_cycle});
  }

  std::size_t remaining = worms.size();
  std::int64_t idle_cycles = 0;
  std::int64_t now = 0;
  for (; now < config.max_cycles && remaining > 0; ++now) {
    bool any_motion = false;
    bool waiting_on_schedule = false;
    for (std::size_t i = 0; i < worms.size(); ++i) {
      Worm& w = worms[i];
      if (w.done) continue;
      if (now < w.inject_cycle) {
        waiting_on_schedule = true;
        continue;
      }
      if (step(w, static_cast<std::int32_t>(i), owner,
               config.vc_buffer_flits, result.flit_moves)) {
        any_motion = true;
      }
      if (w.absorbed == w.length) {
        w.done = true;
        --remaining;
        result.packets[i].delivered = true;
        result.packets[i].finish_cycle = now;
        ++result.delivered;
        result.latency.add(static_cast<double>(result.packets[i].latency()));
      }
    }
    // Idle cycles count toward the deadlock verdict only once every worm
    // has reached its inject cycle.
    if (any_motion) {
      idle_cycles = 0;
    } else if (!waiting_on_schedule &&
               ++idle_cycles >= config.deadlock_threshold) {
      result.deadlocked = true;
      ++now;
      break;
    }
  }
  result.cycles = now;
  result.stuck = remaining;
  return result;
}

}  // namespace ocp::netsim
