#include "stack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pb {

using ocp::mesh::Coord;
using ocp::svc::EventKind;
using ocp::svc::FaultEvent;

namespace {

Coord random_cell(const ocp::mesh::Mesh2D& m, Rng& rng) {
  return {static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(m.width()))),
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(m.height())))};
}

}  // namespace

ocp::grid::CellSet uniform_faults(const ocp::mesh::Mesh2D& m, double rate,
                                  Rng& rng) {
  ocp::grid::CellSet faults(m);
  const auto target = static_cast<std::size_t>(
      std::llround(rate * static_cast<double>(m.node_count())));
  while (faults.size() < target) faults.insert(random_cell(m, rng));
  return faults;
}

FaultTracker::FaultTracker(const ocp::grid::CellSet& initial)
    : faults_(initial) {
  const ocp::mesh::Mesh2D& m = initial.topology();
  for (std::int32_t y = 0; y < m.height(); ++y) {
    for (std::int32_t x = 0; x < m.width(); ++x) {
      if (initial.contains({x, y})) faulty_.push_back({x, y});
    }
  }
}

std::vector<FaultEvent> FaultTracker::batch(std::size_t events,
                                            double repair_share,
                                            double duplicate_share, Rng& rng) {
  std::vector<FaultEvent> out;
  const auto taken = [&out](Coord c) {
    return std::any_of(out.begin(), out.end(),
                       [c](const FaultEvent& e) { return e.node == c; });
  };
  while (out.size() < events) {
    if (!out.empty() && rng.unit() < duplicate_share) {
      out.push_back(out[rng.below(out.size())]);
    } else if (!faulty_.empty() && rng.unit() < repair_share) {
      const std::size_t i = rng.below(faulty_.size());
      const Coord c = faulty_[i];
      if (taken(c)) continue;
      faulty_[i] = faulty_.back();
      faulty_.pop_back();
      faults_.erase(c);
      out.push_back({EventKind::Repair, c});
    } else {
      const Coord c = random_cell(faults_.topology(), rng);
      if (faults_.contains(c) || taken(c)) continue;
      faulty_.push_back(c);
      faults_.insert(c);
      out.push_back({EventKind::Fault, c});
    }
  }
  return out;
}

void apply_events(ocp::grid::CellSet& faults,
                  std::span<const FaultEvent> batch) {
  for (const FaultEvent& e : batch) {
    if (e.kind == EventKind::Fault) {
      faults.insert(e.node);
    } else {
      faults.erase(e.node);
    }
  }
}

std::vector<ocp::alloc::JobRequest> make_jobs(Rng& rng, std::size_t n,
                                              std::int32_t side_cap,
                                              std::uint64_t first_id) {
  // Stratified: every block of kStratum jobs holds the same widths and
  // heights (evenly spaced quantiles, paired by a fixed permutation), in a
  // seeded order. The seed decides where each job lands, not how much area
  // a block covers, so utilization is comparable across seeds.
  constexpr std::size_t kStratum = 16;
  const auto side = [side_cap](std::size_t i) {
    const double u = (static_cast<double>(i % kStratum) + 0.5) / kStratum;
    return 1 + static_cast<std::int32_t>(u * u * side_cap);
  };
  std::vector<ocp::alloc::JobRequest> jobs;
  jobs.reserve(n);
  std::vector<ocp::alloc::JobRequest> block(kStratum);
  while (jobs.size() < n) {
    for (std::size_t i = 0; i < kStratum; ++i) {
      block[i].width = side(i);
      block[i].height = side(i * 7);
    }
    for (std::size_t i = kStratum - 1; i > 0; --i) {
      std::swap(block[i], block[rng.below(i + 1)]);
    }
    for (std::size_t i = 0; i < kStratum && jobs.size() < n; ++i) {
      jobs.push_back(block[i]);
      jobs.back().id = first_id + jobs.size() - 1;
    }
  }
  return jobs;
}

// -- Scheduler ----------------------------------------------------------------

Scheduler::Scheduler(const ocp::svc::Snapshot& snap,
                     const obs::TraceConfig& trace)
    : engine_(snap, ocp::alloc::AllocConfig{
                        .strategy = ocp::alloc::StrategyKind::FirstFit}),
      trace_(trace) {
  if (trace_.enabled()) {
    shadow_ = ocp::alloc::make_strategy(engine_.config().strategy);
  }
}

ocp::alloc::SubmitOutcome Scheduler::submit(
    const ocp::alloc::JobRequest& job) {
  if (shadow_) {
    {
      const obs::Span span(trace_, "alloc.decide");
      static_cast<void>(shadow_->choose(engine_.index(), job.width, job.height));
    }
    const obs::Span span(trace_, "alloc.view");
    static_cast<void>(engine_.index().largest_free_rect_area());
  }
  ocp::alloc::SubmitResult result;
  {
    const obs::Span span(trace_, "alloc.submit");
    result = engine_.submit(job);
  }
  if (result.outcome == ocp::alloc::SubmitOutcome::Rejected) ++rejected_;
  settle();
  return result.outcome;
}

void Scheduler::tick() {
  {
    const obs::Span span(trace_, "alloc.tick");
    static_cast<void>(engine_.tick());
  }
  settle();
}

void Scheduler::tick_if_waiting() {
  if (!engine_.pending().empty()) tick();
}

void Scheduler::observe(const ocp::svc::Snapshot& snap,
                        std::span<const Coord> dirty,
                        Clock::time_point since) {
  // Jobs on a cell this epoch blocks are the ones the engine will evict.
  hit_.clear();
  for (const Coord c : dirty) {
    if (!snap.machine().contains(c) ||
        snap.status_of(c) == ocp::svc::NodeStatus::Enabled) {
      continue;
    }
    if (const auto id = engine_.occupant_at(c)) hit_.push_back(*id);
  }
  std::sort(hit_.begin(), hit_.end());
  hit_.erase(std::unique(hit_.begin(), hit_.end()), hit_.end());
  {
    const obs::Span span(trace_, "alloc.observe");
    static_cast<void>(engine_.observe_epoch(snap, dirty));
  }
  const Clock::time_point now = Clock::now();
  for (const std::uint64_t id : hit_) {
    if (engine_.live().contains(id)) {
      replace_us_.add(us_between(since, now), since);  // re-placed at once
      continue;
    }
    const auto& pending = engine_.pending();
    if (std::any_of(pending.begin(), pending.end(),
                    [id](const auto& p) { return p.request.id == id; })) {
      waiting_.emplace_back(id, since);
    }
    // Otherwise shed; the engine counts it.
  }
  settle();
}

void Scheduler::settle() {
  util_peak_ = std::max(util_peak_, engine_.utilization());
  if (waiting_.empty()) return;
  const Clock::time_point now = Clock::now();
  std::erase_if(waiting_, [&](const auto& w) {
    if (!engine_.live().contains(w.first)) return false;
    replace_us_.add(us_between(w.second, now), w.second);
    return true;
  });
}

void Scheduler::begin_timed() {
  util_peak_ = engine_.utilization();
  replace_us_ = Samples{};
  waiting_.clear();
}

void report_scheduler(const Scheduler& sched) {
  const ocp::alloc::AllocStats& st = sched.engine().stats();
  std::fprintf(stderr,
               "perfbench: scheduler placed=%llu evicted=%llu replaced=%llu "
               "requeued=%llu shed=%llu rejected=%llu waiting=%zu live=%zu "
               "util_peak=%.4f\n",
               static_cast<unsigned long long>(st.placed),
               static_cast<unsigned long long>(st.evicted),
               static_cast<unsigned long long>(st.replaced),
               static_cast<unsigned long long>(st.requeued),
               static_cast<unsigned long long>(st.shed),
               static_cast<unsigned long long>(sched.rejected()),
               sched.waiting(), sched.engine().live().size(),
               sched.util_peak());
}

AllocCounts alloc_counts(const Scheduler& sched) {
  return {sched.engine().stats(), sched.engine().index().cells_patched()};
}

void report_alloc_layers(const Tracer& tracer, const AllocCounts& c,
                         Result& r) {
  r.set("alloc.decide_us", tracer.mean_ns("alloc.decide") / 1e3);
  r.set("alloc.view_us", tracer.mean_ns("alloc.view") / 1e3);
  r.set("alloc.observe_us", tracer.mean_ns("alloc.observe") / 1e3);
  r.set("alloc.tick_us", tracer.mean_ns("alloc.tick") / 1e3);
  r.set("alloc.cells_patched", static_cast<double>(c.cells_patched));
  r.set("alloc.evicted", static_cast<double>(c.stats.evicted));
  r.set("alloc.replaced", static_cast<double>(c.stats.replaced));
  r.set("alloc.requeued", static_cast<double>(c.stats.requeued));
  r.set("alloc.shed", static_cast<double>(c.stats.shed));
  r.set("alloc.replace_frac",
        c.stats.evicted > 0 ? static_cast<double>(c.stats.replaced) /
                                  static_cast<double>(c.stats.evicted)
                            : 0.0);
}

// -- Server -------------------------------------------------------------------

Server::Server(ocp::grid::CellSet faults, const obs::TraceConfig& trace)
    : trace_(trace) {
  if (!trace_.enabled()) {
    engine_ = std::make_unique<ocp::svc::IngestEngine>(
        std::move(faults), ocp::svc::IngestConfig{.collect_applied = true});
    return;
  }
  {
    const obs::Span span(trace_, "core.build");
    labeling_ = std::make_unique<ocp::labeling::MaintainedLabeling>(
        std::move(faults), ocp::labeling::SafeUnsafeDef::Def2b);
  }
  tiles_ = std::make_unique<ocp::grid::TileGrid>(labeling_->faults().topology());
  current_ = ocp::svc::Snapshot::build(0, *labeling_);
}

Server::Applied Server::apply(std::span<const FaultEvent> batch) {
  if (!engine_) return apply_staged(batch);
  const Clock::time_point t0 = Clock::now();
  ocp::svc::BatchOutcome out = engine_->apply(batch);
  apply_s_ += seconds_between(t0, Clock::now());
  ++applies_;
  dirty_ = std::move(out.dirty_cells);
  return {out.published, out.epoch, out.applied, dirty_};
}

Server::Applied Server::apply_staged(std::span<const FaultEvent> batch) {
  ocp::labeling::MaintainedLabeling& lab = *labeling_;
  const ocp::mesh::Mesh2D& m = lab.faults().topology();
  // 1. Coalesce into the net delta, exactly as the engine does.
  {
    const obs::Span span(trace_, "svc.coalesce");
    desired_.clear();
    for (const FaultEvent& e : batch) {
      if (!m.contains(e.node)) continue;
      const bool want = e.kind == EventKind::Fault;
      const auto it = std::find_if(desired_.begin(), desired_.end(),
                                   [&e](const auto& d) { return d.first == e.node; });
      if (it != desired_.end()) {
        it->second = want;
      } else if (lab.faults().contains(e.node) != want) {
        desired_.emplace_back(e.node, want);
      }
    }
  }
  dirty_.clear();
  std::uint64_t dirty_tiles = 0;
  std::uint64_t padded_tiles = 0;
  std::size_t applied = 0;
  for (const auto& [node, want] : desired_) {
    if (lab.faults().contains(node) == want) continue;
    // 2. Relabel.
    ocp::labeling::EventDelta delta;
    {
      const obs::Span span(trace_, "core.relabel");
      delta = want ? lab.add_fault(node) : lab.remove_fault(node);
    }
    // 3. Fold the dirty extent into the tile masks.
    {
      const obs::Span span(trace_, "svc.tile_mask");
      for (const Coord c : delta.dirty_cells) {
        dirty_tiles |= tiles_->bit_of(c);
        padded_tiles |= tiles_->padded_bits(c);
      }
      dirty_.insert(dirty_.end(), delta.dirty_cells.begin(),
                    delta.dirty_cells.end());
    }
    counts_.dirty_cells += delta.dirty_cells.size();
    ++counts_.events;
    ++applied;
  }
  counts_.coalesced += batch.size() - applied;
  if (applied == 0) return {false, current_->epoch(), 0, {}};
  // 4. Copy-on-write successor snapshot.
  std::shared_ptr<const ocp::svc::Snapshot> next;
  {
    const obs::Span span(trace_, "svc.snapshot_next");
    next = ocp::svc::Snapshot::next(*current_, current_->epoch() + 1, lab,
                                    dirty_tiles, padded_tiles);
  }
  counts_.route_hits += current_->route_cache().hits();
  counts_.route_misses += current_->route_cache().misses();
  counts_.pages_copied += next->page_stats().copied;
  counts_.pages_shared += next->page_stats().shared;
  counts_.routes_carried += next->cache_carry_stats().carried;
  counts_.routes_invalidated += next->cache_carry_stats().invalidated;
  ++counts_.epochs;
  current_ = std::move(next);
  return {true, current_->epoch(), applied, dirty_};
}

const ocp::svc::Snapshot& Server::acquire() const {
  return engine_ ? engine_->acquire() : *current_;
}

std::shared_ptr<const ocp::svc::Snapshot> Server::snapshot() const {
  return engine_ ? engine_->snapshot() : current_;
}

EpochCounts Server::counts() const {
  EpochCounts c = counts_;
  if (current_) {
    c.route_hits += current_->route_cache().hits();
    c.route_misses += current_->route_cache().misses();
  }
  return c;
}

}  // namespace pb
