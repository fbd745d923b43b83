// Deterministic trial-level parallelism for the Monte-Carlo sweep drivers.
//
// Contract: every trial gets its own `stats::Rng` stream keyed by trial
// index (seeds are forked up-front, in order, from the sweep-point seeder),
// each worker writes only trial-indexed slots of a preallocated record
// vector, and the records are reduced serially in trial order afterwards.
// That makes every driver's output bit-identical for any thread count —
// including a no-OpenMP build, which runs the same code single-threaded.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace ocp::stats {

/// One independent RNG seed per trial, forked in trial order.
inline std::vector<std::uint64_t> fork_trial_seeds(Rng& seeder,
                                                   std::size_t trials) {
  std::vector<std::uint64_t> seeds(trials);
  for (auto& s : seeds) s = seeder.fork_seed();
  return seeds;
}

/// Runs `fn(t)` for every trial, across OpenMP threads when available.
/// `fn` must be safe to call concurrently for distinct `t` (write only
/// trial-indexed state).
template <typename Fn>
void for_each_trial(std::size_t trials, Fn&& fn) {
#ifdef OCP_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(trials); ++t) {
    fn(static_cast<std::size_t>(t));
  }
#else
  for (std::size_t t = 0; t < trials; ++t) fn(t);
#endif
}

}  // namespace ocp::stats
