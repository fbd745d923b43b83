#include "analysis/async_study.hpp"

#include "core/safety_protocol.hpp"
#include "fault/generators.hpp"
#include "simkernel/async_runner.hpp"
#include "simkernel/sync_runner.hpp"
#include "stats/trial_pool.hpp"

namespace ocp::analysis {

namespace {

/// Per-trial measurements of the async study, reduced in trial order.
struct AsyncTrialRecord {
  double sync_rounds = 0;
  double async_sweeps = 0;
  double msgs_broadcast_per_node = 0;
  double msgs_event_per_node = 0;
  double match = 0;
};

}  // namespace

std::vector<AsyncStudyRow> run_async_study(const AsyncStudyConfig& config) {
  const mesh::Mesh2D machine = mesh::Mesh2D::square(config.n);
  const mesh::AdjacencyTable adj(machine);
  std::vector<AsyncStudyRow> rows(config.fault_counts.size());

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    AsyncStudyRow& row = rows[fi];
    row.f = config.fault_counts[fi];
    stats::Rng seeder(config.seed + 0x10 * static_cast<std::uint64_t>(fi));
    const auto trial_seeds = stats::fork_trial_seeds(seeder, config.trials);

    std::vector<AsyncTrialRecord> records(config.trials);
    stats::for_each_trial(config.trials, [&](std::size_t t) {
      stats::Rng rng(trial_seeds[t]);
      const auto faults = fault::uniform_random(
          machine, static_cast<std::size_t>(row.f), rng);
      const labeling::SafetyProtocol proto(faults,
                                           labeling::SafeUnsafeDef::Def2b);

      const auto sync = sim::run_sync(adj, proto);
      stats::Rng sched(rng.fork_seed());
      const auto async = sim::run_async(adj, proto, sched);

      AsyncTrialRecord& rec = records[t];
      rec.sync_rounds = sync.stats.rounds_to_quiesce;
      rec.async_sweeps = async.stats.sweeps;
      const auto per_node = static_cast<double>(machine.node_count());
      rec.msgs_broadcast_per_node =
          static_cast<double>(sync.stats.messages_broadcast) / per_node;
      rec.msgs_event_per_node =
          static_cast<double>(sync.stats.messages_event_driven) / per_node;
      rec.match = sync.states == async.states ? 100.0 : 0.0;
    });
    for (const AsyncTrialRecord& rec : records) {
      row.sync_rounds.add(rec.sync_rounds);
      row.async_sweeps.add(rec.async_sweeps);
      row.msgs_broadcast_per_node.add(rec.msgs_broadcast_per_node);
      row.msgs_event_per_node.add(rec.msgs_event_per_node);
      row.fixpoint_match_pct.add(rec.match);
    }
  }
  return rows;
}

stats::Table async_study_table(const std::vector<AsyncStudyRow>& rows) {
  stats::Table table({"f", "sync rounds", "async sweeps",
                      "msgs/node (broadcast)", "msgs/node (event)",
                      "fixpoint match %"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        stats::format_mean_ci(r.sync_rounds.mean(), r.sync_rounds.ci95(), 2),
        stats::format_mean_ci(r.async_sweeps.mean(), r.async_sweeps.ci95(),
                              2),
        stats::format_double(r.msgs_broadcast_per_node.mean(), 2),
        stats::format_double(r.msgs_event_per_node.mean(), 2),
        stats::format_double(r.fixpoint_match_pct.mean(), 1),
    });
  }
  return table;
}

}  // namespace ocp::analysis
