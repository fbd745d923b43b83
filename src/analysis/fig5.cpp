#include "analysis/fig5.hpp"

#include <vector>

#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "stats/trial_pool.hpp"

namespace ocp::analysis {

std::vector<std::int32_t> Fig5Config::default_fault_counts(std::int32_t step,
                                                           std::int32_t max_f) {
  std::vector<std::int32_t> out;
  for (std::int32_t f = 0; f <= max_f; f += step) out.push_back(f);
  return out;
}

namespace {

/// Enabled count per faulty block: unsafe-nonfaulty minus the nonfaulty
/// cells its child disabled regions still hold.
std::vector<std::size_t> enabled_per_block(
    const labeling::PipelineResult& result) {
  std::vector<std::size_t> enabled(result.blocks.size());
  for (std::size_t b = 0; b < result.blocks.size(); ++b) {
    enabled[b] = result.blocks[b].unsafe_nonfaulty_count;
  }
  for (const auto& region : result.regions) {
    enabled[region.parent_block] -= region.disabled_nonfaulty_count;
  }
  return enabled;
}

void accumulate_trial(Fig5Row& row, const labeling::PipelineResult& result,
                      std::int64_t node_count) {
  row.rounds_blocks.add(result.safety_stats.rounds_to_quiesce);
  row.rounds_regions.add(result.activation_stats.rounds_to_quiesce);
  row.block_count.add(static_cast<double>(result.blocks.size()));
  row.region_count.add(static_cast<double>(result.regions.size()));
  row.messages_per_node.add(
      static_cast<double>(result.safety_stats.messages_event_driven +
                          result.activation_stats.messages_event_driven) /
      static_cast<double>(node_count));

  std::int32_t max_diam = 0;
  for (const auto& block : result.blocks) {
    max_diam = std::max(max_diam, block.region().diameter());
  }
  row.max_block_diameter.add(max_diam);

  const std::vector<std::size_t> enabled = enabled_per_block(result);
  stats::Summary per_block;
  std::size_t enabled_total = 0;
  std::size_t unsafe_nonfaulty_total = 0;
  for (std::size_t b = 0; b < result.blocks.size(); ++b) {
    const std::size_t denom = result.blocks[b].unsafe_nonfaulty_count;
    if (denom == 0) continue;  // nothing to reduce in this block
    per_block.add(100.0 * static_cast<double>(enabled[b]) /
                  static_cast<double>(denom));
    enabled_total += enabled[b];
    unsafe_nonfaulty_total += denom;
  }
  if (!per_block.empty()) {
    row.enabled_ratio_per_block.add(per_block.mean());
    row.enabled_ratio_pooled.add(100.0 *
                                 static_cast<double>(enabled_total) /
                                 static_cast<double>(unsafe_nonfaulty_total));
  }
}

}  // namespace

std::vector<Fig5Row> run_fig5(const Fig5Config& config) {
  const mesh::Mesh2D machine =
      mesh::Mesh2D::square(config.n, config.topology);
  std::vector<Fig5Row> rows(config.fault_counts.size());

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    Fig5Row& row = rows[fi];
    row.f = config.fault_counts[fi];

    // Per-trial seeds are derived deterministically so results do not
    // depend on sweep order or parallel scheduling.
    stats::Rng seeder(config.seed + 0x1000 * static_cast<std::uint64_t>(fi));
    const auto trial_seeds = stats::fork_trial_seeds(seeder, config.trials);

    std::vector<Fig5Row> trial_rows(config.trials);
    stats::for_each_trial(config.trials, [&](std::size_t t) {
      stats::Rng rng(trial_seeds[t]);
      const grid::CellSet faults = fault::uniform_random(
          machine, static_cast<std::size_t>(row.f), rng);
      labeling::PipelineOptions opts;
      opts.definition = config.definition;
      accumulate_trial(trial_rows[t], labeling::run_pipeline(faults, opts),
                       machine.node_count());
    });
    // Serial, trial-ordered reduction: bit-identical for any thread count.
    for (const Fig5Row& tr : trial_rows) {
      row.rounds_blocks.merge(tr.rounds_blocks);
      row.rounds_regions.merge(tr.rounds_regions);
      row.enabled_ratio_per_block.merge(tr.enabled_ratio_per_block);
      row.enabled_ratio_pooled.merge(tr.enabled_ratio_pooled);
      row.block_count.merge(tr.block_count);
      row.region_count.merge(tr.region_count);
      row.max_block_diameter.merge(tr.max_block_diameter);
      row.messages_per_node.merge(tr.messages_per_node);
    }
  }
  return rows;
}

stats::Table fig5_table(const std::vector<Fig5Row>& rows) {
  stats::Table table({"f", "rounds(FB)", "rounds(DR)", "enabled/unsafe-nf %",
                      "pooled %", "#FB", "#DR", "max d(B)", "msgs/node"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        stats::format_mean_ci(r.rounds_blocks.mean(), r.rounds_blocks.ci95(),
                              2),
        stats::format_mean_ci(r.rounds_regions.mean(),
                              r.rounds_regions.ci95(), 2),
        r.enabled_ratio_per_block.empty()
            ? "n/a"
            : stats::format_mean_ci(r.enabled_ratio_per_block.mean(),
                                    r.enabled_ratio_per_block.ci95(), 1),
        r.enabled_ratio_pooled.empty()
            ? "n/a"
            : stats::format_double(r.enabled_ratio_pooled.mean(), 1),
        stats::format_double(r.block_count.mean(), 1),
        stats::format_double(r.region_count.mean(), 1),
        stats::format_double(r.max_block_diameter.mean(), 2),
        stats::format_double(r.messages_per_node.mean(), 2),
    });
  }
  return table;
}

}  // namespace ocp::analysis
