#include "analysis/block_stats.hpp"

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"

namespace ocp::analysis {

std::vector<BlockStatsRow> run_block_stats(const BlockStatsConfig& config) {
  const mesh::Mesh2D machine = mesh::Mesh2D::square(config.n);
  std::vector<BlockStatsRow> rows(config.fault_counts.size());

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    BlockStatsRow& row = rows[fi];
    row.f = config.fault_counts[fi];
    stats::Rng seeder(config.seed + 0x40 * static_cast<std::uint64_t>(fi));

    for (std::size_t t = 0; t < config.trials; ++t) {
      stats::Rng rng(seeder.fork_seed());
      const auto faults = fault::uniform_random(
          machine, static_cast<std::size_t>(row.f), rng);
      const auto result = labeling::run_pipeline(faults);

      std::size_t singletons = 0;
      std::size_t multi_fault = 0;
      for (const auto& block : result.blocks) {
        row.block_size.add(static_cast<double>(block.size()));
        row.block_diameter.add(block.region().diameter());
        row.size_hist.add(static_cast<double>(block.size()));
        if (block.size() == 1) ++singletons;
        if (block.fault_count > 1) ++multi_fault;
      }
      for (const auto& region : result.regions) {
        row.region_size.add(static_cast<double>(region.size()));
      }
      if (!result.blocks.empty()) {
        const auto blocks = static_cast<double>(result.blocks.size());
        row.singleton_pct.add(100.0 * static_cast<double>(singletons) /
                              blocks);
        row.multi_fault_pct.add(100.0 * static_cast<double>(multi_fault) /
                                blocks);
      }
    }
  }
  return rows;
}

stats::Table block_stats_table(const std::vector<BlockStatsRow>& rows) {
  stats::Table table({"f", "block size", "block d(B)", "region size",
                      "singleton %", "multi-fault %", "p99 size",
                      "size distribution"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        stats::format_double(r.block_size.mean(), 2),
        stats::format_double(r.block_diameter.mean(), 2),
        stats::format_double(r.region_size.mean(), 2),
        r.singleton_pct.empty()
            ? "n/a"
            : stats::format_double(r.singleton_pct.mean(), 1),
        r.multi_fault_pct.empty()
            ? "n/a"
            : stats::format_double(r.multi_fault_pct.mean(), 1),
        stats::format_double(r.size_hist.p99(), 1),
        r.size_hist.sparkline(),
    });
  }
  return table;
}

}  // namespace ocp::analysis
