#include "analysis/ablation.hpp"

#include "analysis/trial_pool.hpp"
#include "fault/generators.hpp"
#include "routing/router.hpp"
#include "routing/traffic.hpp"
#include "stats/rng.hpp"

namespace ocp::analysis {

namespace {

/// Per-trial measurements of the definition ablation, reduced in trial
/// order after the parallel sweep.
struct DefTrialRecord {
  double unsafe_2a = 0, unsafe_2b = 0;
  double disabled_2a = 0, disabled_2b = 0;
  double blocks_2a = 0, blocks_2b = 0;
};

}  // namespace

std::vector<DefinitionAblationRow> run_definition_ablation(
    const DefinitionAblationConfig& config) {
  const mesh::Mesh2D machine =
      mesh::Mesh2D::square(config.n, config.topology);
  std::vector<DefinitionAblationRow> rows(config.fault_counts.size());

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    DefinitionAblationRow& row = rows[fi];
    row.f = config.fault_counts[fi];
    stats::Rng seeder(config.seed + 0x1000 * static_cast<std::uint64_t>(fi));
    const auto trial_seeds = fork_trial_seeds(seeder, config.trials);

    std::vector<DefTrialRecord> records(config.trials);
    for_each_trial(config.trials, [&](std::size_t t) {
      stats::Rng rng(trial_seeds[t]);
      const grid::CellSet faults = fault::uniform_random(
          machine, static_cast<std::size_t>(row.f), rng);
      // The same fault pattern goes through both definitions so the
      // comparison is paired.
      labeling::PipelineOptions opts;
      opts.definition = labeling::SafeUnsafeDef::Def2a;
      const auto res_2a = labeling::run_pipeline(faults, opts);
      opts.definition = labeling::SafeUnsafeDef::Def2b;
      const auto res_2b = labeling::run_pipeline(faults, opts);

      DefTrialRecord& rec = records[t];
      rec.unsafe_2a = static_cast<double>(res_2a.unsafe_nonfaulty_total());
      rec.unsafe_2b = static_cast<double>(res_2b.unsafe_nonfaulty_total());
      rec.disabled_2a =
          static_cast<double>(res_2a.disabled_nonfaulty_total());
      rec.disabled_2b =
          static_cast<double>(res_2b.disabled_nonfaulty_total());
      rec.blocks_2a = static_cast<double>(res_2a.blocks.size());
      rec.blocks_2b = static_cast<double>(res_2b.blocks.size());
    });
    for (const DefTrialRecord& rec : records) {
      row.unsafe_nonfaulty_2a.add(rec.unsafe_2a);
      row.unsafe_nonfaulty_2b.add(rec.unsafe_2b);
      row.disabled_nonfaulty_2a.add(rec.disabled_2a);
      row.disabled_nonfaulty_2b.add(rec.disabled_2b);
      row.blocks_2a.add(rec.blocks_2a);
      row.blocks_2b.add(rec.blocks_2b);
    }
  }
  return rows;
}

stats::Table definition_ablation_table(
    const std::vector<DefinitionAblationRow>& rows) {
  stats::Table table({"f", "unsafe-nf(2a)", "unsafe-nf(2b)", "disabled-nf(2a)",
                      "disabled-nf(2b)", "#FB(2a)", "#FB(2b)"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        stats::format_double(r.unsafe_nonfaulty_2a.mean(), 1),
        stats::format_double(r.unsafe_nonfaulty_2b.mean(), 1),
        stats::format_double(r.disabled_nonfaulty_2a.mean(), 1),
        stats::format_double(r.disabled_nonfaulty_2b.mean(), 1),
        stats::format_double(r.blocks_2a.mean(), 1),
        stats::format_double(r.blocks_2b.mean(), 1),
    });
  }
  return table;
}

const char* to_string(BlockModel m) noexcept {
  switch (m) {
    case BlockModel::RawFaults: return "raw-faults";
    case BlockModel::FaultyBlocks: return "faulty-blocks";
    case BlockModel::DisabledRegions: return "disabled-regions";
  }
  return "?";
}

namespace {

/// The impassable cell set induced by a block model.
grid::CellSet blocked_for_model(const grid::CellSet& faults,
                                const labeling::PipelineResult& result,
                                BlockModel model) {
  const mesh::Mesh2D& m = faults.topology();
  switch (model) {
    case BlockModel::RawFaults:
      return faults;
    case BlockModel::FaultyBlocks:
      return labeling::unsafe_cells(result.safety);
    case BlockModel::DisabledRegions:
      return labeling::disabled_cells(result.activation);
  }
  return grid::CellSet(m);  // unreachable
}

/// Per-trial, per-model measurements of the routing ablation.
struct RoutingTrialRecord {
  double sacrificed = 0;
  double delivery = 0;
  bool has_stretch = false;
  double stretch = 0;
  double detour = 0;
};

}  // namespace

std::vector<RoutingAblationRow> run_routing_ablation(
    const RoutingAblationConfig& config) {
  const mesh::Mesh2D machine = mesh::Mesh2D::square(config.n);
  constexpr std::array<BlockModel, 3> kModels = {BlockModel::RawFaults,
                                                 BlockModel::FaultyBlocks,
                                                 BlockModel::DisabledRegions};

  std::vector<RoutingAblationRow> rows;
  for (std::int32_t f : config.fault_counts) {
    for (BlockModel model : kModels) {
      RoutingAblationRow row;
      row.f = f;
      row.model = model;
      rows.push_back(row);
    }
  }

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    stats::Rng seeder(config.seed + 0x1000 * static_cast<std::uint64_t>(fi));
    const auto trial_seeds = fork_trial_seeds(seeder, config.trials);

    std::vector<RoutingTrialRecord> records(config.trials * kModels.size());
    for_each_trial(config.trials, [&](std::size_t t) {
      stats::Rng rng(trial_seeds[t]);
      const grid::CellSet faults = fault::uniform_random(
          machine, static_cast<std::size_t>(config.fault_counts[fi]), rng);
      labeling::PipelineOptions opts;
      opts.definition = config.definition;
      const auto result = labeling::run_pipeline(faults, opts);

      for (std::size_t mi = 0; mi < kModels.size(); ++mi) {
        const grid::CellSet blocked =
            blocked_for_model(faults, result, kModels[mi]);
        const routing::FaultRingRouter router(machine, blocked);
        stats::Rng traffic_rng(rng.fork_seed());
        const auto traffic = routing::run_uniform_traffic(
            router, blocked, config.pairs, traffic_rng);

        RoutingTrialRecord& rec = records[t * kModels.size() + mi];
        rec.sacrificed =
            static_cast<double>(blocked.size() - faults.size());
        rec.delivery = 100.0 * traffic.delivery_rate();
        if (!traffic.stretch.empty()) {
          rec.has_stretch = true;
          rec.stretch = traffic.stretch.mean();
          rec.detour = traffic.detour_hops.mean();
        }
      }
    });
    for (std::size_t t = 0; t < config.trials; ++t) {
      for (std::size_t mi = 0; mi < kModels.size(); ++mi) {
        RoutingAblationRow& row = rows[fi * kModels.size() + mi];
        const RoutingTrialRecord& rec = records[t * kModels.size() + mi];
        row.sacrificed_nonfaulty.add(rec.sacrificed);
        row.delivery_rate.add(rec.delivery);
        if (rec.has_stretch) {
          row.stretch.add(rec.stretch);
          row.detour_hops.add(rec.detour);
        }
      }
    }
  }
  return rows;
}

stats::Table routing_ablation_table(
    const std::vector<RoutingAblationRow>& rows) {
  stats::Table table({"f", "model", "sacrificed nonfaulty", "delivery %",
                      "stretch", "detour hops"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        to_string(r.model),
        stats::format_double(r.sacrificed_nonfaulty.mean(), 1),
        stats::format_double(r.delivery_rate.mean(), 2),
        r.stretch.empty() ? "n/a"
                          : stats::format_double(r.stretch.mean(), 3),
        r.detour_hops.empty()
            ? "n/a"
            : stats::format_double(r.detour_hops.mean(), 3),
    });
  }
  return table;
}

}  // namespace ocp::analysis
