#include "analysis/partition_study.hpp"

#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "stats/rng.hpp"
#include "stats/trial_pool.hpp"

namespace ocp::analysis {

namespace {

/// Per-trial measurements of the partition study, reduced in trial order.
struct PartitionTrialRecord {
  double nf_regions = 0, nf_separated = 0, nf_touching = 0, nf_optimal = 0;
  double polys_regions = 0, polys_touching = 0;
  bool has_split = false;
  double split_pct = 0;
};

}  // namespace

std::vector<PartitionStudyRow> run_partition_study(
    const PartitionStudyConfig& config) {
  const mesh::Mesh2D machine = mesh::Mesh2D::square(config.n);
  std::vector<PartitionStudyRow> rows(config.fault_counts.size());

  for (std::size_t fi = 0; fi < config.fault_counts.size(); ++fi) {
    PartitionStudyRow& row = rows[fi];
    row.f = config.fault_counts[fi];
    stats::Rng seeder(config.seed + 0x100 * static_cast<std::uint64_t>(fi));
    const auto trial_seeds = stats::fork_trial_seeds(seeder, config.trials);

    std::vector<PartitionTrialRecord> records(config.trials);
    stats::for_each_trial(config.trials, [&](std::size_t t) {
      stats::Rng rng(trial_seeds[t]);
      const auto faults =
          config.clustered
              ? fault::clustered(machine,
                                 std::max<std::size_t>(
                                     1, static_cast<std::size_t>(row.f) /
                                            config.cluster_size),
                                 config.cluster_size, rng)
              : fault::uniform_random(machine,
                                      static_cast<std::size_t>(row.f), rng);
      const auto result = labeling::run_pipeline(faults);

      std::size_t nf_regions = 0;
      std::size_t nf_separated = 0;
      std::size_t nf_touching = 0;
      std::size_t nf_optimal = 0;
      std::size_t polys_regions = 0;
      std::size_t polys_touching = 0;
      std::size_t splittable = 0;
      for (const auto& region : result.regions) {
        // Faults of this region, in its planar frame.
        std::vector<mesh::Coord> fcells;
        const auto frame_cells = region.region().cells();
        const auto phys_cells = region.component.cells();
        for (std::size_t i = 0; i < frame_cells.size(); ++i) {
          if (faults.contains(phys_cells[i])) {
            fcells.push_back(frame_cells[i]);
          }
        }
        const geom::Region region_faults(std::move(fcells));

        nf_regions += region.disabled_nonfaulty_count;
        ++polys_regions;

        nf_separated +=
            labeling::greedy_gap_cover(region_faults).nonfaulty_cells;
        const auto touching = labeling::greedy_cut_cover(region_faults);
        nf_touching += touching.nonfaulty_cells;
        polys_touching += touching.polygon_count();
        if (touching.polygon_count() > 1) ++splittable;

        if (region_faults.size() <= config.exhaustive_limit) {
          nf_optimal += labeling::optimal_cover_exhaustive(
                            region_faults, labeling::CoverRule::Touching)
                            .nonfaulty_cells;
        } else {
          nf_optimal += touching.nonfaulty_cells;
        }
      }
      PartitionTrialRecord& rec = records[t];
      rec.nf_regions = static_cast<double>(nf_regions);
      rec.nf_separated = static_cast<double>(nf_separated);
      rec.nf_touching = static_cast<double>(nf_touching);
      rec.nf_optimal = static_cast<double>(nf_optimal);
      rec.polys_regions = static_cast<double>(polys_regions);
      rec.polys_touching = static_cast<double>(polys_touching);
      if (polys_regions > 0) {
        rec.has_split = true;
        rec.split_pct = 100.0 * static_cast<double>(splittable) /
                        static_cast<double>(polys_regions);
      }
    });
    for (const PartitionTrialRecord& rec : records) {
      row.nonfaulty_regions.add(rec.nf_regions);
      row.nonfaulty_separated.add(rec.nf_separated);
      row.nonfaulty_touching.add(rec.nf_touching);
      row.nonfaulty_optimal.add(rec.nf_optimal);
      row.polygons_regions.add(rec.polys_regions);
      row.polygons_touching.add(rec.polys_touching);
      if (rec.has_split) row.regions_split_pct.add(rec.split_pct);
    }
  }
  return rows;
}

stats::Table partition_study_table(
    const std::vector<PartitionStudyRow>& rows) {
  stats::Table table({"f", "nonfaulty(DR)", "nonfaulty(separated)",
                      "nonfaulty(touching)", "nonfaulty(optimal*)",
                      "#poly(DR)", "#poly(touching)", "regions split %"});
  for (const auto& r : rows) {
    table.add_row({
        std::to_string(r.f),
        stats::format_double(r.nonfaulty_regions.mean(), 2),
        stats::format_double(r.nonfaulty_separated.mean(), 2),
        stats::format_double(r.nonfaulty_touching.mean(), 2),
        stats::format_double(r.nonfaulty_optimal.mean(), 2),
        stats::format_double(r.polygons_regions.mean(), 1),
        stats::format_double(r.polygons_touching.mean(), 1),
        r.regions_split_pct.empty()
            ? "n/a"
            : stats::format_double(r.regions_split_pct.mean(), 2),
    });
  }
  return table;
}

}  // namespace ocp::analysis
