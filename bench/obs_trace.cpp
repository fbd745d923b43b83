// Traced end-to-end demo: runs the labeling pipeline on a 64x64 mesh at 10%
// faults and a BM_TrafficSimEndToEnd-sized wormhole run (24x24, clustered
// faults, fault-ring routing) with tracing at TraceLevel::Round, then writes
// the capture in both export formats and prints the summarized tables.
//
// This is the harness behind `bench/run_bench.sh --trace` and the worked
// example in EXPERIMENTS.md; tests/obs/report_test.cpp asserts the same
// runs produce non-zero per-round span counts.
//
// Usage:
//   obs_trace [--out-dir DIR]     # writes DIR/trace.jsonl and
//                                 # DIR/trace_chrome.json (default: .)
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/traffic_sim.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ocp;

void run_traced_pipeline(const obs::TraceConfig& trace) {
  const mesh::Mesh2D m = mesh::Mesh2D::square(64);
  stats::Rng rng(1);
  const auto fault_count =
      static_cast<std::size_t>(m.node_count() / 10);  // 10% faults
  const grid::CellSet faults = fault::uniform_random(m, fault_count, rng);

  labeling::PipelineOptions opts;
  opts.trace = trace;
  const labeling::PipelineResult result = labeling::run_pipeline(faults, opts);
  std::cerr << "pipeline: 64x64 mesh, " << faults.size() << " faults, "
            << result.blocks.size() << " blocks, " << result.regions.size()
            << " regions, "
            << result.safety_stats.rounds_to_quiesce +
                   result.activation_stats.rounds_to_quiesce
            << " rounds\n";
}

void run_traced_netsim(const obs::TraceConfig& trace) {
  // Mirrors BM_TrafficSimEndToEnd (bench/perf_netsim.cpp) so the traced run
  // corresponds to a benchmark in the committed baseline.
  const mesh::Mesh2D m = mesh::Mesh2D::square(24);
  stats::Rng rng(3);
  const auto faults = fault::clustered(m, 3, 8, rng);
  const auto labeled = labeling::run_pipeline(faults);
  const auto blocked = labeling::disabled_cells(labeled.activation);
  const routing::FaultRingRouter router(m, blocked);

  netsim::TrafficSimConfig config;
  config.injection_rate = 0.004;
  config.warm_cycles = 256;
  config.num_vcs = 2;
  config.trace = trace;
  const auto result = netsim::run_traffic_sim(m, blocked, router, config);
  std::cerr << "netsim: 24x24 mesh, " << result.offered_packets
            << " offered, " << result.delivered_packets << " delivered, "
            << result.cycles << " cycles, " << result.flit_moves
            << " flit moves\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: obs_trace [--out-dir DIR]\n";
      return 0;
    } else {
      std::cerr << "obs_trace: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  obs::TraceSink sink;
  const obs::TraceConfig trace{&sink, obs::TraceLevel::Round};

  run_traced_pipeline(trace);
  run_traced_netsim(trace);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);  // best-effort

  const std::string jsonl_path = out_dir + "/trace.jsonl";
  const std::string chrome_path = out_dir + "/trace_chrome.json";
  {
    std::ofstream out(jsonl_path);
    if (!out) {
      std::cerr << "obs_trace: cannot write " << jsonl_path << "\n";
      return 1;
    }
    sink.write_jsonl(out);
  }
  {
    std::ofstream out(chrome_path);
    if (!out) {
      std::cerr << "obs_trace: cannot write " << chrome_path << "\n";
      return 1;
    }
    sink.write_chrome_trace(out);
  }
  std::cerr << "wrote " << jsonl_path << " and " << chrome_path << "\n";

  // Round-trip through the exporter/parser pair, exactly what obs_report
  // does, so the demo fails loudly if the formats ever drift apart.
  std::ifstream back(jsonl_path);
  const obs::TraceReport report = obs::summarize_jsonl(back);
  if (report.spans.empty()) {
    std::cerr << "obs_trace: round-trip produced no spans\n";
    return 1;
  }
  obs::print_report(report, std::cout);
  return 0;
}
