#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string_view>

#include "core/pipeline.hpp"
#include "fault/generators.hpp"
#include "netsim/traffic_sim.hpp"
#include "obs/trace.hpp"

namespace ocp::obs {
namespace {

// A count a trace carries is an instant's value, summed by the report.
TEST(TraceReportTest, JsonlRoundTripReproducesSpansInstantsAndCounters) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Round};
  for (int i = 0; i < 4; ++i) {
    const Span s(trace, "phase");
    trace.instant("frontier", 10 * (i + 1));
  }
  trace.instant("flips", 7);
  trace.instant("flips", 3);

  std::stringstream buf;
  sink.write_jsonl(buf);
  const TraceReport report = summarize_jsonl(buf);

  EXPECT_EQ(report.schema, "ocpmesh-trace-v1");
  EXPECT_EQ(report.malformed_lines, 0u);
  const SpanStat* phase = report.span("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 4u);
  EXPECT_GE(phase->total_ms, 0.0);
  EXPECT_LE(phase->min_ms, phase->max_ms);

  const InstantStat* frontier = report.instant("frontier");
  ASSERT_NE(frontier, nullptr);
  EXPECT_EQ(frontier->count, 4u);
  EXPECT_EQ(frontier->sum, 100);
  EXPECT_EQ(frontier->min, 10);
  EXPECT_EQ(frontier->max, 40);

  const InstantStat* flips = report.instant("flips");
  ASSERT_NE(flips, nullptr);
  EXPECT_EQ(flips->count, 2u);
  EXPECT_EQ(flips->sum, 10);
  EXPECT_EQ(report.span("absent"), nullptr);
  EXPECT_EQ(report.instant("absent"), nullptr);
}

TEST(TraceReportTest, ChromeExportIsValidTraceEventJson) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Round};
  {
    const Span outer(trace, "outer");
    const Span inner(trace, "inner \"quoted\"\\name");  // exercises escaping
    trace.instant("tick", -5);
  }

  std::stringstream buf;
  sink.write_chrome_trace(buf);
  const std::string text = buf.str();
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"C\""), std::string::npos);  // no counters
}

TEST(TraceReportTest, JsonlExportIsValidJsonPerLine) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Round};
  {
    const Span s(trace, "a");
    trace.instant("i", 1);
  }
  std::stringstream buf;
  sink.write_jsonl(buf);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(buf, line)) {
    ++lines;
    EXPECT_TRUE(json_valid(line)) << line;
  }
  EXPECT_EQ(lines, 4u);  // meta + b + e + i: no aggregate lines
}

// Acceptance: a traced pipeline run on a 64x64 mesh at 10% faults produces
// per-round spans (non-zero count) the report can see; the flips and
// messages behind them are the run's typed round statistics.
TEST(TraceReportTest, TracedPipelineHasPerRoundSpans) {
  TraceSink sink;
  const mesh::Mesh2D m = mesh::Mesh2D::square(64);
  stats::Rng rng(1);
  const grid::CellSet faults = fault::uniform_random(
      m, static_cast<std::size_t>(m.node_count() / 10), rng);

  labeling::PipelineOptions opts;
  opts.trace = {&sink, TraceLevel::Round};
  const auto result = labeling::run_pipeline(faults, opts);
  ASSERT_GT(result.blocks.size(), 0u);

  std::stringstream buf;
  sink.write_jsonl(buf);
  const TraceReport report = summarize_jsonl(buf);

  const SpanStat* round = report.span("sync.round");
  ASSERT_NE(round, nullptr);
  EXPECT_GT(round->count, 0u);
  // Both phases and the run itself are spans.
  ASSERT_NE(report.span("pipeline.run"), nullptr);
  EXPECT_EQ(report.span("pipeline.run")->count, 1u);
  ASSERT_NE(report.span("pipeline.safety"), nullptr);
  ASSERT_NE(report.span("pipeline.activation"), nullptr);
  // Rounds executed match the per-round span count.
  const auto rounds = static_cast<std::uint64_t>(
      result.safety_stats.rounds_executed +
      result.activation_stats.rounds_executed);
  EXPECT_EQ(round->count, rounds);
  // At 10% faults some nodes flip and messages flow.
  EXPECT_GT(result.safety_stats.state_changes +
                result.activation_stats.state_changes,
            0u);
  EXPECT_GT(result.safety_stats.messages_broadcast +
                result.activation_stats.messages_broadcast,
            0u);
  EXPECT_GT(result.safety_stats.nodes_evaluated, 0u);
  EXPECT_GT(result.activation_stats.nodes_evaluated, 0u);
  const InstantStat* frontier = report.instant("sync.frontier");
  ASSERT_NE(frontier, nullptr);
  EXPECT_GT(frontier->count, 0u);
}

// Acceptance: a traced BM_TrafficSimEndToEnd-sized netsim run reports
// wormhole work and the Chrome export stays schema-valid at that volume.
TEST(TraceReportTest, TracedNetsimRunReportsWormholeWork) {
  TraceSink sink;
  const mesh::Mesh2D m = mesh::Mesh2D::square(24);
  stats::Rng rng(3);
  const auto faults = fault::clustered(m, 3, 8, rng);
  labeling::PipelineOptions label_opts;
  label_opts.engine = labeling::Engine::Reference;
  const auto labeled = labeling::run_pipeline(faults, label_opts);
  const auto blocked = labeling::disabled_cells(labeled.activation);
  const routing::FaultRingRouter router(m, blocked);

  netsim::TrafficSimConfig config;
  config.injection_rate = 0.004;
  config.warm_cycles = 256;
  config.num_vcs = 2;
  config.trace = {&sink, TraceLevel::Round};
  const auto result = netsim::run_traffic_sim(m, blocked, router, config);
  ASSERT_GT(result.delivered_packets, 0u);

  std::stringstream buf;
  sink.write_jsonl(buf);
  const TraceReport report = summarize_jsonl(buf);

  ASSERT_NE(report.span("traffic_sim.run"), nullptr);
  ASSERT_NE(report.span("wormhole.run"), nullptr);
  EXPECT_GT(result.cycles, 0);
  EXPECT_GT(result.flit_moves, 0);
  EXPECT_LE(result.delivered_packets, result.offered_packets);

  std::stringstream chrome;
  sink.write_chrome_trace(chrome);
  EXPECT_TRUE(json_valid(chrome.str()));
}

// The event kernel's clock-jump savings are a field of its result: two
// worms separated by a long quiescent gap make the kernel skip (and
// account) thousands of idle cycles the sweep kernel would execute one by
// one.
TEST(TraceReportTest, EventKernelReportsClockJumpSavings) {
  TraceSink sink;
  const mesh::Mesh2D m(8, 8);
  const grid::CellSet blocked(m);
  const routing::XYRouter router(m, blocked);

  netsim::SimConfig config;
  config.num_vcs = 1;
  config.trace = {&sink, TraceLevel::Phase};
  netsim::WormholeSim sim(m, config);
  sim.submit(netsim::make_packet(router.route({0, 0}, {7, 7}), 1, 4, 0));
  sim.submit(netsim::make_packet(router.route({7, 0}, {0, 7}), 1, 4, 5000));
  const auto result = sim.run();

  EXPECT_EQ(result.delivered, 2u);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.cycles, 5000);
  // The ~5000-cycle gap between the worms was jumped, not simulated.
  EXPECT_GT(result.cycles_jumped, 4000);
  EXPECT_LT(result.cycles_jumped, result.cycles);
  // The run itself is still one span on the trace.
  const auto events = sink.events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const Event& e) {
                            return e.kind == EventKind::SpanEnd &&
                                   std::string_view(e.name) == "wormhole.run";
                          }),
            1);
}

TEST(TraceReportTest, MalformedLinesAreCountedNotFatal) {
  std::stringstream buf;
  buf << "{\"ev\":\"meta\",\"schema\":\"ocpmesh-trace-v1\"}\n"
      << "this is not json\n"
      << "{\"ev\":\"e\",\"name\":\"s\",\"ts_ns\":5,\"dur_ns\":5}\n"
      << "{\"ev\":\"e\",\"name\":\"s\"}\n"          // missing dur_ns
      << "{\"ev\":\"c\",\"name\":\"k\",\"value\":3}\n"  // no counters
      << "{\"ev\":\"h\",\"name\":\"s\",\"count\":1}\n"   // no histograms
      << "{\"ev\":\"??\",\"name\":\"x\",\"value\":1}\n"
      << "\n";
  const TraceReport report = summarize_jsonl(buf);
  EXPECT_EQ(report.schema, "ocpmesh-trace-v1");
  ASSERT_NE(report.span("s"), nullptr);
  EXPECT_EQ(report.span("s")->count, 1u);
  EXPECT_EQ(report.instant("k"), nullptr);
  EXPECT_EQ(report.malformed_lines, 5u);
}

TEST(TraceReportTest, EmptyInputYieldsEmptyReport) {
  std::stringstream buf;
  const TraceReport report = summarize_jsonl(buf);
  EXPECT_TRUE(report.spans.empty());
  EXPECT_TRUE(report.instants.empty());
  EXPECT_EQ(report.malformed_lines, 0u);
}

TEST(TraceReportTest, ReportTablesCoverAllSections) {
  std::stringstream buf;
  buf << "{\"ev\":\"e\",\"name\":\"s\",\"ts_ns\":5,\"dur_ns\":1000000}\n"
      << "{\"ev\":\"i\",\"name\":\"f\",\"value\":9}\n";
  const TraceReport report = summarize_jsonl(buf);
  const auto tables = report_tables(report);
  ASSERT_EQ(tables.size(), 2u);  // spans, instants

  std::stringstream out;
  print_report(report, out);
  EXPECT_NE(out.str().find("s"), std::string::npos);
  EXPECT_NE(out.str().find("f"), std::string::npos);
}

TEST(JsonValidTest, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("[1, 2.5, -3e4, 0.125]"));
  EXPECT_TRUE(json_valid(R"({"a": [true, false, null], "b": {"c": "d"}})"));
  EXPECT_TRUE(json_valid(R"("escapes: \" \\ \/ \b \f \n \r \t \u00ff")"));
  EXPECT_TRUE(json_valid("  {\n\t\"x\" : 0\r\n}  "));
}

TEST(JsonValidTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("01"));          // leading zero
  EXPECT_FALSE(json_valid("1."));          // bare decimal point
  EXPECT_FALSE(json_valid("-"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("\"bad \\x escape\""));
  EXPECT_FALSE(json_valid("\"bad \\u12g4\""));
  EXPECT_FALSE(json_valid("\"raw \x01 control\""));
  EXPECT_FALSE(json_valid("truth"));
  EXPECT_FALSE(json_valid("{'single': 1}"));
}

}  // namespace
}  // namespace ocp::obs
