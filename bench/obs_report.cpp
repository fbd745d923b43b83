// Summarizes an ocpmesh-trace-v1 JSON-lines trace (obs::TraceSink's
// write_jsonl output) into per-span and per-instant tables.
//
// Usage:
//   obs_report trace.jsonl
//   obs_report --strict trace.jsonl
//   obs_trace --out-dir . && obs_report trace.jsonl
//   cat trace.jsonl | obs_report
//
// Exit status: 0 when the trace contained at least one recognizable line,
// 1 on an unreadable file or a trace with nothing to summarize (so scripts
// piping a trace through this tool notice an empty or garbage capture).
// With --strict, any malformed line — a record the v1 parser rejects OR a
// line that is not structurally valid JSON (truncated object, NaN, bare
// garbage) — also exits 1; exporters are regression-gated on producing a
// byte-clean capture, not just a salvageable one.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/report.hpp"

namespace {

/// Counts non-blank lines that are not one structurally valid JSON value.
/// The v1 line parser is deliberately lenient (it scans for known keys);
/// strict mode layers the full RFC 8259 check on top of it.
std::size_t invalid_json_lines(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t invalid = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!ocp::obs::json_valid(line)) ++invalid;
  }
  return invalid;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: obs_report [--strict] [trace.jsonl]  (stdin when "
             "omitted)\n";
      return 0;
    }
    if (arg == "--strict") {
      strict = true;
      continue;
    }
    if (!path.empty()) {
      std::cerr << "obs_report: expected at most one trace file\n";
      return 2;
    }
    path = arg;
  }

  // Buffer the whole input: strict mode walks the lines twice (structural
  // check, then the v1 summarizer), and stdin only reads once.
  std::string text;
  if (path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "obs_report: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  std::istringstream stream(text);
  const ocp::obs::TraceReport report = ocp::obs::summarize_jsonl(stream);

  if (report.spans.empty() && report.instants.empty()) {
    std::cerr << "obs_report: no trace events found"
              << (report.malformed_lines > 0
                      ? " (input does not look like ocpmesh-trace-v1)"
                      : " (empty trace)")
              << "\n";
    return 1;
  }
  if (!report.schema.empty() && report.schema != "ocpmesh-trace-v1") {
    std::cerr << "obs_report: warning: unknown schema '" << report.schema
              << "', parsing as ocpmesh-trace-v1\n";
  }
  ocp::obs::print_report(report, std::cout);

  if (strict) {
    const std::size_t invalid = invalid_json_lines(text);
    if (invalid > 0 || report.malformed_lines > 0) {
      std::cerr << "obs_report: strict: " << report.malformed_lines
                << " malformed v1 record(s), " << invalid
                << " structurally invalid JSON line(s)\n";
      return 1;
    }
  }
  return 0;
}
