// Compacts google-benchmark JSON output into the stable BENCH_*.json format
// committed at the repo root, and diffs fresh runs against those baselines.
//
// The full benchmark JSON embeds host details (CPU caches, load average,
// timestamps) that churn on every run and machine, which would make the
// committed baselines undiffable. This tool keeps only what the perf
// trajectory needs: benchmark name, real/cpu time in milliseconds, and
// throughput.
//
// Usage:
//   bench_to_json <google-benchmark-output.json>
//       Compact JSON to stdout.
//   bench_to_json <google-benchmark-output.json> --compare <BENCH_x.json>
//                 [--tolerance <frac>] [--allow-new] [--ref <str>]
//       Also diff against a committed compact baseline: per-benchmark
//       real-time ratios go to stderr, and the exit status is 1 when any
//       benchmark present in both files got slower by more than the
//       tolerance band (default 0.30 = 30%, generous because these runs
//       share the machine with the build). A benchmark present in the run
//       but absent from the baseline is an error unless --allow-new is
//       given — an unknown key usually means the baseline was not
//       refreshed after adding a benchmark, and silently skipping it would
//       let the new code ship ungated. Benchmarks missing from the run are
//       only reported: BENCH_FILTER subsets legitimately produce them.
//       The failure preamble names the baseline file and, when --ref is
//       given (run_bench.sh passes the current git commit), the ref the
//       fresh run was built from — a CI log line is then self-contained:
//       which code regressed against which committed baseline.
//
// Repetitions: a run with --benchmark_repetitions=N reports each repetition
// plus mean/median/stddev/cv aggregates. Each benchmark is then kept once,
// as its median under the plain benchmark name, so the compact file and the
// comparison both read medians (one pass swings with the host's busy and
// quiet phases; the median of five does much less).
//
// Parsing note: google-benchmark emits one "key": value pair per line inside
// the "benchmarks" array, and the compact format keeps one entry per line,
// so a line-oriented scan is reliable for both; this is not a general JSON
// parser and does not try to be one.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchEntry {
  std::string name;
  /// The benchmark an aggregate row summarizes (google-benchmark's
  /// "run_name"); empty when the input predates the field.
  std::string run_name;
  /// "median", "mean", ... for aggregate rows; empty for measured runs.
  std::string aggregate;
  double real_time = 0;
  double cpu_time = 0;
  std::string time_unit = "ns";
  std::optional<double> items_per_second;
};

/// Value of `"key": <value>` on `line`, or nullopt when the key is absent.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::string value = line.substr(pos + needle.size());
  // Trim whitespace and a trailing comma; stop a one-line entry at the next
  // field or closing brace.
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.erase(value.begin());
  }
  const auto end = value.find_first_of(",}");
  if (end != std::string::npos) value = value.substr(0, end);
  while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
    value.pop_back();
  }
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

double to_ms(double value, const std::string& unit) {
  if (unit == "ns") return value / 1e6;
  if (unit == "us") return value / 1e3;
  if (unit == "ms") return value;
  if (unit == "s") return value * 1e3;
  return value;
}

/// JSON-escape for benchmark names (they contain only [\w/:.<>,-] in
/// practice, but be safe about quotes and backslashes).
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Parses the full google-benchmark JSON (one field per line).
std::vector<BenchEntry> parse_full(std::istream& in) {
  std::vector<BenchEntry> entries;
  BenchEntry current;
  bool in_benchmarks = false;
  bool in_entry = false;
  std::string line;
  while (std::getline(in, line)) {
    if (!in_benchmarks) {
      if (line.find("\"benchmarks\"") != std::string::npos) {
        in_benchmarks = true;
      }
      continue;
    }
    if (!in_entry && line.find('{') != std::string::npos) {
      in_entry = true;
      current = BenchEntry{};
      continue;
    }
    if (!in_entry) continue;

    if (const auto v = field(line, "name")) {
      current.name = *v;
    } else if (const auto run = field(line, "run_name")) {
      current.run_name = *run;
    } else if (const auto agg = field(line, "aggregate_name")) {
      current.aggregate = *agg;
    } else if (const auto rt = field(line, "real_time")) {
      current.real_time = std::strtod(rt->c_str(), nullptr);
    } else if (const auto ct = field(line, "cpu_time")) {
      current.cpu_time = std::strtod(ct->c_str(), nullptr);
    } else if (const auto tu = field(line, "time_unit")) {
      current.time_unit = *tu;
    } else if (const auto ips = field(line, "items_per_second")) {
      current.items_per_second = std::strtod(ips->c_str(), nullptr);
    }

    if (line.find('}') != std::string::npos) {
      in_entry = false;
      // Skip aggregate/error rows without a name; keep real measurements.
      if (!current.name.empty()) entries.push_back(current);
    }
  }
  return entries;
}

/// One entry per benchmark, in first-seen order: the median aggregate under
/// the benchmark's own name when repetitions produced one, else its single
/// run. Other aggregates (mean, stddev, cv) are dropped.
std::vector<BenchEntry> medians(const std::vector<BenchEntry>& entries) {
  std::vector<BenchEntry> out;
  for (const BenchEntry& e : entries) {
    if (!e.aggregate.empty() && e.aggregate != "median") continue;
    BenchEntry kept = e;
    if (!e.run_name.empty()) kept.name = e.run_name;
    auto it = std::find_if(out.begin(), out.end(), [&](const BenchEntry& o) {
      return o.name == kept.name;
    });
    if (it == out.end()) {
      out.push_back(kept);
    } else if (e.aggregate == "median") {
      *it = kept;  // replaces the first repetition, keeping its position
    }
  }
  return out;
}

/// Parses the compact committed format (one entry per line, ms units).
std::vector<BenchEntry> parse_compact(std::istream& in) {
  std::vector<BenchEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    const auto name = field(line, "name");
    const auto rt = field(line, "real_time_ms");
    if (!name || !rt) continue;
    BenchEntry e;
    e.name = *name;
    e.real_time = std::strtod(rt->c_str(), nullptr);
    e.time_unit = "ms";
    if (const auto ct = field(line, "cpu_time_ms")) {
      e.cpu_time = std::strtod(ct->c_str(), nullptr);
    }
    entries.push_back(e);
  }
  return entries;
}

const BenchEntry* find(const std::vector<BenchEntry>& entries,
                       const std::string& name) {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

/// Reports per-benchmark real-time ratios; returns one summary line per
/// failure (a regression beyond the tolerance band, or — unless `allow_new`
/// — a benchmark the baseline has no entry for), so the caller's failure
/// message can name every offender with its delta instead of a bare count.
std::vector<std::string> compare(const std::vector<BenchEntry>& fresh,
                                 const std::vector<BenchEntry>& baseline,
                                 double tolerance, bool allow_new) {
  std::vector<std::string> failures;
  std::cerr << "== baseline comparison (tolerance +"
            << static_cast<int>(tolerance * 100) << "%)\n";
  for (const auto& base : baseline) {
    const BenchEntry* now = find(fresh, base.name);
    if (now == nullptr) {
      std::cerr << "  MISSING  " << base.name
                << " (in baseline, not in this run)\n";
      continue;
    }
    const double base_ms = to_ms(base.real_time, base.time_unit);
    const double now_ms = to_ms(now->real_time, now->time_unit);
    const double ratio = base_ms > 0 ? now_ms / base_ms : 1.0;
    const bool regressed = ratio > 1.0 + tolerance;
    if (regressed) {
      std::ostringstream line;
      line.precision(4);
      line << base.name << ": " << base_ms << " ms -> " << now_ms << " ms ("
           << (ratio >= 1.0 ? "+" : "") << (ratio - 1.0) * 100
           << "%, band +" << tolerance * 100 << "%)";
      failures.push_back(line.str());
    }
    std::cerr << (regressed ? "  REGRESSED " : "  ok        ") << base.name
              << ": " << base_ms << " ms -> " << now_ms << " ms ("
              << (ratio >= 1.0 ? "+" : "") << (ratio - 1.0) * 100 << "%)\n";
  }
  for (const auto& now : fresh) {
    if (find(baseline, now.name) == nullptr) {
      if (!allow_new) {
        failures.push_back(now.name +
                           ": not in baseline (refresh it or pass "
                           "--allow-new)");
      }
      std::cerr << (allow_new ? "  NEW      " : "  UNKNOWN  ") << now.name
                << ": " << to_ms(now.real_time, now.time_unit) << " ms"
                << (allow_new
                        ? "\n"
                        : " (not in baseline; refresh it or pass "
                          "--allow-new)\n");
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string baseline_path;
  std::string ref;
  double tolerance = 0.30;
  bool allow_new = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--allow-new") {
      allow_new = true;
    } else if (arg == "--ref" && i + 1 < argc) {
      ref = argv[++i];
    } else if (input.empty()) {
      input = arg;
    } else {
      input.clear();
      break;
    }
  }
  if (input.empty()) {
    std::cerr << "usage: bench_to_json <google-benchmark-output.json> "
                 "[--compare BENCH_x.json] [--tolerance frac] [--allow-new] "
                 "[--ref str]\n";
    return 2;
  }
  std::ifstream in(input);
  if (!in) {
    std::cerr << "bench_to_json: cannot open " << input << "\n";
    return 1;
  }
  const std::vector<BenchEntry> entries = medians(parse_full(in));

  std::ostringstream out;
  out.precision(6);
  out << "{\n  \"schema\": \"ocpmesh-bench-v1\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    out << "    {\"name\": \"" << escape(e.name) << "\", \"real_time_ms\": "
        << to_ms(e.real_time, e.time_unit) << ", \"cpu_time_ms\": "
        << to_ms(e.cpu_time, e.time_unit);
    if (e.items_per_second) {
      out << ", \"items_per_second\": " << *e.items_per_second;
    }
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << out.str();

  if (!baseline_path.empty()) {
    std::ifstream base_in(baseline_path);
    if (!base_in) {
      std::cerr << "bench_to_json: cannot open baseline " << baseline_path
                << "\n";
      return 1;
    }
    const std::vector<BenchEntry> baseline = parse_compact(base_in);
    if (baseline.empty()) {
      std::cerr << "bench_to_json: no entries in baseline " << baseline_path
                << "\n";
      return 1;
    }
    const std::vector<std::string> failures =
        compare(entries, baseline, tolerance, allow_new);
    if (!failures.empty()) {
      // Self-contained failure preamble: which baseline, and which code.
      std::cerr << failures.size() << " benchmark(s) failed the gate\n"
                << "  baseline: " << baseline_path << "\n";
      if (!ref.empty()) std::cerr << "  run ref:  " << ref << "\n";
      for (const std::string& f : failures) std::cerr << "  - " << f << "\n";
      return 1;
    }
    std::cerr << "no regressions beyond the tolerance band\n";
  }
  return 0;
}
