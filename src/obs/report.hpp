// Trace post-processing: parse the JSON-lines export back into aggregate
// statistics (what the `obs_report` CLI prints) and validate exported JSON.
//
// The parser is line-oriented and schema-specific — each line of the v1
// export is one flat object with known keys — it is not a general JSON
// parser. `json_valid` on the other hand IS a full (structural) JSON
// checker, used by tests to assert the Chrome trace-event export is
// loadable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "stats/table.hpp"

namespace ocp::obs {

/// Aggregate of all completed spans with one name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;

  [[nodiscard]] double mean_ms() const noexcept {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
  /// Completions per second of wall time spent inside the span (e.g. fuzz
  /// cases/sec from "fuzz.instance" spans).
  [[nodiscard]] double per_second() const noexcept {
    return total_ms <= 0.0 ? 0.0
                           : static_cast<double>(count) / (total_ms / 1e3);
  }
};

/// Aggregate of all instant events with one name (value-carrying).
struct InstantStat {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

struct TraceReport {
  std::string schema;
  std::vector<SpanStat> spans;        // sorted by total_ms, descending
  std::vector<InstantStat> instants;  // sorted by name
  /// Lines that were not valid v1 records, unknown event kinds included
  /// (blank lines are not counted).
  std::size_t malformed_lines = 0;

  [[nodiscard]] const SpanStat* span(std::string_view name) const;
  [[nodiscard]] const InstantStat* instant(std::string_view name) const;
};

/// Parses a JSON-lines trace (the TraceSink::write_jsonl format) into
/// aggregates. Lines of an unknown `ev` kind and broken lines are skipped
/// and counted in `malformed_lines`.
[[nodiscard]] TraceReport summarize_jsonl(std::istream& in);

/// The two summary tables (spans, instants) as printable `stats::Table`s;
/// empty sections are omitted.
[[nodiscard]] std::vector<stats::Table> report_tables(
    const TraceReport& report);

/// Renders `report_tables` to `os` with section spacing.
void print_report(const TraceReport& report, std::ostream& os);

/// Structural JSON validity (objects, arrays, strings, numbers, booleans,
/// null; exact RFC 8259 grammar minus \u surrogate pairing). True iff the
/// whole text is one valid JSON value.
[[nodiscard]] bool json_valid(std::string_view text);

}  // namespace ocp::obs
