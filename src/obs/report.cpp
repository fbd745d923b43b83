#include "obs/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <istream>
#include <map>
#include <optional>
#include <ostream>

namespace ocp::obs {

namespace {

/// Raw value of `"key":` on a flat one-object line, or nullopt. String
/// values are returned unquoted (with escapes left as-is — v1 names rarely
/// contain any; consumers only compare them).
std::optional<std::string> field(const std::string& line,
                                 std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::string value = line.substr(pos + needle.size());
  if (!value.empty() && value.front() == '"') {
    // String value: scan to the closing unescaped quote.
    std::string out;
    for (std::size_t i = 1; i < value.size(); ++i) {
      if (value[i] == '\\' && i + 1 < value.size()) {
        out.push_back(value[++i]);
      } else if (value[i] == '"') {
        return out;
      } else {
        out.push_back(value[i]);
      }
    }
    return std::nullopt;  // unterminated string
  }
  const auto end = value.find_first_of(",}");
  if (end != std::string::npos) value = value.substr(0, end);
  while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
    value.pop_back();
  }
  return value;
}

std::optional<std::int64_t> int_field(const std::string& line,
                                      std::string_view key) {
  const auto v = field(line, key);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const std::int64_t parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str()) return std::nullopt;
  return parsed;
}

std::string format_count(std::uint64_t n) { return std::to_string(n); }

}  // namespace

const SpanStat* TraceReport::span(std::string_view name) const {
  for (const SpanStat& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const InstantStat* TraceReport::instant(std::string_view name) const {
  for (const InstantStat& s : instants) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TraceReport summarize_jsonl(std::istream& in) {
  TraceReport report;
  std::map<std::string, SpanStat> spans;
  std::map<std::string, InstantStat> instants;

  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto ev = field(line, "ev");
    const auto name = field(line, "name");
    if (!ev) {
      ++report.malformed_lines;
      continue;
    }
    if (*ev == "meta") {
      if (const auto schema = field(line, "schema")) report.schema = *schema;
      continue;
    }
    if (!name) {
      ++report.malformed_lines;
      continue;
    }
    if (*ev == "b") {
      continue;  // durations come from the matching "e" line
    }
    if (*ev == "e") {
      const auto dur = int_field(line, "dur_ns");
      if (!dur) {
        ++report.malformed_lines;
        continue;
      }
      SpanStat& s = spans[*name];
      const double ms = static_cast<double>(*dur) / 1e6;
      if (s.count == 0) {
        s.name = *name;
        s.min_ms = s.max_ms = ms;
      }
      ++s.count;
      s.total_ms += ms;
      s.min_ms = std::min(s.min_ms, ms);
      s.max_ms = std::max(s.max_ms, ms);
    } else if (*ev == "i") {
      const auto value = int_field(line, "value");
      if (!value) {
        ++report.malformed_lines;
        continue;
      }
      InstantStat& s = instants[*name];
      if (s.count == 0) {
        s.name = *name;
        s.min = s.max = *value;
      }
      ++s.count;
      s.sum += *value;
      s.min = std::min(s.min, *value);
      s.max = std::max(s.max, *value);
    } else {
      ++report.malformed_lines;  // an event kind v1 does not have
    }
  }

  for (auto& [_, s] : spans) report.spans.push_back(std::move(s));
  std::sort(report.spans.begin(), report.spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              return a.total_ms > b.total_ms;
            });
  for (auto& [_, s] : instants) report.instants.push_back(std::move(s));
  return report;
}

std::vector<stats::Table> report_tables(const TraceReport& report) {
  std::vector<stats::Table> tables;
  if (!report.spans.empty()) {
    stats::Table spans({"span", "count", "total ms", "mean ms", "min ms",
                        "max ms", "count/s"});
    for (const SpanStat& s : report.spans) {
      spans.add_row({s.name, format_count(s.count),
                     stats::format_double(s.total_ms, 3),
                     stats::format_double(s.mean_ms(), 3),
                     stats::format_double(s.min_ms, 3),
                     stats::format_double(s.max_ms, 3),
                     stats::format_double(s.per_second(), 1)});
    }
    tables.push_back(std::move(spans));
  }
  if (!report.instants.empty()) {
    stats::Table instants({"instant", "count", "sum", "min", "max"});
    for (const InstantStat& s : report.instants) {
      instants.add_row({s.name, format_count(s.count),
                        std::to_string(s.sum), std::to_string(s.min),
                        std::to_string(s.max)});
    }
    tables.push_back(std::move(instants));
  }
  return tables;
}

void print_report(const TraceReport& report, std::ostream& os) {
  bool first = true;
  for (const stats::Table& t : report_tables(report)) {
    if (!first) os << "\n";
    first = false;
    t.print(os);
  }
  if (report.malformed_lines > 0) {
    os << "\n(" << report.malformed_lines << " malformed line(s) skipped)\n";
  }
}

// ---------------------------------------------------------------------------
// Structural JSON validation (recursive descent over RFC 8259).

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (depth_ > 256 || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  [[nodiscard]] bool object() {
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"' || !string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool array() {
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool string() {
    ++pos_;  // '"'
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control character
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_valid(std::string_view text) {
  return JsonChecker(text).valid();
}

}  // namespace ocp::obs
