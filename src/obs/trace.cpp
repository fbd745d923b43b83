#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>

namespace ocp::obs {

namespace {

/// JSON string escaping for event names. Instrumentation names are
/// dotted identifiers in practice, but exporters must not emit broken JSON
/// for any input.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

TraceSink::TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t TraceSink::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceSink::ThreadState& TraceSink::thread_state() {
  const auto [it, inserted] =
      threads_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.tid = static_cast<std::uint32_t>(threads_.size() - 1);
  return it->second;
}

void TraceSink::span_begin(const char* name) {
  const std::int64_t ts = now_ns();
  const std::scoped_lock lock(events_mu_);
  ThreadState& st = thread_state();
  events_.push_back({EventKind::SpanBegin, name, ts, st.tid,
                     static_cast<std::uint32_t>(st.open.size()), 0});
  st.open.emplace_back(name, ts);
}

void TraceSink::span_end(const char* name) {
  const std::int64_t ts = now_ns();
  const std::scoped_lock lock(events_mu_);
  ThreadState& st = thread_state();
  // Pop the matching begin. Mismatched ends (a bug in instrumented code)
  // still record an event rather than corrupting the stack: unwind to the
  // matching name if present, else treat as depth-0 with zero duration.
  std::int64_t begin_ts = ts;
  auto it = std::find_if(st.open.rbegin(), st.open.rend(),
                         [&](const auto& p) { return p.first == name ||
                               std::string_view(p.first) == name; });
  if (it != st.open.rend()) {
    begin_ts = it->second;
    st.open.erase(std::prev(it.base()), st.open.end());
  }
  events_.push_back({EventKind::SpanEnd, name, ts, st.tid,
                     static_cast<std::uint32_t>(st.open.size()),
                     ts - begin_ts});
}

void TraceSink::instant(const char* name, std::int64_t value) {
  const std::int64_t ts = now_ns();
  const std::scoped_lock lock(events_mu_);
  ThreadState& st = thread_state();
  events_.push_back({EventKind::Instant, name, ts, st.tid,
                     static_cast<std::uint32_t>(st.open.size()), value});
}

std::vector<Event> TraceSink::events() const {
  const std::scoped_lock lock(events_mu_);
  return events_;
}

void TraceSink::write_jsonl(std::ostream& os) const {
  os << "{\"ev\":\"meta\",\"schema\":\"ocpmesh-trace-v1\","
        "\"clock\":\"steady_ns\"}\n";
  for (const Event& e : events()) {
    switch (e.kind) {
      case EventKind::SpanBegin:
        os << "{\"ev\":\"b\",\"name\":\"" << escape(e.name)
           << "\",\"ts_ns\":" << e.ts_ns << ",\"tid\":" << e.tid
           << ",\"depth\":" << e.depth << "}\n";
        break;
      case EventKind::SpanEnd:
        os << "{\"ev\":\"e\",\"name\":\"" << escape(e.name)
           << "\",\"ts_ns\":" << e.ts_ns << ",\"tid\":" << e.tid
           << ",\"depth\":" << e.depth << ",\"dur_ns\":" << e.value << "}\n";
        break;
      case EventKind::Instant:
        os << "{\"ev\":\"i\",\"name\":\"" << escape(e.name)
           << "\",\"ts_ns\":" << e.ts_ns << ",\"tid\":" << e.tid
           << ",\"depth\":" << e.depth << ",\"value\":" << e.value << "}\n";
        break;
    }
  }
}

void TraceSink::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const Event& e : events()) {
    const double ts_us = static_cast<double>(e.ts_ns) / 1e3;
    switch (e.kind) {
      case EventKind::SpanBegin:
        sep();
        os << "{\"ph\":\"B\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":"
           << ts_us << ",\"name\":\"" << escape(e.name) << "\"}";
        break;
      case EventKind::SpanEnd:
        sep();
        os << "{\"ph\":\"E\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":"
           << ts_us << ",\"name\":\"" << escape(e.name) << "\"}";
        break;
      case EventKind::Instant:
        sep();
        os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":"
           << ts_us << ",\"name\":\"" << escape(e.name)
           << "\",\"s\":\"t\",\"args\":{\"value\":" << e.value << "}}";
        break;
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace ocp::obs
