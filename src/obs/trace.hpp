// Timelines: scoped spans and value-carrying instant events over one
// thread-safe in-memory sink, exported as JSON-lines or Chrome trace-event
// JSON ("chrome://tracing" / Perfetto). A trace records those two things
// and nothing else; how many of anything happened is a field of the typed
// stats and result structs the instrumented code already returns
// (`IngestStats`, `AllocStats`, `sim::RoundStats`, ...), traced or not.
//
// Every instrumented call site holds an `obs::TraceConfig` whose sink
// pointer is null by default; the disabled path is a single branch-on-null
// (the committed bench baselines are produced with tracing off).
//
// Event names are `const char*` and must point at static-duration strings
// (every call site passes a literal); this keeps recording allocation-free
// on the event path. Span begin/end pairing is tracked per thread, which
// yields nesting depth and exact durations without any matching pass in the
// exporters.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ocp::obs {

/// What one recorded event is.
enum class EventKind : std::uint8_t {
  SpanBegin = 0,
  /// `value` holds the span duration in nanoseconds.
  SpanEnd = 1,
  /// A point-in-time observation; `value` holds the payload (e.g. the
  /// frontier size of the round being reported).
  Instant = 2,
};

/// One trace event. Timestamps are nanoseconds since the sink's creation
/// (steady clock); `tid` is a dense sink-local thread id; `depth` is the
/// number of spans open on that thread when the event fired.
struct Event {
  EventKind kind = EventKind::Instant;
  const char* name = "";
  std::int64_t ts_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::int64_t value = 0;
};

/// How much detail instrumented code emits.
enum class TraceLevel : std::uint8_t {
  /// Phase-level spans only.
  Phase = 0,
  /// Additionally per-round / per-instance / per-trial events — more
  /// volume, full convergence timelines.
  Round = 1,
};

/// Collects events from any number of threads. One sink spans one traced
/// run; exporters snapshot under the lock the recorders take, so exporting
/// mid-run is safe (if rarely useful).
class TraceSink {
 public:
  TraceSink();

  /// Nanoseconds since construction (steady clock).
  [[nodiscard]] std::int64_t now_ns() const;

  void span_begin(const char* name);
  void span_end(const char* name);
  void instant(const char* name, std::int64_t value);

  [[nodiscard]] std::vector<Event> events() const;

  /// One JSON object per line: a meta header, then b/e/i event lines in
  /// record order. Schema: "ocpmesh-trace-v1" (parsed back by
  /// obs/report.hpp).
  void write_jsonl(std::ostream& os) const;
  /// Chrome trace-event JSON object format: {"traceEvents": [...]}; loads
  /// in chrome://tracing and Perfetto.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct ThreadState {
    std::uint32_t tid = 0;
    /// Open spans on this thread: (name, begin ts_ns).
    std::vector<std::pair<const char*, std::int64_t>> open;
  };

  ThreadState& thread_state();  // callers hold events_mu_

  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex events_mu_;
  std::vector<Event> events_;
  std::unordered_map<std::thread::id, ThreadState> threads_;
};

/// The value-type handle instrumented code holds: a sink pointer (null =
/// disabled) plus the verbosity. Copy freely; default construction is the
/// disabled state.
struct TraceConfig {
  TraceSink* sink = nullptr;
  TraceLevel level = TraceLevel::Phase;

  [[nodiscard]] bool enabled() const noexcept { return sink != nullptr; }
  /// True when per-round detail should be emitted.
  [[nodiscard]] bool rounds() const noexcept {
    return enabled() && level >= TraceLevel::Round;
  }

  void instant(const char* name, std::int64_t value) const {
    if (enabled()) sink->instant(name, value);
  }
};

/// RAII scoped span. Records begin on construction and end (with duration)
/// on destruction when the trace is enabled — otherwise both are a null
/// check. The optional `enable` gate lets call sites condition a span on
/// verbosity: `Span s(trace, "x", trace.rounds())`.
class Span {
 public:
  Span(const TraceConfig& trace, const char* name, bool enable = true)
      : sink_(enable && trace.enabled() ? trace.sink : nullptr), name_(name) {
    if (sink_ != nullptr) sink_->span_begin(name_);
  }
  ~Span() {
    if (sink_ != nullptr) sink_->span_end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
};

}  // namespace ocp::obs
