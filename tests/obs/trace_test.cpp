#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

namespace ocp::obs {
namespace {

TEST(TraceSinkTest, SpanNestingRecordsDepthsAndOrdering) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Round};
  {
    const Span outer(trace, "outer");
    {
      const Span inner(trace, "inner");
    }
    sink.instant("mark", 42);
  }

  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, EventKind::SpanBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].kind, EventKind::SpanBegin);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].kind, EventKind::SpanEnd);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 1u);  // depth of the span itself
  EXPECT_EQ(events[3].kind, EventKind::Instant);
  EXPECT_EQ(events[3].value, 42);
  EXPECT_EQ(events[3].depth, 1u);  // fired while "outer" was open
  EXPECT_EQ(events[4].kind, EventKind::SpanEnd);
  EXPECT_STREQ(events[4].name, "outer");
  EXPECT_EQ(events[4].depth, 0u);

  // Timestamps are monotone in record order and durations are consistent:
  // outer fully contains inner.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
  EXPECT_GE(events[2].value, 0);              // inner duration
  EXPECT_GE(events[4].value, events[2].value);  // outer >= inner
}

TEST(TraceSinkTest, SpanEndWithoutBeginDoesNotCorruptTheStack) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Phase};
  sink.span_end("never_opened");  // instrumentation bug: still recorded
  {
    const Span s(trace, "real");
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::SpanEnd);
  EXPECT_EQ(events[0].value, 0);  // no matching begin: zero duration
  EXPECT_STREQ(events[1].name, "real");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[2].kind, EventKind::SpanEnd);
}

TEST(TraceSinkTest, SpanGateSuppressesRecording) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Phase};
  EXPECT_FALSE(trace.rounds());  // Phase level: no per-round detail
  {
    const Span s(trace, "round", trace.rounds());
  }
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSinkTest, ThreadsGetDistinctDenseTids) {
  TraceSink sink;
  const TraceConfig trace{&sink, TraceLevel::Round};
  {
    const Span main_span(trace, "main");
    std::thread worker([&] { const Span s(trace, "worker"); });
    worker.join();
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  std::uint32_t main_tid = 0;
  std::uint32_t worker_tid = 0;
  for (const Event& e : events) {
    if (std::string_view(e.name) == "main") main_tid = e.tid;
    if (std::string_view(e.name) == "worker") worker_tid = e.tid;
  }
  EXPECT_NE(main_tid, worker_tid);
  EXPECT_LT(main_tid, 2u);  // dense ids, not hashes
  EXPECT_LT(worker_tid, 2u);
  // The worker's span does not see the main thread's open span as a parent.
  for (const Event& e : events) {
    if (std::string_view(e.name) == "worker") {
      EXPECT_EQ(e.depth, 0u);
    }
  }
}

TEST(TraceConfigTest, RoundsRequiresRoundLevel) {
  TraceSink sink;
  EXPECT_TRUE((TraceConfig{&sink, TraceLevel::Round}).rounds());
  EXPECT_FALSE((TraceConfig{&sink, TraceLevel::Phase}).rounds());
  EXPECT_TRUE((TraceConfig{&sink, TraceLevel::Phase}).enabled());
}

TEST(TraceConfigTest, DefaultConfigIsDisabledAndAllHooksAreNoOps) {
  const TraceConfig trace;  // null sink
  EXPECT_FALSE(trace.enabled());
  EXPECT_FALSE(trace.rounds());
  // None of these may touch a sink (there is none to touch).
  trace.instant("y", 2);
  {
    const Span s(trace, "z");
  }
}

TEST(TraceConfigTest, DisabledTraceLeavesAByStanderSinkUntouched) {
  TraceSink sink;
  const TraceConfig disabled;  // does NOT point at `sink`
  {
    const Span s(disabled, "ghost");
  }
  disabled.instant("ghost", 7);
  EXPECT_TRUE(sink.events().empty());
}

}  // namespace
}  // namespace ocp::obs
