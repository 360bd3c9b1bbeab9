// Tracing plane tests: span recording and parenting, disabled-path
// behavior, ring-buffer wrap accounting, and Chrome trace-event export
// (parsed back with the repo's JSON decoder).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serde/json.h"

namespace rr::obs {
namespace {

// Tracing state is process-global; every test leaves it off and the ring
// empty so suites sharing the binary stay independent.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(false);
    Tracer::Get().SetCapacity(4096);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    Tracer::Get().SetCapacity(4096);
  }

  static const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                                    const std::string& name) {
    for (const SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  const uint64_t recorded_before = Tracer::Get().recorded();
  Span span("test", "disabled");
  EXPECT_FALSE(span.context().valid());  // no ambient trace, none minted
  span.End();
  EXPECT_EQ(Tracer::Get().recorded(), recorded_before);
  EXPECT_FALSE(CurrentSpanContext().valid());
}

TEST_F(TraceTest, EnabledSpansRecordAndNest) {
  SetTracingEnabled(true);
  uint64_t root_trace = 0;
  uint64_t root_span = 0;
  {
    Span root("test", "root");
    root_trace = root.context().trace_id;
    root_span = root.context().span_id;
    EXPECT_NE(root_trace, 0u);
    // The open span's context is the thread's ambient context.
    EXPECT_EQ(CurrentSpanContext().trace_id, root_trace);
    {
      Span child("test", "child");
      EXPECT_EQ(child.context().trace_id, root_trace);  // inherited
      EXPECT_NE(child.context().span_id, root_span);
    }
  }
  // Both ended: context restored, records in the ring.
  EXPECT_FALSE(CurrentSpanContext().valid());
  const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
  const SpanRecord* root = FindSpan(spans, "root");
  const SpanRecord* child = FindSpan(spans, "child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->trace_id, root_trace);
  EXPECT_EQ(child->trace_id, root_trace);
  EXPECT_EQ(child->parent_span_id, root->span_id);
  EXPECT_EQ(root->parent_span_id, 0u);
  EXPECT_STREQ(root->category, "test");
}

TEST_F(TraceTest, ScopedContextInstallsAndRestores) {
  SetTracingEnabled(true);
  const SpanContext incoming{NewTraceId(), NewSpanId()};
  {
    ScopedTraceContext scope(incoming);
    EXPECT_EQ(CurrentSpanContext().trace_id, incoming.trace_id);
    // A span opened under the installed context joins its trace and parents
    // on the installed span id — the remote-ingress stitching mechanism.
    Span span("test", "under-scope");
    EXPECT_EQ(span.context().trace_id, incoming.trace_id);
    span.End();
    const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
    const SpanRecord* record = FindSpan(spans, "under-scope");
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->parent_span_id, incoming.span_id);
  }
  EXPECT_FALSE(CurrentSpanContext().valid());
}

TEST_F(TraceTest, EndIsIdempotent) {
  SetTracingEnabled(true);
  Span span("test", "once");
  span.End();
  span.End();
  // Only one record despite two End() calls (plus the destructor later).
  size_t occurrences = 0;
  for (const SpanRecord& record : Tracer::Get().Snapshot()) {
    if (record.name == "once") ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  Tracer::Get().SetCapacity(4);
  SetTracingEnabled(true);
  for (int i = 0; i < 10; ++i) {
    Span span("test", "span-" + std::to_string(i));
  }
  const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first snapshot of the newest four.
  EXPECT_EQ(spans[0].name, "span-6");
  EXPECT_EQ(spans[3].name, "span-9");
  EXPECT_GE(Tracer::Get().dropped(), 6u);
}

TEST_F(TraceTest, ExportChromeTraceIsValidJson) {
  SetTracingEnabled(true);
  {
    Span parent("test", "export-parent \"quoted\"\n");
    Span child("test", "export-child");
  }
  SetTracingEnabled(false);

  const std::string json = ExportChromeTrace();
  const auto decoded = serde::JsonDecode(json);
  ASSERT_TRUE(decoded.ok()) << decoded.status() << "\n" << json;
  const serde::JsonValue& events = (*decoded)["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.as_array().size(), 2u);
  bool saw_child = false;
  for (const serde::JsonValue& event : events.as_array()) {
    EXPECT_EQ(event["ph"].as_string(), "X");
    EXPECT_TRUE(event["ts"].is_number());
    EXPECT_TRUE(event["dur"].is_number());
    EXPECT_TRUE(event["pid"].is_number());
    EXPECT_TRUE(event["tid"].is_number());
    ASSERT_TRUE(event["args"].is_object());
    EXPECT_EQ(event["args"]["trace_id"].as_string().size(), 16u);
    if (event["name"].as_string() == "export-child") {
      saw_child = true;
      EXPECT_NE(event["args"]["parent_span_id"].as_string(),
                "0000000000000000");
    }
  }
  EXPECT_TRUE(saw_child);
}

TEST_F(TraceTest, IdsAreNonZeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace rr::obs
