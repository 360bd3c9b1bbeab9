// Invocation tracing: every api::Runtime::Submit mints a trace id, RAII
// spans wrap the stages of a run (node invoke, guest egress, hop transfer,
// ack wait, remote ingress + invoke), and the trace context rides the
// NodeAgent frame header so a remote chain yields ONE stitched trace across
// both processes.
//
// Design points:
//
//   * The active SpanContext is thread-local. Opening a span installs its
//     context (parenting nested spans and the frames sent while it is open)
//     and restores the previous one when it ends. NodeAgent installs the
//     context it decodes from a frame header around the remote
//     receive+invoke, which is what stitches the two processes together.
//   * Tracing is globally off by default. A disabled span reads no clock
//     and records nothing; the RR_TRACE_SPAN guard used at instrumentation
//     sites skips even the span's construction. Spans are the only per-edge
//     timing the runtime keeps: an edge's wall time is its `edge:*` span.
//   * Finished spans land in a bounded in-process ring buffer; when it
//     wraps, the oldest spans are overwritten (dropped() counts them).
//     Export is Chrome trace-event JSON — load it in Perfetto or
//     chrome://tracing.
//   * Trace/span ids are 64-bit, non-zero, and process-salted (pid mixed
//     in), so ids minted by two processes of one deployment never collide.
//
// Log correlation: installing a span context publishes the trace id to the
// logger's thread-local slot (common/log.h), so every RR_LOG line emitted
// under a span carries its trace id.
#pragma once

#include <atomic>
#include <cstdint>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"

namespace rr::obs {

struct SpanContext {
  uint64_t trace_id = 0;  // 0 = no active trace
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

// The calling thread's active context ({0,0} when none).
SpanContext CurrentSpanContext();

// Fresh process-salted non-zero ids.
uint64_t NewTraceId();
uint64_t NewSpanId();

bool TracingEnabled();
// Switches tracing on or off for the process. An explicit switch wins over
// any hold: tracing stays as set until the next switch or hold.
void SetTracingEnabled(bool enabled);
// Scoped enable for owners that want tracing only while they live
// (api::Runtime with Options::tracing): the first hold turns tracing on, and
// the last release turns it off again — unless tracing was already on when
// the holds began, or someone switched it explicitly meanwhile.
void HoldTracing();
void ReleaseTracing();

// One finished span, as stored in the ring buffer.
struct SpanRecord {
  std::string name;
  const char* category = "";  // static-duration strings only
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  int pid = 0;
  int tid = 0;  // small per-process thread tag (common/log.h)
  TimePoint start{};
  Nanos duration{0};
};

// Bounded ring of finished spans.
class Tracer {
 public:
  static Tracer& Get();

  // Applies to subsequently recorded spans; existing ones are dropped.
  void SetCapacity(size_t capacity);

  void Record(SpanRecord record);

  // Oldest-first copy of the buffered spans.
  std::vector<SpanRecord> Snapshot() const;

  void Clear();

  uint64_t recorded() const;  // all-time
  uint64_t dropped() const;   // overwritten by ring wrap

 private:
  Tracer() = default;

  mutable Mutex mutex_;
  std::vector<SpanRecord> ring_ RR_GUARDED_BY(mutex_);
  size_t capacity_ RR_GUARDED_BY(mutex_) = 4096;
  size_t next_ RR_GUARDED_BY(mutex_) = 0;
  uint64_t recorded_ RR_GUARDED_BY(mutex_) = 0;
};

// Installs `context` as the thread's active context for the current scope
// (and mirrors the trace id into the logger's slot). Used where a context
// arrives from outside the thread: a DAG worker entering a node of a
// submitted run, the NodeAgent worker entering a frame's receive+invoke.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(SpanContext context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  SpanContext previous_;
};

// RAII span. Records into the Tracer and participates in context
// propagation only while tracing is enabled; a span opened while tracing is
// off is inert.
class Span {
 public:
  Span(const char* category, std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span now and records it (idempotent; the destructor calls it).
  void End();

  // This span's ids while recording; the ambient context otherwise.
  SpanContext context() const { return ctx_; }

 private:
  std::string name_;
  const char* category_;
  SpanContext ctx_{};
  uint64_t parent_span_id_ = 0;
  SpanContext previous_{};
  TimePoint start_{};
  bool recording_ = false;  // opened while tracing, not yet ended
};

// The Tracer's buffered spans as Chrome trace-event JSON (Perfetto-loadable):
// {"traceEvents":[{"ph":"X","name",...,"args":{"trace_id",...}}]}.
std::string ExportChromeTrace();

}  // namespace rr::obs

// Guarded span for instrumentation sites: when tracing is off the site costs
// one relaxed atomic load — the name expression is not evaluated and no
// clock is read. `var` is a std::optional<Span>, engaged only while
// tracing.
#define RR_TRACE_SPAN(var, category, name_expr)   \
  std::optional<rr::obs::Span> var;               \
  if (rr::obs::TracingEnabled()) {                \
    var.emplace((category), (name_expr));         \
  }
