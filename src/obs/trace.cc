#include "obs/trace.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>

#include "common/log.h"
#include "common/mutex.h"

namespace rr::obs {
namespace {

std::atomic<bool> g_tracing_enabled{false};
thread_local SpanContext t_context;

// splitmix64: decorrelates the (pid, counter, clock) mix into ids that are
// unique per process and effectively unique across the processes of one
// deployment.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t NewId() {
  static const uint64_t salt =
      Mix(static_cast<uint64_t>(::getpid()) ^
          static_cast<uint64_t>(Now().time_since_epoch().count()));
  static std::atomic<uint64_t> counter{1};
  const uint64_t id =
      Mix(salt ^ (counter.fetch_add(1, std::memory_order_relaxed) << 1));
  return id != 0 ? id : 1;
}

void InstallContext(SpanContext context) {
  t_context = context;
  SetLogTraceId(context.trace_id);
}

void AppendJsonEscaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace

SpanContext CurrentSpanContext() { return t_context; }

uint64_t NewTraceId() { return NewId(); }
uint64_t NewSpanId() { return NewId(); }

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

// Holds taken through HoldTracing, and whether they (not an explicit
// switch) are what turned tracing on.
struct TracingHolds {
  Mutex mutex;
  size_t count RR_GUARDED_BY(mutex) = 0;
  bool switched_on RR_GUARDED_BY(mutex) = false;
};

TracingHolds& Holds() {
  static TracingHolds* holds = new TracingHolds();
  return *holds;
}

void SetTracingEnabled(bool enabled) {
  TracingHolds& holds = Holds();
  MutexLock lock(holds.mutex);
  holds.switched_on = false;
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void HoldTracing() {
  TracingHolds& holds = Holds();
  MutexLock lock(holds.mutex);
  ++holds.count;
  if (!g_tracing_enabled.load(std::memory_order_relaxed)) {
    holds.switched_on = true;
    g_tracing_enabled.store(true, std::memory_order_relaxed);
  }
}

void ReleaseTracing() {
  TracingHolds& holds = Holds();
  MutexLock lock(holds.mutex);
  if (holds.count == 0 || --holds.count > 0 || !holds.switched_on) return;
  holds.switched_on = false;
  g_tracing_enabled.store(false, std::memory_order_relaxed);
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: spans may be
  return *tracer;                        // recorded from static teardown
}

void Tracer::SetCapacity(size_t capacity) {
  MutexLock lock(mutex_);
  capacity_ = capacity > 0 ? capacity : 1;
  ring_.clear();
  ring_.shrink_to_fit();
  next_ = 0;
}

void Tracer::Record(SpanRecord record) {
  MutexLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<SpanRecord> spans;
  spans.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    spans.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return spans;
}

void Tracer::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
}

uint64_t Tracer::recorded() const {
  MutexLock lock(mutex_);
  return recorded_;
}

uint64_t Tracer::dropped() const {
  MutexLock lock(mutex_);
  return recorded_ >= ring_.size() ? recorded_ - ring_.size() : 0;
}

ScopedTraceContext::ScopedTraceContext(SpanContext context)
    : previous_(t_context) {
  InstallContext(context);
}

ScopedTraceContext::~ScopedTraceContext() { InstallContext(previous_); }

Span::Span(const char* category, std::string name)
    : name_(std::move(name)), category_(category) {
  if (TracingEnabled()) {
    recording_ = true;
    previous_ = t_context;
    ctx_.trace_id =
        previous_.valid() ? previous_.trace_id : NewTraceId();
    ctx_.span_id = NewSpanId();
    parent_span_id_ = previous_.span_id;
    InstallContext(ctx_);
    start_ = Now();
  } else {
    ctx_ = t_context;
  }
}

Span::~Span() { End(); }

void Span::End() {
  if (!recording_) return;
  recording_ = false;
  InstallContext(previous_);
  SpanRecord record;
  record.name = std::move(name_);
  record.category = category_;
  record.trace_id = ctx_.trace_id;
  record.span_id = ctx_.span_id;
  record.parent_span_id = parent_span_id_;
  record.pid = static_cast<int>(::getpid());
  record.tid = CurrentThreadTag();
  record.start = start_;
  record.duration = Now() - start_;
  Tracer::Get().Record(std::move(record));
}

std::string ExportChromeTrace() {
  const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i != 0) out.push_back(',');
    out += "{\"ph\":\"X\",\"name\":\"";
    AppendJsonEscaped(out, span.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, span.category);
    // ts/dur are microseconds; ts is on the process's monotonic clock, which
    // co-located processes share, so loopback multi-process traces line up.
    std::snprintf(
        buffer, sizeof(buffer),
        "\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace_id\":\"%016" PRIx64 "\",\"span_id\":\"%016" PRIx64
        "\",\"parent_span_id\":\"%016" PRIx64 "\"}}",
        span.pid, span.tid,
        static_cast<double>(span.start.time_since_epoch().count()) / 1000.0,
        static_cast<double>(span.duration.count()) / 1000.0, span.trace_id,
        span.span_id, span.parent_span_id);
    out += buffer;
  }
  out += "]}";
  return out;
}

}  // namespace rr::obs
