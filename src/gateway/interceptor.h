// The gateway's middleware pipeline: composable interceptors with paired
// enter/return phases around workflow dispatch.
//
// A request flows
//
//   global enter -> route enter -> dispatch -> route return -> global return
//
// where the chain a route executes is the global interceptor list followed
// by the route's own, entered front-to-back and returned back-to-front —
// an interceptor always sees the return phase of everything it admitted.
//
// Short-circuiting:
//   * OnEnter returning a non-OK Status vetoes the request. Interceptors
//     entered before the vetoing one still get their OnReturn; the vetoing
//     one does not (it never admitted the request). The response is mapped
//     from the Status — HttpStatusFor — unless the interceptor staged a
//     specific status/headers in the context first (401 challenges, 429
//     Retry-After).
//   * OnEnter may answer directly (health checks): fill ctx.response, set
//     ctx.short_circuited, return OK. Dispatch is skipped and the return
//     phase unwinds through the answering interceptor.
//
// OnEnter always runs on the gateway's event loop — it must not block (a
// TryConsume, a map lookup, a header edit; never a Consume or an I/O wait).
// OnReturn runs wherever the response was produced: the event loop for
// short circuits, the thread that finished the run for dispatched requests
// (see api::Invocation::NotifyDone). An
// interceptor shared across requests synchronizes its own state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/token_bucket.h"
#include "http/epoll_server.h"

namespace rr::gateway {

struct RequestContext {
  http::Request request;
  // The pipeline name the router matched ("" until routed / non-invoke).
  std::string route;
  std::string tenant = "anonymous";
  uint64_t trace_id = 0;
  TimePoint received{};

  // The response under construction. Dispatch fills it from the run result;
  // a short-circuiting interceptor fills it instead. Return-phase
  // interceptors may decorate it (headers) on the way out.
  http::StreamResponse response;
  bool short_circuited = false;

  // When a veto Status has no natural HTTP mapping (401 vs 403, 413 vs
  // 429), the vetoing interceptor stages the exact code here.
  int error_http_status = 0;
};

class Interceptor {
 public:
  virtual ~Interceptor() = default;
  virtual std::string_view name() const = 0;
  virtual Status OnEnter(RequestContext& ctx) = 0;
  virtual void OnReturn(RequestContext& ctx) {}
};

// An ordered interceptor list with unwind bookkeeping.
class InterceptorChain {
 public:
  InterceptorChain() = default;
  explicit InterceptorChain(
      std::vector<std::shared_ptr<Interceptor>> interceptors)
      : interceptors_(std::move(interceptors)) {}

  // Runs enter phases front-to-back. `entered` is set to the number of
  // interceptors that admitted the request (and therefore owe a return
  // phase) — on veto, everything before the vetoing interceptor.
  Status RunEnter(RequestContext& ctx, size_t* entered) const;

  // Unwinds return phases back-to-front across the first `entered`.
  void RunReturn(RequestContext& ctx, size_t entered) const;

  size_t size() const { return interceptors_.size(); }

 private:
  std::vector<std::shared_ptr<Interceptor>> interceptors_;
};

// Maps a veto/dispatch Status onto the HTTP status line.
int HttpStatusFor(StatusCode code);
const char* HttpReasonFor(int status);

// Builds the error response for a vetoed or failed request: JSON body with
// the status message, honoring any staged error_http_status/headers.
http::StreamResponse ErrorResponse(const RequestContext& ctx,
                                   const Status& status);

// --- built-in interceptors ---------------------------------------------------

// Tags every request with a trace id (reusing an incoming X-Request-Id when
// it parses as one of ours) and echoes it back as X-Request-Id. When the
// runtime's tracing is on, the id stitches the gateway edge and the run's
// spans into one trace.
class RequestIdInterceptor : public Interceptor {
 public:
  std::string_view name() const override { return "request-id"; }
  Status OnEnter(RequestContext& ctx) override;
  void OnReturn(RequestContext& ctx) override;
};

// Bearer-token authentication stub: a static token -> tenant table. Not a
// credential system — the seam where one plugs in. Missing credentials are
// 401 (or admitted as "anonymous" when allowed); unknown tokens are 403.
class AuthInterceptor : public Interceptor {
 public:
  struct Options {
    std::map<std::string, std::string> token_to_tenant;
    bool allow_anonymous = true;
  };
  explicit AuthInterceptor(Options options) : options_(std::move(options)) {}

  std::string_view name() const override { return "auth"; }
  Status OnEnter(RequestContext& ctx) override;

 private:
  const Options options_;
};

// Rejects request bodies over the limit with 413 before they reach a
// pipeline. (The HTTP parser already bounds what gets buffered; this is the
// per-route/per-deployment policy knob on top.)
class BodyLimitInterceptor : public Interceptor {
 public:
  explicit BodyLimitInterceptor(size_t max_body_bytes)
      : max_body_bytes_(max_body_bytes) {}

  std::string_view name() const override { return "body-limit"; }
  Status OnEnter(RequestContext& ctx) override;

 private:
  const size_t max_body_bytes_;
};

// Per-tenant request-rate quota on a RequestBucket (requests/s + burst).
// Over-quota requests are shed with 429 and a Retry-After hint from the
// bucket's refill schedule.
class RateLimitInterceptor : public Interceptor {
 public:
  RateLimitInterceptor(double requests_per_sec, uint64_t burst)
      : rate_(requests_per_sec), burst_(burst) {}

  std::string_view name() const override { return "rate-limit"; }
  Status OnEnter(RequestContext& ctx) override;

 private:
  RequestBucket& BucketFor(const std::string& tenant);

  const double rate_;
  const uint64_t burst_;
  Mutex mutex_;
  // unique_ptr keeps handed-out bucket references address-stable; the
  // buckets themselves are internally synchronized.
  std::map<std::string, std::unique_ptr<RequestBucket>> buckets_
      RR_GUARDED_BY(mutex_);
};

// Answers GET /healthz inline with liveness JSON — before auth and quotas,
// so orchestrator probes never consume tenant budget or need credentials.
class HealthCheckInterceptor : public Interceptor {
 public:
  using Fields = std::function<std::vector<std::pair<std::string, int64_t>>()>;
  explicit HealthCheckInterceptor(Fields fields = nullptr)
      : fields_(std::move(fields)) {}

  std::string_view name() const override { return "health"; }
  Status OnEnter(RequestContext& ctx) override;

 private:
  const Fields fields_;
};

// Load shedding at the front door, fed by the runtime's own signals: the
// in-flight run count (rr_inflight_runs's source) and the instance-pool
// lease-wait histogram (rr_pool_lease_wait_seconds). When either says the
// backend is saturated, new work is shed with 429 + Retry-After instead of
// queueing into a latency collapse.
class AdmissionInterceptor : public Interceptor {
 public:
  struct Options {
    // Reject when this many runs are already in flight. 0 = no bound.
    size_t max_inflight_runs = 0;
    // Reject while the average pool lease wait over the sampling window
    // exceeds this many seconds. <= 0 disables the signal.
    double max_avg_lease_wait_seconds = 0;
    Nanos sample_window = std::chrono::milliseconds(100);
    // Source of the live in-flight count (e.g. api::Runtime::in_flight).
    std::function<size_t()> inflight;
  };
  explicit AdmissionInterceptor(Options options);

  std::string_view name() const override { return "admission"; }
  Status OnEnter(RequestContext& ctx) override;

 private:
  bool LeaseWaitSaturated();

  const Options options_;
  Mutex mutex_;
  TimePoint last_sample_ RR_GUARDED_BY(mutex_){};
  double last_sum_ RR_GUARDED_BY(mutex_) = 0;
  uint64_t last_count_ RR_GUARDED_BY(mutex_) = 0;
  bool saturated_ RR_GUARDED_BY(mutex_) = false;
};

}  // namespace rr::gateway
