#include "gateway/gateway.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rr::gateway {
namespace {

constexpr std::string_view kInvokePrefix = "/v1/invoke/";

obs::Counter& RequestsTotal(int status_code) {
  // One series per status code actually answered; the handful of codes the
  // gateway emits keeps the family small.
  static obs::Registry& registry = obs::Registry::Get();
  return *registry.counter("rr_gateway_requests_total",
                           "requests answered by the gateway",
                           {{"code", std::to_string(status_code)}});
}

obs::Counter& ShedTotal() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_gateway_shed_total",
      "requests shed by quota or admission control (429s)");
  return *counter;
}

obs::Histogram& RequestLatency() {
  static obs::Histogram* histogram = obs::Registry::Get().histogram(
      "rr_gateway_request_latency_seconds",
      "request receipt to response enqueue", {},
      obs::DefaultLatencyBucketsSeconds());
  return *histogram;
}

}  // namespace

struct Gateway::Route {
  InterceptorChain chain;  // global + route interceptors, composed once
  std::function<Result<std::shared_ptr<api::Invocation>>(rr::Buffer)> submit;
};

Gateway::Gateway(api::Runtime* runtime, Options options)
    : runtime_(runtime), options_(std::move(options)) {
  global_chain_ = std::make_shared<const InterceptorChain>(
      options_.interceptors);
}

Result<std::unique_ptr<Gateway>> Gateway::Start(api::Runtime* runtime,
                                                Options options) {
  auto server_options = options.server;
  std::unique_ptr<Gateway> gateway(
      new Gateway(runtime, std::move(options)));
  RR_ASSIGN_OR_RETURN(
      auto server,
      http::EpollServer::Start(
          server_options,
          [raw = gateway.get()](http::Request&& request,
                                http::EpollServer::Responder responder) {
            raw->Handle(std::move(request), std::move(responder));
          }));
  gateway->server_ = std::move(server);
  return gateway;
}

Gateway::~Gateway() {
  // Stop the event loop before members tear down: the handler dereferences
  // this object. In-flight runs still complete afterward — their callbacks
  // hold shared_ptrs to everything they touch and their Sends are no-ops
  // once the server is gone.
  if (server_ != nullptr) server_->Stop();
}

Status Gateway::AddRouteImpl(
    const std::string& name, RouteOptions options,
    std::function<Result<std::shared_ptr<api::Invocation>>(rr::Buffer)>
        submit) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return InvalidArgumentError("route name must be a single path segment: \"" +
                                name + "\"");
  }
  auto route = std::make_shared<Route>();
  std::vector<std::shared_ptr<Interceptor>> chain = options_.interceptors;
  chain.insert(chain.end(), options.interceptors.begin(),
               options.interceptors.end());
  route->chain = InterceptorChain(std::move(chain));
  route->submit = std::move(submit);
  MutexLock lock(routes_mutex_);
  const auto [it, inserted] = routes_.emplace(name, std::move(route));
  (void)it;
  if (!inserted) {
    return AlreadyExistsError("route \"" + name + "\" already registered");
  }
  return Status::Ok();
}

Status Gateway::AddRoute(const std::string& name, api::ChainSpec spec,
                         RouteOptions options) {
  return AddRouteImpl(name, std::move(options),
                      [runtime = runtime_, spec = std::move(spec)](
                          rr::Buffer input) {
                        return runtime->Submit(spec, std::move(input));
                      });
}

Status Gateway::AddRoute(const std::string& name, api::DagSpec spec,
                         RouteOptions options) {
  return AddRouteImpl(name, std::move(options),
                      [runtime = runtime_, spec = std::move(spec)](
                          rr::Buffer input) {
                        return runtime->Submit(spec, std::move(input));
                      });
}

std::shared_ptr<const Gateway::Route> Gateway::Match(
    const RequestContext& ctx, std::string* route_name) const {
  std::string_view target = ctx.request.target;
  const size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  if (target.size() <= kInvokePrefix.size() ||
      target.substr(0, kInvokePrefix.size()) != kInvokePrefix) {
    return nullptr;
  }
  *route_name = std::string(target.substr(kInvokePrefix.size()));
  MutexLock lock(routes_mutex_);
  const auto it = routes_.find(*route_name);
  return it != routes_.end() ? it->second : nullptr;
}

namespace {

// The single exit point: return-phase unwind, metrics, send. Runs on the
// event loop for short circuits and vetoes, on the thread that finished the
// run for dispatched requests — the caller guarantees `chain` outlives the call
// (it lives in the gateway or in a route shared_ptr the caller captured).
void Finish(RequestContext& ctx, const InterceptorChain& chain, size_t entered,
            const http::EpollServer::Responder& responder) {
  chain.RunReturn(ctx, entered);
  RequestsTotal(ctx.response.status_code).Inc();
  if (ctx.response.status_code == 429) ShedTotal().Inc();
  RequestLatency().Observe(ToSeconds(Now() - ctx.received));
  responder.Send(std::move(ctx.response));
}

}  // namespace

void Gateway::Handle(http::Request&& request,
                     http::EpollServer::Responder responder) {
  auto ctx = std::make_shared<RequestContext>();
  ctx->request = std::move(request);
  ctx->received = Now();

  std::string route_name;
  std::shared_ptr<const Route> route = Match(*ctx, &route_name);
  std::shared_ptr<const InterceptorChain> global_chain = global_chain_;
  const InterceptorChain& chain =
      route != nullptr ? route->chain : *global_chain;
  if (route != nullptr) ctx->route = route_name;

  size_t entered = 0;
  const Status admitted = chain.RunEnter(*ctx, &entered);
  if (!admitted.ok()) {
    ctx->response = ErrorResponse(*ctx, admitted);
    Finish(*ctx, chain, entered, responder);
    return;
  }
  if (ctx->short_circuited) {
    Finish(*ctx, chain, entered, responder);
    return;
  }
  if (route == nullptr) {
    const bool invoke_path =
        ctx->request.target.compare(0, kInvokePrefix.size(), kInvokePrefix) ==
        0;
    const Status status =
        invoke_path ? NotFoundError("no pipeline named \"" + route_name + "\"")
                    : NotFoundError("no such endpoint: " + ctx->request.target);
    ctx->response = ErrorResponse(*ctx, status);
    Finish(*ctx, chain, entered, responder);
    return;
  }
  if (ctx->request.method != "POST") {
    ctx->error_http_status = 405;
    ctx->response.headers["Allow"] = "POST";
    ctx->response = ErrorResponse(
        *ctx, InvalidArgumentError("invoke requires POST"));
    Finish(*ctx, chain, entered, responder);
    return;
  }

  // Dispatch. The request body's storage is adopted into the payload plane
  // (no copy), and Submit runs under the request's trace id so the edge
  // and the run stitch into one trace.
  Result<std::shared_ptr<api::Invocation>> submitted = [&] {
    obs::ScopedTraceContext trace_scope(
        obs::SpanContext{ctx->trace_id, 0});
    return route->submit(rr::Buffer::Adopt(std::move(ctx->request.body)));
  }();
  if (!submitted.ok()) {
    ctx->response = ErrorResponse(*ctx, submitted.status());
    Finish(*ctx, chain, entered, responder);
    return;
  }

  // Asynchronous completion: no thread parks on the run. The callback fires
  // on the thread that finished the run (see Invocation::NotifyDone); the
  // response body shares the result's chunks.
  // The captured route shared_ptr keeps the chain alive past gateway
  // teardown; a Send after Stop is a no-op.
  std::shared_ptr<api::Invocation> invocation = std::move(*submitted);
  api::Invocation* raw = invocation.get();
  raw->NotifyDone([ctx, route, entered, responder, runtime = runtime_,
                   invocation = std::move(invocation)]() mutable {
    // The run is done when this fires: Wait() returns without blocking.
    const Result<rr::Buffer>& result = invocation->Wait();
    if (result.ok()) {
      ctx->response = http::StreamResponse(200, "OK");
      ctx->response.headers["Content-Type"] = "application/octet-stream";
      ctx->response.body = *result;  // chunk sharing, not a copy
    } else {
      // A run shed by the failure-recovery plane maps to 503; when an open
      // circuit breaker caused it, hint the client at the breaker's next
      // half-open probe — retrying sooner can only be refused again.
      if (result.status().code() == StatusCode::kUnavailable) {
        const Nanos probe_in = runtime->manager()
                                   .hops()
                                   .OpenBreakerRetryAfter()
                                   .value_or(std::chrono::seconds(1));
        const int64_t seconds =
            std::max<int64_t>(1, (probe_in.count() + 999'999'999) /
                                     1'000'000'000);
        ctx->response.headers["Retry-After"] = std::to_string(seconds);
      }
      ctx->response = ErrorResponse(*ctx, result.status());
    }
    Finish(*ctx, route->chain, entered, responder);
  });
}

}  // namespace rr::gateway
