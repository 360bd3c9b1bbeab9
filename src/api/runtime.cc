#include "api/runtime.h"

#include <unistd.h>

#include <string>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rr::api {
namespace {

obs::Counter& SubmitTotal() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_submit_total", "Runs accepted by api::Runtime::Submit");
  return *counter;
}

obs::Gauge& InFlightRuns() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_inflight_runs", "Submitted runs whose result has not yet published");
  return *gauge;
}

obs::Histogram& SubmitLatency() {
  static obs::Histogram* histogram = obs::Registry::Get().histogram(
      "rr_submit_latency_seconds",
      "Submit-to-completion latency of a run (queue wait included)");
  return *histogram;
}

// Eager registration: a scrape right after startup sees the submit series
// at zero instead of missing.
const bool g_api_metrics_registered = [] {
  SubmitTotal();
  InFlightRuns();
  SubmitLatency();
  return true;
}();

}  // namespace

bool Invocation::Done() const {
  MutexLock lock(mutex_);
  return done_;
}

const Result<rr::Buffer>& Invocation::Wait() {
  MutexLock lock(mutex_);
  cv_.wait(lock, [this]() RR_REQUIRES(mutex_) { return done_; });
  return result_;
}

bool Invocation::WaitFor(Nanos timeout) {
  MutexLock lock(mutex_);
  return cv_.wait_for(lock, timeout,
                      [this]() RR_REQUIRES(mutex_) { return done_; });
}

void Invocation::NotifyDone(std::function<void()> callback) {
  {
    MutexLock lock(mutex_);
    if (!done_) {
      done_callbacks_.push_back(std::move(callback));
      return;
    }
  }
  callback();  // already complete: fire on the caller's thread, lock dropped
}

Runtime::Runtime(std::string workflow) : Runtime(std::move(workflow), Options{}) {}

Runtime::Runtime(std::string workflow, Options options)
    : manager_(std::move(workflow)), executor_(&manager_, options.dag_workers) {
  executor_.set_remote_deadline(options.remote_deadline);
  manager_.hops().set_wire_options(
      core::TransportOptions{options.transfer_deadline});
  executor_.set_resilience_policy(options.resilience);
  if (options.resilience.enabled) {
    // Arm the hop table's per-replica circuit breakers alongside the retry
    // engine: a replica that keeps failing at the wire level is refused in
    // microseconds instead of burning a transfer deadline per attempt.
    manager_.hops().set_breaker_options(options.resilience.breaker);
  }
  if (options.tracing) {
    if (options.trace_capacity > 0) {
      obs::Tracer::Get().SetCapacity(options.trace_capacity);
    }
    // Released in ~Runtime: tracing this runtime turned on ends with the
    // last runtime that asked for it.
    obs::HoldTracing();
    holds_tracing_ = true;
  }
  if (options.serve_introspection) {
    obs::IntrospectionServer::Options intro;
    intro.port = options.introspection_port;
    intro.health_fields = [this] {
      std::vector<std::pair<std::string, int64_t>> fields{
          {"in_flight", static_cast<int64_t>(in_flight())}};
      // Failure-recovery visibility: how many breakers are currently
      // tripped, plus one entry per non-closed breaker (state 1 = open,
      // 2 = half-open) so an operator sees WHICH replica is refusing.
      int64_t open = 0;
      for (const auto& info : manager_.hops().BreakerSnapshot()) {
        if (info.state == resilience::BreakerState::kClosed) continue;
        if (info.state == resilience::BreakerState::kOpen) ++open;
        fields.emplace_back(
            "breaker:" + info.function + "#" + std::to_string(info.replica),
            static_cast<int64_t>(info.state));
      }
      fields.emplace_back("breakers_open", open);
      return fields;
    };
    auto server = obs::IntrospectionServer::Start(std::move(intro));
    if (server.ok()) {
      introspection_ = std::move(*server);
    } else {
      // Introspection is an accessory: a bind failure (port taken) must not
      // take the data plane down with it.
      RR_LOG(Warning) << "runtime: introspection endpoint failed to start: "
                      << server.status();
    }
  }
}

Runtime::~Runtime() {
  // Stop serving introspection first: its handler reads in_flight() off this
  // object, which must still be fully alive for every in-flight request.
  introspection_.reset();
  // Every handle ever returned by Submit completes, so a Wait() can never
  // hang on teardown. The wait covers the whole of Publish — callbacks
  // included — because the finishing threads (DAG workers, agent invoke
  // workers, the mux reactor, the deadline sweeper) touch this object until
  // it returns; the executor's destructor then joins the DAG workers.
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    drained_cv_.wait(lock,
                     [this]() RR_REQUIRES(mutex_) { return unsettled_ == 0; });
  }
  if (holds_tracing_) obs::ReleaseTracing();
}

Status Runtime::Register(core::Endpoint endpoint) {
  return manager_.Register(std::move(endpoint));
}

Status Runtime::Unregister(const std::string& name) {
  return manager_.Unregister(name);
}

Result<std::shared_ptr<Invocation>> Runtime::Submit(const ChainSpec& spec,
                                                    rr::Buffer input) {
  // A chain is a linear DAG; one executor serves both shapes.
  dag::DagBuilder builder("chain");
  RR_ASSIGN_OR_RETURN(dag::Dag dag, builder.Chain(spec.functions).Build());
  return Enqueue(std::move(dag), std::move(input));
}

Result<std::shared_ptr<Invocation>> Runtime::Submit(const DagSpec& spec,
                                                    rr::Buffer input) {
  return Enqueue(spec.dag, std::move(input), spec.resilience);
}

Result<std::shared_ptr<Invocation>> Runtime::Submit(const ChainSpec& spec,
                                                    ByteSpan input) {
  return Submit(spec, rr::Buffer::Copy(input));
}

Result<std::shared_ptr<Invocation>> Runtime::Submit(const DagSpec& spec,
                                                    ByteSpan input) {
  return Submit(spec, rr::Buffer::Copy(input));
}

Result<std::shared_ptr<Invocation>> Runtime::Enqueue(
    dag::Dag dag, rr::Buffer input,
    std::optional<resilience::ResiliencePolicy> resilience) {
  // Validate now, not at execution: a rejected Submit is visible at the call
  // site, a failed background run only at Wait().
  for (const dag::DagNode& node : dag.nodes()) {
    RR_RETURN_IF_ERROR(manager_.Find(node.name).status());
  }
  auto invocation = std::shared_ptr<Invocation>(new Invocation(
      next_id_.fetch_add(1, std::memory_order_relaxed), std::move(dag),
      std::move(input)));
  invocation->resilience_ = std::move(resilience);
  // The run's trace id: everything the run touches — DAG workers, wire
  // frames, the remote agent's process — spans under it. A caller that is
  // already inside a trace (the gateway tagging a request) propagates its id
  // so edge and execution stitch into one trace; otherwise Submit mints. The
  // run span's id is minted here too: the span crosses threads (it is
  // recorded by whichever thread publishes), and node spans parent under it.
  if (obs::TracingEnabled()) {
    const uint64_t ambient = obs::CurrentSpanContext().trace_id;
    invocation->trace_id_ = ambient != 0 ? ambient : obs::NewTraceId();
    invocation->span_id_ = obs::NewSpanId();
  }
  invocation->submitted_ = Now();
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      return UnavailableError("runtime is shutting down");
    }
    ++in_flight_;
    ++unsettled_;
  }
  SubmitTotal().Inc();
  InFlightRuns().Add(1);

  // The executor captures the installed context for the run's nodes. The
  // completion holds the handle, which owns the DAG and the input the run
  // borrows, until Publish returns.
  obs::ScopedTraceContext trace_ctx(
      obs::SpanContext{invocation->trace_id_, invocation->span_id_});
  Invocation& run = *invocation;
  executor_.Start(run.dag_, run.input_, run.resilience_,
                  [this, invocation](Result<rr::Buffer> result,
                                     TimePoint started, Nanos transfer_phase) {
                    Publish(*invocation, std::move(result), started,
                            transfer_phase);
                  });
  return invocation;
}

void Runtime::Publish(Invocation& invocation, Result<rr::Buffer> result,
                      TimePoint started, Nanos transfer_phase) {
  const TimePoint now = Now();
  invocation.stats_.queued = started - invocation.submitted_;
  invocation.stats_.total = now - started;
  invocation.stats_.transfer_phase = transfer_phase;
  SubmitLatency().Observe(ToSeconds(now - invocation.submitted_));
  // Recorded before the result publishes, so a caller returning from Wait()
  // finds the run span in the tracer.
  if (invocation.span_id_ != 0) {
    obs::SpanRecord span;
    span.name = "run:" + std::to_string(invocation.id_);
    span.category = "api";
    span.trace_id = invocation.trace_id_;
    span.span_id = invocation.span_id_;
    span.pid = static_cast<int>(::getpid());
    span.tid = CurrentThreadTag();
    span.start = invocation.submitted_;
    span.duration = now - invocation.submitted_;
    obs::Tracer::Get().Record(std::move(span));
  }

  // Retire from the in-flight count before publishing completion, so a
  // caller returning from Wait() observes in_flight() without this run.
  {
    MutexLock lock(mutex_);
    --in_flight_;
  }
  InFlightRuns().Sub(1);
  std::vector<std::function<void()>> callbacks;
  {
    MutexLock lock(invocation.mutex_);
    invocation.result_ = std::move(result);
    invocation.done_ = true;
    callbacks.swap(invocation.done_callbacks_);
  }
  invocation.cv_.notify_all();
  // Completion callbacks fire outside the invocation lock: they may read
  // the (now immutable) result through the handle. They are destroyed here
  // too, before the run settles: what they captured is theirs to release.
  for (auto& callback : callbacks) callback();
  callbacks.clear();

  // Notify under the lock: once it drops, the destructor may return and
  // take mutex_ and drained_cv_ with it.
  MutexLock lock(mutex_);
  if (--unsettled_ == 0) drained_cv_.notify_all();
}

core::NodeAgent::DeliveryCallback Runtime::DeliverySink() {
  return executor_.DeliverySink();
}

size_t Runtime::in_flight() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

}  // namespace rr::api
