// rr::api::Runtime — the unified asynchronous invocation API.
//
// One façade over the whole middleware: register endpoints once, then
// Submit(ChainSpec | DagSpec, input) returns an Invocation handle
// immediately. Any number of invocations proceed concurrently over the
// shared hop cache (established channels are reused across runs and across
// in-flight invocations), the shared DAG worker pool, and the transport
// layer — callers never touch WorkflowManager, dag::DagExecutor, or per-hop
// plumbing directly; Submit is the only way to run a workflow.
//
// Payloads ride the zero-copy plane end to end: Submit(spec, rr::Buffer)
// shares the caller's chunks with every in-flight run (no per-submit copy —
// submitting the same 64 MiB input N times costs one buffer), and Wait()
// returns the sink outputs as a Buffer whose chunks are the sinks' egressed
// bytes, concatenated by reference.
//
//   api::Runtime rt("wf");
//   rt.Register(endpoint_a); rt.Register(endpoint_b); ...
//   auto inv = rt.Submit(api::ChainSpec{{"a", "b", "c"}}, input);
//   ... // submit more; all run concurrently
//   const Result<rr::Buffer>& out = (*inv)->Wait();
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/node_agent.h"
#include "core/workflow.h"
#include "dag/dag.h"
#include "dag/executor.h"
#include "obs/introspect.h"

namespace rr::api {

// A linear pipeline: f1 -> f2 -> ... -> fn (every name registered).
struct ChainSpec {
  std::vector<std::string> functions;
};

// An arbitrary fan-out/fan-in workflow, validated by dag::DagBuilder.
struct DagSpec {
  dag::Dag dag;
  // Per-workflow failure-recovery override: when set, this run retries its
  // remote dispatches under THIS policy instead of the runtime-wide
  // Options::resilience default (set one with enabled=false to opt a
  // latency-critical workflow out of retries entirely).
  std::optional<resilience::ResiliencePolicy> resilience;
};

// Wall-clock accounting of one submitted run.
struct RunStats {
  // Submit() -> the run's first source node starting on a DAG worker: the
  // ready-queue wait. The source's pool lease wait comes after, in `total`.
  Nanos queued{0};
  // That start -> the result publishing: every node, edge and sink egress,
  // on whichever threads retired them.
  Nanos total{0};
  // The first edge's start -> the last edge's completion, across concurrent
  // branches (a remote edge counts from its frame assembly to its delivery).
  // Zero for a failed run or one without edges. Per-edge time is the run's
  // `edge:*` trace spans.
  Nanos transfer_phase{0};
};

// A future-like handle to one submitted run. Thread-safe; share freely.
class Invocation {
 public:
  uint64_t id() const { return id_; }

  // The trace id Submit minted for this run (0 when tracing was off at
  // submit time). Every span of the run — including remote-agent spans on
  // other processes — carries this id; grep it in logs, find it in /trace.
  uint64_t trace_id() const { return trace_id_; }

  bool Done() const;

  // Blocks until the run completes and returns its result: the sink
  // functions' outputs, concatenated in declaration order (by chunk sharing
  // — no merge copy). The reference stays valid for the Invocation's
  // lifetime.
  const Result<rr::Buffer>& Wait();

  // Bounded wait; true when the run completed within `timeout`.
  bool WaitFor(Nanos timeout);

  // Registers a completion callback: runs exactly once, right after the
  // result publishes, on the thread that retired the run's last node — a
  // DAG worker; an agent invoke worker when the sink is remote; the mux
  // reactor or the remote-deadline sweeper when a failed remote edge ends
  // the run — or inline, on the caller's thread, when the run is already
  // done. This is the event-driven counterpart to Wait(): the gateway parks
  // a Responder in one of these instead of parking a thread. Callbacks run
  // on threads that serve other runs, so they must not block; Wait() on
  // this invocation returns at once inside them (it is already done).
  void NotifyDone(std::function<void()> callback);

  // Valid once Done() — meaningless while the run is in flight.
  const RunStats& stats() const { return stats_; }

 private:
  friend class Runtime;
  Invocation(uint64_t id, dag::Dag dag, rr::Buffer input)
      : id_(id), dag_(std::move(dag)), input_(std::move(input)) {}

  const uint64_t id_;
  dag::Dag dag_;
  rr::Buffer input_;
  // The DagSpec's per-run retry-policy override, carried to the executor.
  std::optional<resilience::ResiliencePolicy> resilience_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;  // the run:<id> span, recorded when it publishes
  TimePoint submitted_{};
  // Written only by the publishing thread before done_ is set under mutex_;
  // read only by callers that observed Done(), so publication orders every
  // access.
  RunStats stats_;

  mutable Mutex mutex_;
  CondVar cv_;
  bool done_ RR_GUARDED_BY(mutex_) = false;
  Result<rr::Buffer> result_ RR_GUARDED_BY(mutex_){rr::Buffer{}};
  std::vector<std::function<void()>> done_callbacks_ RR_GUARDED_BY(mutex_);
};

class Runtime {
 public:
  struct Options {
    // The DAG executor's worker pool, shared by every in-flight run: the
    // only threads that execute runs. 0 = one per hardware thread, at
    // least 2.
    size_t dag_workers = 0;
    // BACKSTOP on one remote (NodeAgent) edge: dispatch to delivery
    // callback, including the remote invoke. On the default mux wire a
    // remote failure arrives as a completion frame and fails the edge
    // immediately — this deadline only fires when the far side goes fully
    // silent (dead agent, lost frame).
    Nanos remote_deadline = std::chrono::seconds(60);
    // Bound on one wire transfer's blocking waits (header/body/ack), applied
    // to every hop this runtime establishes and every agent stream it
    // starts (core::TransportOptions). A
    // receiver that dies mid-body or never acks fails the edge with
    // kDeadlineExceeded within this bound. Non-positive = unbounded.
    Nanos transfer_deadline = std::chrono::seconds(30);
    // Enables invocation tracing process-wide while this runtime lives:
    // Submit mints a trace id per run, spans record into the obs::Tracer
    // ring, frames carry the trace context to remote agents. Tracing a
    // runtime turned on ends with the last runtime that asked for it (an
    // explicit obs::SetTracingEnabled overrides). Off by default — a
    // disabled span site costs one relaxed atomic load and reads no clock.
    bool tracing = false;
    // Ring capacity for finished spans when tracing is on (0 = keep the
    // tracer's current capacity).
    size_t trace_capacity = 0;
    // Serves GET /metrics (Prometheus text), /healthz (JSON), and /trace
    // (Chrome trace JSON) on 127.0.0.1:introspection_port. Off by default.
    bool serve_introspection = false;
    uint16_t introspection_port = 0;  // 0 = ephemeral; read introspection_port()
    // Failure-recovery plane (resilience/policy.h): per-edge retries with
    // backoff, per-replica circuit breakers, and agent failover. Disabled by
    // default (resilience.enabled = false) — enabling it also arms the hop
    // table's breakers with resilience.breaker. A DagSpec may override the
    // retry policy per run; breakers are runtime-wide.
    resilience::ResiliencePolicy resilience;
  };

  explicit Runtime(std::string workflow);
  Runtime(std::string workflow, Options options);

  // Drains: blocks until every submitted invocation has published its
  // result and its NotifyDone callbacks have returned, whichever threads
  // they run on; only then does any member those threads touch go away.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Control plane. Not safe to call while a run uses the affected endpoint.
  Status Register(core::Endpoint endpoint);
  Status Unregister(const std::string& name);

  // Starts a run and returns its handle immediately: the run's sources are
  // queued for the DAG workers, and the run completes on the thread that
  // retires its last node. The Buffer overloads
  // share the caller's chunks — zero copies at Submit, however many runs the
  // same buffer feeds; the ByteSpan overloads copy once into the plane so
  // the caller's span may be reused at once. Specs are validated here (shape
  // + every function registered), so a returned handle always corresponds to
  // a run that will execute.
  Result<std::shared_ptr<Invocation>> Submit(const ChainSpec& spec,
                                             rr::Buffer input);
  Result<std::shared_ptr<Invocation>> Submit(const DagSpec& spec,
                                             rr::Buffer input);
  Result<std::shared_ptr<Invocation>> Submit(const ChainSpec& spec,
                                             ByteSpan input);
  Result<std::shared_ptr<Invocation>> Submit(const DagSpec& spec,
                                             ByteSpan input);

  // Delivery callback to wire into NodeAgent::RegisterFunction for every
  // function reached through a remote agent ingress.
  core::NodeAgent::DeliveryCallback DeliverySink();

  // The underlying registry + hop cache (control plane, telemetry, tests).
  core::WorkflowManager& manager() { return manager_; }

  // Started runs whose result has not yet published (a caller returning
  // from Wait() never counts its own run).
  size_t in_flight() const;

  // The introspection endpoint's bound port; 0 when not serving (option off,
  // or the bind failed — which is logged, not fatal).
  uint16_t introspection_port() const {
    return introspection_ != nullptr ? introspection_->port() : 0;
  }

 private:
  Result<std::shared_ptr<Invocation>> Enqueue(
      dag::Dag dag, rr::Buffer input,
      std::optional<resilience::ResiliencePolicy> resilience = std::nullopt);
  // Publishes a finished run on the thread that finished it: stats, the
  // run span, the result, the Wait() wakeup and the NotifyDone callbacks.
  void Publish(Invocation& invocation, Result<rr::Buffer> result,
               TimePoint started, Nanos transfer_phase);

  core::WorkflowManager manager_;
  dag::DagExecutor executor_;
  // Reset at the top of the destructor, before anything else tears down:
  // the request handler reads in_flight() off this runtime.
  std::unique_ptr<obs::IntrospectionServer> introspection_;

  mutable Mutex mutex_;
  CondVar drained_cv_;
  size_t in_flight_ RR_GUARDED_BY(mutex_) = 0;  // started, not yet published
  // Started runs whose Publish has not returned; the destructor waits for 0.
  size_t unsettled_ RR_GUARDED_BY(mutex_) = 0;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> next_id_{1};
  // Options::tracing took an obs::HoldTracing the destructor releases.
  bool holds_tracing_ = false;
};

}  // namespace rr::api
