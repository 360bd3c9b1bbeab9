// DagExecutor: the DAG engine. It executes validated Dags over a
// WorkflowManager's registry on a fixed worker pool shared by every run.
//
// Scheduling. A node becomes ready when every predecessor retired
// successfully; independent branches (fan-out replicas, parallel pipelines)
// run concurrently while joins wait for all of their inputs, and workflow
// width never turns into thread creation. Runs RUN TO COMPLETION: Start
// queues a run's sources and returns, and a worker that retires a node runs
// the first successor it made ready itself — no queueing, no wakeup —
// queueing only the further ones, one notify_one each. So a chain runs start
// to finish on one worker, and a fan-out engages one extra worker per extra
// branch. The run finishes on the thread that retires its last node (a
// worker, or the thread resolving a remote sink), which assembles the result
// and hands it to the caller's `done` there. A run's state — dependency
// counts, node outputs, phase stamps, retry state, trace context — lives in
// one heap run context from Start until that moment; runs share nothing but
// the ready queue's lock, the hop cache and the pending-slot mailbox. The
// first error wins (prefixed `node <name>: `) and cancels the run: queued
// nodes retire unrun, downstream nodes never run.
//
// Per local edge it obtains the placement-selected hop from the shared
// HopTable (the same cached channels chains use) and speaks only the Hop
// interface — no transfer-mode switches live here. Payloads move on the
// zero-copy plane (core/payload.h):
//
//  * Fan-out shares ONE immutable buffer across all successors: the
//    producer's output is egressed exactly once and every successor's
//    delivery reads the same ref-counted chunk, so an N-way fan-out performs
//    O(1) payload copies — and the successors' ingress writes proceed in
//    parallel on the workers because the producer's shim is no longer
//    locked during the wire phase.
//  * Fan-in gathers predecessor payloads directly into ONE pre-allocated
//    region of the join function's memory (each leg delivered over its own
//    placement-selected hop into its slice, in edge-declaration order) —
//    the old per-predecessor staging regions and the intermediate merge
//    allocation are gone. The join is invoked exactly once.
//  * A single-successor edge keeps the guest-direct fast path: the payload
//    stays guest-resident and a user-space hop performs the classic single
//    copy between the two linear memories.
//
// A function behind a remote NodeAgent ingress is reached as a client of
// that agent, COMPLETION-DRIVEN: placement alone marks the node
// invoke-coupled (the agent receives and invokes), and the executor
// assembles one frame (a fan-in's predecessor chunks vectored without a host
// merge copy), registers a pending slot keyed by a fresh correlation token,
// marks the node DEFERRED, and starts a stream on the chosen replica's
// MuxClient (HopTable::AgentClient) — then the worker moves on, so a parked
// node costs a map entry, not a parked thread. The node retires when the
// first of three signals takes the slot:
//
//  * the agent's delivery callback (DeliverySink -> DeliverOutcome) carrying
//    the remote invocation's outcome and output lease — the success path;
//  * the agent client's stream callback with an error — the agent's
//    completion frame, so a remote HANDLER failure fails the edge
//    immediately instead of waiting out the deadline, or a dead connection;
//  * the remote_deadline sweeper — now a BACKSTOP for a far side that went
//    fully silent (dead agent, lost frame).
//
// Taking the slot (TakePending, first taker wins) is the node's only
// completion handle: whoever takes it retires the node, exactly once, and a
// deferred node retiring queues every successor — its thread is usually not
// a worker. No worker ever parks on a wire wait, so in-flight remote edges
// are bounded by memory, not pool width. Tokens make the attribution exact:
// a completion belonging to a timed-out or cancelled transfer matches no
// pending token and is rejected with kTokenMismatch (its output released),
// never claimed by a later run.
//
// FAILURE RECOVERY (resilience/policy.h): when a run's ResiliencePolicy is
// enabled, a retryable attempt failure does not retire the node — the slot
// re-registers under a FRESH token in a backoff phase and the sweeper
// re-dispatches it when the (decorrelated-jitter) delay passes, so no
// worker parks in a backoff sleep and a late completion of the failed
// attempt can only miss (its token is gone → kTokenMismatch, counted in
// rr_stale_deliveries_total). Replica selection starts each attempt at the
// last replica used and skips replicas whose circuit breaker (HopTable)
// refuses admission; when one replica's attempts are spent the selection
// start advances — failover in registration order, wrapping. The dispatch
// frame is a ref-counted immutable rr::Buffer held by the slot, so a
// redispatch costs refcounts, not copies.
//
// There is no public entry — api::Runtime::Submit is the way to run a DAG.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/node_agent.h"
#include "core/payload.h"
#include "core/workflow.h"
#include "dag/dag.h"
#include "obs/trace.h"
#include "resilience/policy.h"

namespace rr::api {
class Runtime;
}  // namespace rr::api

namespace rr::dag {

class DagExecutor {
 public:
  // `manager` must outlive the executor. 0 workers = one per CPU this
  // process may run on (osal::UsableCpus), at least 2 (so a single-core host
  // still overlaps a slow hop with an independent branch).
  explicit DagExecutor(core::WorkflowManager* manager, size_t workers = 0);
  // Joins the workers. Every started run must have finished (its `done`
  // returned) first.
  ~DagExecutor();

  DagExecutor(const DagExecutor&) = delete;
  DagExecutor& operator=(const DagExecutor&) = delete;

  // Delivery callback for NodeAgent-registered functions: routes the remote
  // invoke's outcome back into the executor so the DAG can continue past the
  // remote node. The executor must outlive the agent's use of the callback.
  core::NodeAgent::DeliveryCallback DeliverySink();

  // Routes one remote completion to the transfer that dispatched `token`,
  // taking its pending slot: the outcome retires the node, releasing its
  // successors. `instance` is the agent-side pool lease holding the
  // outcome's output region; a matched completion hands it to the node
  // (which pins it in the node's payload), an unmatched one —
  // late completion of a timed-out edge, a cancelled run, or an untracked
  // sender — returns kTokenMismatch, releasing the output region and the
  // instance. Exposed for DeliverySink and for protocol tests.
  Status DeliverOutcome(const std::string& function,
                        core::InvokeOutcome outcome, uint64_t token,
                        core::ShimLease instance);

  // Backstop on one remote (NodeAgent) edge: how long from dispatch until
  // the edge fails with kDeadlineExceeded when NO signal arrives — neither a
  // delivery callback nor a completion frame. Failures that do speak (a mux
  // completion frame, a dead channel) resolve the edge immediately,
  // regardless of this value. Non-positive disables the backstop entirely
  // (unbounded) — it never means "expire immediately". With retries enabled
  // the backstop bounds EACH attempt, not the edge.
  void set_remote_deadline(Nanos deadline) { remote_deadline_ = deadline; }

  // Default retry policy for runs that do not carry their own (the
  // per-DagSpec override threads through Start).
  void set_resilience_policy(resilience::ResiliencePolicy policy) {
    policy_ = policy;
  }

  size_t worker_count() const { return workers_.size(); }

 private:
  friend class rr::api::Runtime;

  struct NodeRun;
  struct RunContext;

  // Per-run resilience state, kept in the run context: the resolved policy,
  // the shared retry budget, and the jitter stream (guarded by mail_mutex_ —
  // backoff draws happen under it).
  struct RunResilience {
    resilience::ResiliencePolicy policy;
    resilience::RetryBudget budget;
    rr::Rng rng;

    explicit RunResilience(const resilience::ResiliencePolicy& p)
        : policy(p), budget(p.enabled ? p.run_retry_budget : 0),
          rng(p.jitter_seed) {}
  };

  // A run's completion: the sink functions' outputs (or the first error),
  // when the run's first source node began on a worker, and the run's
  // transfer phase — first edge start to last edge completion across its
  // concurrent branches (zero when the run failed or has no edges).
  using DoneFn = std::function<void(Result<rr::Buffer> result,
                                    TimePoint started, Nanos transfer_phase)>;

  // Starts the DAG and returns at once: `input` is shared (never copied)
  // with every source node; the sink functions' outputs (concatenated in
  // declaration order when there are several sinks, by chunk sharing) reach
  // `done` as one buffer. On any node failure the run cancels — downstream
  // nodes never execute — and `done` gets the first error; the payload
  // plane's refcounts release every still-live output. `done` fires exactly
  // once, with no executor lock held, on the thread that retires the run's
  // last node, after the run's own state is freed; `dag` and `input` must
  // stay valid until then.
  // Reachable only through api::Runtime::Submit. `policy_override` (a
  // per-DagSpec ResiliencePolicy) replaces the executor default for this
  // run.
  void Start(const Dag& dag, const rr::Buffer& input,
             const std::optional<resilience::ResiliencePolicy>& policy_override,
             DoneFn done);
  // Completes one finished run: assembles the result (or takes the run's
  // first error), frees the run context, then calls its `done`.
  static void Finish(RunContext* run);

  void WorkerLoop();
  // Retirement bookkeeping (mutex_ held): records a failure (first error
  // wins, cancelling the run) or releases a success's newly-ready
  // successors. With `keep`, the first of them is returned for the caller to
  // run next instead of being queued (kNoNode when there is none); every
  // other one is queued with one wakeup. The run is finished when its
  // `outstanding` reads 0 afterwards.
  size_t RetireLocked(RunContext* run, size_t index, Status status, bool keep)
      RR_REQUIRES(mutex_);
  // Retires a deferred node on whichever thread took its pending slot, and
  // finishes the run there when that was its last node.
  void RetireDeferred(RunContext* run, size_t index, Status status);

  // Runs one node. Sets `deferred` when the node's completion moved to a
  // pending slot: the return value is then meaningless, and the run may
  // already be gone.
  Status RunNode(RunContext& run, size_t index, bool& deferred);
  Status RunLocalNode(RunContext& run, size_t index,
                      const std::vector<std::shared_ptr<core::Hop>>& pred_hops);
  Status RunRemoteNode(RunContext& run, size_t index, bool& deferred);
  static Status FinishNode(RunContext& run, size_t index,
                           core::Shim* instance, core::InvokeOutcome outcome);
  static void ReleaseConsumedPreds(const DagNode& node,
                                   std::vector<NodeRun>& runs);

  // One pending invoke-coupled transfer: the deferred node's continuation,
  // registered before its frame is dispatched. `run` is the run's heap
  // context, valid until the node retires (the run cannot finish while the
  // node is outstanding, and retiring its last node frees the context) — so
  // whoever took the slot touches it strictly BEFORE RetireDeferred.
  //
  // With retries, a slot cycles between two phases under a CHANGING token:
  // kInFlight (dispatched, waiting on a signal) and kBackoff (waiting for
  // retry_at; the sweeper re-dispatches it). Each cycle re-registers the
  // slot under a fresh token, so any signal for a previous attempt finds
  // nothing — first-taker-wins resolution needs no generation counters.
  struct Pending {
    enum class Phase { kInFlight, kBackoff };

    std::string function;  // target function = the breakers' key
    RunContext* run = nullptr;
    size_t index = 0;
    bool dispatched = false;       // this attempt reached a replica
    rr::Buffer frame;              // immutable dispatch frame (refcounted)
    obs::SpanContext trace_ctx{};  // re-installed around each redispatch
    TimePoint dispatched_at{};
    // kInFlight: dispatched_at + remote_deadline_ per ATTEMPT, or
    // TimePoint::max() while the backstop is disabled or the dispatch has
    // not initiated yet.
    TimePoint deadline{};
    Phase phase = Phase::kInFlight;
    TimePoint retry_at{};      // kBackoff: when the sweeper re-dispatches
    Nanos prev_backoff{0};     // decorrelated-jitter recurrence state
    uint32_t total_attempts = 0;
    uint32_t attempts_on_replica = 0;
    size_t replica = 0;        // where the next selection starts
    static constexpr size_t kNoReplica = static_cast<size_t>(-1);
    size_t last_replica = kNoReplica;  // replica of the last dispatched attempt
  };

  // Extracts the slot under mail_mutex_ (first taker wins; later signals
  // find nothing and no-op). Resolution then runs outside the lock.
  std::optional<Pending> TakePending(uint64_t token);
  // Selects a replica (breaker-gated), looks up its agent client, arms the
  // attempt deadline, and starts the stream. Runs on a worker for attempt 1
  // and on the sweeper thread for retries.
  void DispatchAttempt(uint64_t token);
  // Resolves one attempt's failure: terminal (the node retires) when the
  // status is non-retryable, attempts/budget are spent, or the run's policy
  // is disabled; otherwise the slot re-registers under a fresh token in
  // backoff phase. Unknown tokens no-op.
  void ResolveAttemptFailure(uint64_t token, const Status& status);
  void SweeperLoop();

  // Shared with every stream callback: the agent clients may fire them after
  // this executor is gone — the runtime destroys the executor before the hop
  // table that owns the clients, and a stream the deadline sweeper abandoned
  // can complete arbitrarily late. The guard outlives the executor; the
  // destructor clears `owner` under the mutex, turning late callbacks into
  // no-ops instead of use-after-free.
  struct LifeGuard {
    Mutex mutex;
    DagExecutor* owner RR_GUARDED_BY(mutex) = nullptr;
  };

  core::WorkflowManager* manager_;
  const std::shared_ptr<LifeGuard> life_ = std::make_shared<LifeGuard>();

  // The ready queue: (run, node) pairs waiting for a worker. The runs'
  // dependency counts are guarded by mutex_ too.
  Mutex mutex_;
  CondVar work_cv_;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::deque<std::pair<RunContext*, size_t>> queue_ RR_GUARDED_BY(mutex_);

  Mutex mail_mutex_;
  std::map<uint64_t, Pending> pending_ RR_GUARDED_BY(mail_mutex_);
  std::atomic<uint64_t> next_token_{1};
  Nanos remote_deadline_ = std::chrono::seconds(60);
  resilience::ResiliencePolicy policy_;  // default; DagSpec may override

  // The backstop sweeper, started lazily with the first pending transfer.
  // sweep_next_ is the deadline it is currently waiting for: registrations
  // with later deadlines (the common case — deadlines are monotonic) skip
  // the wakeup, so the sweeper scans once per expiry, not once per dispatch.
  CondVar sweep_cv_;
  std::thread sweeper_;
  bool sweeper_stop_ RR_GUARDED_BY(mail_mutex_) = false;
  TimePoint sweep_next_ RR_GUARDED_BY(mail_mutex_) = TimePoint::max();

  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace rr::dag
