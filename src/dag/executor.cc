#include "dag/executor.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/log.h"
#include "core/mux_client.h"
#include "core/region_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "osal/cpus.h"
#include "resilience/metrics.h"

namespace rr::dag {
namespace {

constexpr size_t kNoNode = static_cast<size_t>(-1);

// Ready nodes queued for a worker, summed over every executor in the
// process: each queued node adds one, each pop subtracts one.
obs::Gauge& QueueDepth() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_dag_queue_depth",
      "Ready DAG nodes waiting for a pool worker (a successor its retiring "
      "worker runs next never waits here)");
  return *gauge;
}

}  // namespace

using core::Endpoint;
using core::Hop;
using core::InvokeOutcome;
using core::MemoryRegion;
using core::Payload;
using core::Shim;
using core::ShimLease;

// Per-node execution state. The node's output lives in `payload` — a
// ref-counted handle on the zero-copy plane. `remaining_consumers` counts
// successors that still need it; the consumer that decrements it to zero
// drops the node's claim, and the payload's own refcount releases the
// storage (a still-guest-resident region, or the shared host chunk) with the
// last holder, so fan-out never frees under a concurrent reader and
// steady-state memory stays bounded by the DAG's live frontier. A cancelled
// run cleans up the same way when its run context is freed.
struct DagExecutor::NodeRun {
  Endpoint* endpoint = nullptr;
  Payload payload;
  std::atomic<size_t> remaining_consumers{0};
  size_t remaining_preds = 0;  // unretired predecessors; under mutex_
};

// One run's state, from Start until Finish frees it.
struct DagExecutor::RunContext {
  RunContext(const Dag& dag, const rr::Buffer& input,
             const resilience::ResiliencePolicy& policy, DoneFn done)
      : dag(dag), input(input), runs(dag.size()), res(policy),
        trace_ctx(obs::CurrentSpanContext()), done(std::move(done)) {}

  const Dag& dag;
  const rr::Buffer& input;
  std::vector<NodeRun> runs;
  // Guarded by the executor's mutex_ until `outstanding` reaches 0; the
  // thread that brings it there owns the run alone.
  size_t outstanding = 0;  // queued + executing + deferred nodes
  bool cancelled = false;
  Status first_error;
  RunResilience res;
  // Nodes execute on the pool's workers; the starting thread's trace
  // context is re-installed there so every node/edge span joins the run's
  // trace instead of opening orphan traces per worker.
  const obs::SpanContext trace_ctx;
  // When the first source node began; stamped once by whichever source
  // claims `started_claimed`, before that node retires.
  std::atomic<bool> started_claimed{false};
  TimePoint started{};
  // The transfer phase as two lock-free stamps (TimePoint{} = unset): the
  // first edge's start and the latest edge completion across the run's
  // concurrent branches. A local edge is stamped around its Forward, a
  // remote edge from its frame assembly until its delivery.
  std::atomic<TimePoint> first_edge_start{};
  std::atomic<TimePoint> last_edge_end{};
  DoneFn done;

  // The first caller anchors the phase.
  void MarkEdgeStart() {
    if (first_edge_start.load() != TimePoint{}) return;
    TimePoint unset{};
    first_edge_start.compare_exchange_strong(unset, Now());
  }

  void MarkEdgeEnd() {
    const TimePoint now = Now();
    TimePoint seen = last_edge_end.load();
    while (seen < now && !last_edge_end.compare_exchange_weak(seen, now)) {
    }
  }

  // Zero for a run without edges.
  Nanos TransferPhase() const {
    const TimePoint start = first_edge_start.load();
    return start == TimePoint{} ? Nanos{0} : last_edge_end.load() - start;
  }
};
static_assert(std::atomic<TimePoint>::is_always_lock_free);

DagExecutor::DagExecutor(core::WorkflowManager* manager, size_t workers)
    : manager_(manager) {
  life_->owner = this;
  if (workers == 0) {
    workers = std::max<size_t>(2, osal::UsableCpus());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DagExecutor::~DagExecutor() {
  // Disarm the completion callbacks FIRST: a mux stream the deadline sweeper
  // abandoned may still fire its stream callback from a reactor thread
  // while (or after) this executor tears down.
  {
    MutexLock lock(life_->mutex);
    life_->owner = nullptr;
  }
  {
    MutexLock lock(mail_mutex_);
    sweeper_stop_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void DagExecutor::Start(
    const Dag& dag, const rr::Buffer& input,
    const std::optional<resilience::ResiliencePolicy>& policy_override,
    DoneFn done) {
  auto run = std::make_unique<RunContext>(
      dag, input, policy_override.value_or(policy_), std::move(done));
  for (size_t i = 0; i < dag.size(); ++i) {
    Result<Endpoint*> endpoint = manager_->Find(dag.node(i).name);
    if (!endpoint.ok()) {
      run->started = Now();
      run->first_error = endpoint.status();
      Finish(run.release());
      return;
    }
    run->runs[i].endpoint = *endpoint;
    run->runs[i].remaining_consumers.store(dag.node(i).succs.size(),
                                           std::memory_order_relaxed);
    run->runs[i].remaining_preds = dag.node(i).preds.size();
  }

  // A validated Dag is non-empty, so `outstanding` starts > 0 and reaches 0
  // exactly when every reachable (non-cancelled) node has retired — deferred
  // nodes included.
  RunContext* const context = run.release();
  MutexLock lock(mutex_);
  for (const size_t source : dag.sources()) {
    queue_.emplace_back(context, source);
    // One wakeup per queued node: notify_all would stampede the whole pool
    // through the mutex for a run that may have a single source.
    work_cv_.notify_one();
  }
  context->outstanding = dag.sources().size();
  QueueDepth().Add(static_cast<int64_t>(dag.sources().size()));
}

void DagExecutor::WorkerLoop() {
  MutexLock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this]() RR_REQUIRES(mutex_) {
      return stopping_ || !queue_.empty();
    });
    if (stopping_) return;
    RunContext* const run = queue_.front().first;
    size_t index = queue_.front().second;
    queue_.pop_front();
    QueueDepth().Sub();

    // Run to completion: keep executing the successor each retirement hands
    // back until the run defers, branches out, fails or finishes.
    while (index != kNoNode) {
      Status status;
      bool deferred = false;
      if (!run->cancelled) {
        lock.unlock();
        {
          obs::ScopedTraceContext trace(run->trace_ctx);
          status = RunNode(*run, index, deferred);
        }
        lock.lock();
      }
      // else: the run failed before this node started — retire it unrun.

      // A deferred node retires through its pending slot — possibly already
      // has, on another thread, in which case the run may be GONE: it must
      // not be touched past this point.
      if (deferred) break;
      index = RetireLocked(run, index, std::move(status), /*keep=*/true);
      if (run->outstanding == 0) {
        lock.unlock();
        Finish(run);
        lock.lock();
      }
    }
  }
}

size_t DagExecutor::RetireLocked(RunContext* run, size_t index, Status status,
                                 bool keep) {
  size_t kept = kNoNode;
  if (!status.ok()) {
    if (run->first_error.ok()) {
      run->first_error =
          Status(status.code(), "node " + run->dag.node(index).name + ": " +
                                    status.message());
    }
    run->cancelled = true;
  } else if (!run->cancelled) {
    for (const size_t succ : run->dag.node(index).succs) {
      if (--run->runs[succ].remaining_preds != 0) continue;
      ++run->outstanding;
      if (keep && kept == kNoNode) {
        kept = succ;
        continue;
      }
      queue_.emplace_back(run, succ);
      QueueDepth().Add();
      // One notify per queued node engages exactly as many extra workers as
      // there is work the retiring thread does not take itself.
      work_cv_.notify_one();
    }
  }
  --run->outstanding;
  return kept;
}

void DagExecutor::RetireDeferred(RunContext* run, size_t index,
                                 Status status) {
  {
    MutexLock lock(mutex_);
    (void)RetireLocked(run, index, std::move(status), /*keep=*/false);
    if (run->outstanding != 0) return;
  }
  Finish(run);
}

void DagExecutor::Finish(RunContext* context) {
  std::unique_ptr<RunContext> run(context);
  Status status = std::move(run->first_error);
  // Assemble the result by chunk sharing: each sink's output is egressed
  // exactly once (here, if it was not already host-resident) and the
  // concatenation borrows the chunks — no merge allocation. Every other
  // still-live payload (a cancelled run's frontier) releases through its
  // handle when the context is freed below.
  rr::Buffer result;
  if (status.ok()) {
    obs::ScopedTraceContext trace(run->trace_ctx);
    for (const size_t sink : run->dag.sinks()) {
      auto sink_buffer = run->runs[sink].payload.Materialize();
      if (!sink_buffer.ok()) {
        status = sink_buffer.status();
        break;
      }
      result.Append(*sink_buffer);
    }
  }
  const Nanos transfer_phase = status.ok() ? run->TransferPhase() : Nanos{0};

  // Free the run's state before the caller hears of it: `done` may release
  // the last owner of everything the run borrowed (the DAG, the input, the
  // endpoints' pools), and the caller's teardown waits only for `done`.
  const TimePoint started = run->started;
  const DoneFn done = std::move(run->done);
  run.reset();
  if (status.ok()) {
    done(std::move(result), started, transfer_phase);
  } else {
    done(std::move(status), started, transfer_phase);
  }
}

Status DagExecutor::RunNode(RunContext& run, size_t index, bool& deferred) {
  const DagNode& node = run.dag.node(index);
  std::vector<NodeRun>& runs = run.runs;
  Endpoint& target = *runs[index].endpoint;

  // Sources take the workflow input through platform ingress: a gather write
  // of the shared input chunks — the submit-side plane never copied them.
  // The lease admits this run into the function's pool; concurrent submits
  // of the same workflow land on distinct warm instances, so their
  // invocations overlap instead of queuing on one VM.
  if (node.preds.empty()) {
    if (!run.started_claimed.exchange(true, std::memory_order_relaxed)) {
      run.started = Now();
    }
    RR_ASSIGN_OR_RETURN(ShimLease lease, target.Lease());
    InvokeOutcome outcome;
    {
      MutexLock shim_lock(lease->exec_mutex());
      RR_TRACE_SPAN(node_span, "dag", "node:" + node.name);
      RR_ASSIGN_OR_RETURN(outcome,
                          lease->DeliverAndInvoke(rr::BufferView(run.input)));
    }
    return FinishNode(run, index, lease.get(), outcome);
  }

  // Decide coupling per predecessor FIRST, from placement alone: a network
  // edge into a published ingress port is invoke-coupled (the frame lands at
  // a remote NodeAgent whose worker performs receive+invoke); everything
  // else is a local hop that delivers here. The invoke-coupled path leaves
  // the replica choice to DispatchAttempt — a dead replica must fail INSIDE
  // the retry/failover engine, not up here — so only local predecessors
  // establish hops. The agent ingress only carries edges the
  // placement makes network anyway, so a co-located predecessor keeps its
  // user/kernel fast path even when the target publishes an ingress port; a
  // genuinely mixed predecessor set is rejected regardless of
  // edge-declaration order.
  size_t coupled = 0;
  for (const size_t pred : node.preds) {
    const core::TransferMode mode = core::SelectMode(
        runs[pred].endpoint->location, target.location);
    if (mode == core::TransferMode::kNetwork && target.port != 0) ++coupled;
  }
  if (coupled == node.preds.size()) {
    return RunRemoteNode(run, index, deferred);
  }
  if (coupled != 0) {
    return FailedPreconditionError(
        "node " + node.name +
        " mixes invoke-coupled (agent ingress) and local predecessors");
  }
  // Local path: establish every predecessor's hop up front. Holding the
  // shared_ptrs for the node's duration keeps every hop alive across a
  // concurrent eviction (the transfer then fails on the closed wire,
  // cleanly).
  std::vector<std::shared_ptr<Hop>> pred_hops;
  pred_hops.reserve(node.preds.size());
  for (const size_t pred : node.preds) {
    RR_ASSIGN_OR_RETURN(std::shared_ptr<Hop> hop,
                        manager_->hops().Get(*runs[pred].endpoint, target));
    pred_hops.push_back(std::move(hop));
  }
  return RunLocalNode(run, index, pred_hops);
}

Status DagExecutor::RunLocalNode(
    RunContext& run, size_t index,
    const std::vector<std::shared_ptr<Hop>>& pred_hops) {
  const DagNode& node = run.dag.node(index);
  std::vector<NodeRun>& runs = run.runs;
  Endpoint& target = *runs[index].endpoint;

  // A Forward whose wire died (a kernel or network loopback hop's frame
  // failed after its first byte left) leaves the hop dead in the cache:
  // evict so the next run re-establishes instead of failing forever.
  // User-space hops and typed in-sync refusals stay cached.
  const auto evict_if_dead = [&](Hop& hop) {
    if (!hop.healthy()) manager_->hops().Evict(target.shim->name());
  };

  // ONE lease spans the whole node invocation — the gather-region prepare,
  // every leg's delivery, and the invoke all land in the same instance. The
  // lease is released when this function returns (never held across a
  // worker dispatch boundary, which could starve bounded pools); the
  // node's output region stays behind in the instance, read later under its
  // exec mutex.
  RR_ASSIGN_OR_RETURN(ShimLease lease, target.Lease());
  Shim& instance = *lease;

  MemoryRegion input_region;
  if (node.preds.size() == 1) {
    // Single predecessor: the guest-direct fast path (a still-guest-resident
    // payload moves with the mode's classic single copy; a shared fan-out
    // chunk is gathered straight into the fresh input region).
    const size_t pred = node.preds.front();
    const Payload payload = runs[pred].payload;
    run.MarkEdgeStart();
    RR_TRACE_SPAN(edge_span, "dag",
                  "edge:" + runs[pred].endpoint->shim->name() + "->" +
                      target.shim->name());
    Result<MemoryRegion> delivered =
        pred_hops.front()->Forward(payload, instance);
    if (edge_span) edge_span->End();
    if (!delivered.ok()) {
      evict_if_dead(*pred_hops.front());
      return delivered.status();
    }
    run.MarkEdgeEnd();
    input_region = *delivered;
  } else {
    // Fan-in: one gather region of the summed predecessor sizes, every leg
    // delivered over its own placement-selected hop directly into its slice
    // (edge-declaration order) — no per-predecessor staging regions, no
    // intermediate merge allocation, no merge copy.
    uint64_t total = 0;
    for (const size_t pred : node.preds) total += runs[pred].payload.size();
    if (total > UINT32_MAX) {
      return ResourceExhaustedError("fan-in input exceeds 32-bit guest memory");
    }
    MemoryRegion merged;
    // The gather region must not outlive a failed fan-in: any leg's failure
    // releases the whole merged allocation (under the instance's exec mutex
    // — the guard itself takes no locks) before the error propagates.
    core::RegionGuard merged_guard;
    {
      MutexLock shim_lock(instance.exec_mutex());
      RR_ASSIGN_OR_RETURN(merged,
                          instance.PrepareInput(static_cast<uint32_t>(total)));
      merged_guard = core::RegionGuard(&instance, merged);
    }
    uint32_t offset = 0;
    for (size_t i = 0; i < node.preds.size(); ++i) {
      const size_t pred = node.preds[i];
      const Payload payload = runs[pred].payload;
      const MemoryRegion slice{merged.address + offset,
                               static_cast<uint32_t>(payload.size())};
      run.MarkEdgeStart();
      RR_TRACE_SPAN(edge_span, "dag",
                    "edge:" + runs[pred].endpoint->shim->name() + "->" +
                        target.shim->name());
      Result<MemoryRegion> delivered =
          pred_hops[i]->Forward(payload, instance, &slice);
      if (edge_span) edge_span->End();
      if (!delivered.ok()) {
        evict_if_dead(*pred_hops[i]);
        MutexLock shim_lock(instance.exec_mutex());
        (void)merged_guard.ReleaseNow();
        return delivered.status();
      }
      run.MarkEdgeEnd();
      offset += slice.length;
    }
    merged_guard.Dismiss();  // ownership continues as the node's input region
    input_region = merged;
  }
  ReleaseConsumedPreds(node, runs);

  InvokeOutcome outcome;
  {
    MutexLock shim_lock(instance.exec_mutex());
    // A successful invoke consumes the input region; a failed one leaves it
    // allocated in the target's sandbox — the guard reclaims it (we hold the
    // exec mutex for the guard's whole scope).
    core::RegionGuard input_guard(&instance, input_region);
    RR_TRACE_SPAN(node_span, "dag", "node:" + node.name);
    auto invoked = instance.InvokeOnRegion(input_region);
    if (node_span) node_span->End();
    if (!invoked.ok()) return invoked.status();
    input_guard.Dismiss();
    outcome = *invoked;
  }
  return FinishNode(run, index, &instance, outcome);
}

// Completion-driven remote node: assembles ONE frame, registers the pending
// continuation slot, marks the node deferred, and hands the token to
// DispatchAttempt — then returns, freeing the worker. The node retires when
// the slot is taken: DeliverOutcome (the agent's delivery callback, carrying
// the outcome), the agent client's stream callback with an error (a mux
// completion frame — a remote handler failure arrives here immediately), or
// the remote_deadline sweeper (the backstop for a silent far side). With the
// run's ResiliencePolicy enabled, a retryable attempt failure re-registers
// the slot in backoff instead of retiring the node (see
// ResolveAttemptFailure).
Status DagExecutor::RunRemoteNode(RunContext& run, size_t index,
                                  bool& deferred) {
  const DagNode& node = run.dag.node(index);
  std::vector<NodeRun>& runs = run.runs;
  Endpoint& target = *runs[index].endpoint;

  run.MarkEdgeStart();
  // Frame assembly. The agent invokes on every received frame, so a fan-in
  // join's input must travel as ONE frame — predecessor chunks concatenated
  // by reference and vectored onto the wire, no host-side merge copy. Egress
  // is forced HERE, before the pending slot below publishes, so the slot is
  // fully written first: once the frame is on the wire, the
  // completion may race this thread. The slot keeps the assembled buffer
  // for the attempt's lifetime — a redispatch re-sends the same immutable
  // frame at refcount cost.
  rr::Buffer wire;
  for (const size_t pred : node.preds) {
    auto part = runs[pred].payload.Materialize();
    RR_RETURN_IF_ERROR(part.status());
    wire.Append(*part);
  }

  // Everything below the slot registration runs on borrowed time: the
  // moment the slot is published, ANY resolution path — a loopback
  // completion, or the sweeper under a very short remote_deadline — can
  // retire the node and finish the run, freeing the context `runs` and
  // `target` live in (and, with it, possibly the DAG `node` lives in). So:
  // copy the names out, and drop this node's claim on its predecessors NOW
  // (the slot's frame holds the chunk refcounts).
  const std::string node_name = node.name;
  const std::string function = target.shim->name();
  ReleaseConsumedPreds(node, runs);

  // The dispatch span is what the agent-side spans parent under: its context
  // rides the frame header, re-installed around EVERY attempt's dispatch.
  // The span is RECORDED up front — a loopback completion can finish the
  // whole run (and a caller snapshot the trace) before DispatchAttempt
  // returns.
  obs::SpanContext span_ctx{};
  {
    RR_TRACE_SPAN(dispatch_span, "dag", "dispatch:" + node_name);
    if (dispatch_span) {
      span_ctx = dispatch_span->context();
      dispatch_span->End();
    }
  }

  // Defer the node and register its continuation BEFORE the frame leaves:
  // the completion may fire — and the node retire — before the dispatch
  // call even returns. The slot publishes with its deadline DISARMED
  // (TimePoint::max()); DispatchAttempt arms it once a replica is chosen,
  // so the sweeper cannot expire an attempt that has not initiated.
  deferred = true;
  const uint64_t token = next_token_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mail_mutex_);
    Pending slot;
    slot.function = function;
    slot.run = &run;
    slot.index = index;
    slot.frame = std::move(wire);
    slot.trace_ctx = span_ctx;
    slot.phase = Pending::Phase::kInFlight;
    slot.dispatched_at = Now();
    slot.deadline = TimePoint::max();
    pending_.emplace(token, std::move(slot));
    if (!sweeper_.joinable()) {
      sweeper_ = std::thread([this] { SweeperLoop(); });
    }
  }
  DispatchAttempt(token);
  return Status::Ok();
}

// One attempt of one pending transfer: select a replica (breaker-gated,
// starting where the previous attempt left off), look up its agent client,
// arm the attempt deadline, and start the stream. Runs on a worker for the
// first attempt and on the sweeper thread for backoff redispatches.
void DagExecutor::DispatchAttempt(uint64_t token) {
  // Snapshot what the selection needs under the lock. The raw endpoint
  // pointer stays valid outside it: no resolution signal can fire for this
  // token until the stream below starts (the deadline is disarmed, the
  // phase is in-flight so the sweeper won't redispatch, and the frame has
  // not touched a wire), so the node cannot retire and the run context
  // cannot be freed.
  std::string function;
  rr::Buffer frame;
  size_t start_replica = 0;
  Endpoint* target = nullptr;
  obs::SpanContext trace_ctx{};
  {
    MutexLock lock(mail_mutex_);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;  // already resolved
    Pending& slot = it->second;
    slot.phase = Pending::Phase::kInFlight;
    slot.deadline = TimePoint::max();
    function = slot.function;
    frame = slot.frame;
    start_replica = slot.replica;
    target = slot.run->runs[slot.index].endpoint;
    trace_ctx = slot.trace_ctx;
  }

  // Replica selection. A breaker refusal skips the replica in microseconds.
  // The client dials inside StartStream, so a dead replica is not skipped
  // here: its dial fails this attempt's dispatch at once (no deadline is
  // spent), and the walk moves on only once that replica's max_attempts are
  // spent (ResolveAttemptFailure).
  core::HopTable& hops = manager_->hops();
  const size_t replica_count = target->replica_count();
  std::shared_ptr<core::MuxClient> client;
  size_t chosen = 0;
  Status last_refusal =
      UnavailableError("no dispatchable replica for function " + function);
  for (size_t k = 0; k < replica_count && client == nullptr; ++k) {
    const size_t r = (start_replica + k) % replica_count;
    const Status admitted = hops.AdmitDispatch(function, r);
    if (!admitted.ok()) {
      last_refusal = admitted;
      continue;
    }
    auto found = hops.AgentClient(target->replica_address(r));
    if (!found.ok()) {
      last_refusal = found.status();
      continue;
    }
    client = *std::move(found);
    chosen = r;
  }
  if (client == nullptr) {
    // Every replica refused (or no client could start its reactor). The
    // refused round counts as an attempt so an all-open breaker set
    // converges on max_attempts × replicas instead of spinning until the
    // budget drains.
    {
      MutexLock lock(mail_mutex_);
      const auto it = pending_.find(token);
      if (it == pending_.end()) return;
      ++it->second.total_attempts;
    }
    ResolveAttemptFailure(token, last_refusal);
    return;
  }

  // Arm the attempt. Re-find the slot: selection ran unlocked and purely
  // defensive — nothing can have resolved the token — but a find keeps the
  // invariant local.
  bool wake_sweeper = false;
  bool failover = false;
  {
    MutexLock lock(mail_mutex_);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;
    Pending& slot = it->second;
    failover = slot.last_replica != Pending::kNoReplica &&
               chosen != slot.last_replica;
    slot.attempts_on_replica =
        chosen == slot.last_replica ? slot.attempts_on_replica + 1 : 1;
    slot.last_replica = slot.replica = chosen;
    ++slot.total_attempts;
    slot.dispatched = true;
    slot.dispatched_at = Now();
    // Non-positive remote_deadline means UNBOUNDED (no backstop — failures
    // still surface through completion frames and dead channels), never
    // "expire immediately": an already-expired slot would let the sweeper
    // retire the node while this thread still runs.
    slot.deadline = remote_deadline_ > Nanos{0}
                        ? slot.dispatched_at + remote_deadline_
                        : TimePoint::max();
    wake_sweeper = slot.deadline < sweep_next_;
  }
  if (wake_sweeper) sweep_cv_.notify_all();
  if (failover) resilience::FailoverTotal().Inc();

  // Keep the recorded dispatch span's context installed while the stream
  // captures its open frame's header, so agent-side spans parent under it on
  // every attempt — retries included. The stream holds a refcount on the
  // frame's chunks.
  std::optional<obs::ScopedTraceContext> dispatch_ctx;
  if (trace_ctx.valid()) dispatch_ctx.emplace(trace_ctx);
  const std::shared_ptr<LifeGuard> life = life_;
  const Status sent = client->StartStream(
      function, std::move(frame), token, hops.wire_options().transfer_deadline,
      [life, token](Status outcome) {
        // OK = the wire accepted the transfer; the node's real outcome
        // arrives through the delivery callback. An error is terminal for
        // the ATTEMPT (completion frame, dead channel, drain deadline):
        // resolve it now instead of waiting out the backstop — the retry
        // engine decides whether the edge lives on.
        if (outcome.ok()) return;
        MutexLock lock(life->mutex);
        if (life->owner == nullptr) return;
        life->owner->ResolveAttemptFailure(token, outcome);
      });
  if (!sent.ok()) {
    // Initiation failed (a dead replica's dial lands here): the callback
    // never fires. Resolve through the engine — which no-ops if a sweeper
    // with a very short deadline already took the slot.
    ResolveAttemptFailure(token, sent);
  }
}

// Resolves one attempt's failure. Terminal — the node retires with the
// attempt's own status — when the run's policy is disabled, the status is
// not retryable, or the attempt ceiling (max_attempts × replicas) is
// reached; terminal with a typed kUnavailable when the run's shared retry
// budget is gone. Otherwise the slot re-registers under a FRESH token in
// backoff phase and the sweeper redispatches it at retry_at: no worker
// parks, and any late signal for the failed attempt finds its old token
// gone.
void DagExecutor::ResolveAttemptFailure(uint64_t token, const Status& status) {
  std::optional<Pending> slot = TakePending(token);
  if (!slot.has_value()) return;  // already resolved: the first signal won

  // Only an attempt that reached a replica has a wire outcome to feed that
  // replica's breaker. One that never dispatched (every replica refused
  // admission) has none, and re-recording the refusal would double-penalize
  // the previously used replica. Nothing is evicted: the agent client
  // redials on its next stream, and the function's local hops carry other
  // edges.
  if (slot->dispatched) {
    manager_->hops().RecordDispatchOutcome(slot->function, slot->last_replica,
                                           status);
  }

  RunResilience& res = slot->run->res;
  const resilience::ResiliencePolicy& policy = res.policy;
  const size_t replica_count =
      slot->run->runs[slot->index].endpoint->replica_count();
  const uint32_t max_total =
      policy.max_attempts * static_cast<uint32_t>(replica_count);
  if (!policy.enabled || !resilience::RetryableDispatch(status) ||
      slot->total_attempts >= max_total) {
    // Terminal with the attempt's own status: callers (and tests) see the
    // real failure class — kDeadlineExceeded for a silent far side, the
    // typed refusal for a handler error — not a retry wrapper.
    RetireDeferred(slot->run, slot->index, status);
    return;
  }
  if (!res.budget.TryConsume()) {
    resilience::RetryBudgetExhaustedTotal().Inc();
    RetireDeferred(
        slot->run, slot->index,
        UnavailableError("retry budget exhausted for run; last error: " +
                         status.ToString()));
    return;
  }

  // This replica's per-replica attempts are spent: advance the selection
  // start — failover in registration order, wrapping.
  if (slot->attempts_on_replica >= policy.max_attempts && replica_count > 1) {
    slot->replica = (slot->last_replica + 1) % replica_count;
  }
  slot->dispatched = false;
  bool wake_sweeper = false;
  {
    MutexLock lock(mail_mutex_);
    // The jitter stream is shared by the run's concurrent edges; mail_mutex_
    // guards the draw, keeping the sequence (and tests) deterministic.
    const Nanos delay =
        resilience::NextBackoff(policy, slot->prev_backoff, res.rng);
    slot->prev_backoff = delay;
    slot->phase = Pending::Phase::kBackoff;
    slot->retry_at = Now() + delay;
    slot->deadline = TimePoint::max();
    wake_sweeper = slot->retry_at < sweep_next_;
    const uint64_t fresh =
        next_token_.fetch_add(1, std::memory_order_relaxed);
    pending_.emplace(fresh, std::move(*slot));
  }
  resilience::RetryAttemptsTotal().Inc();
  if (wake_sweeper) sweep_cv_.notify_all();
}

// Publishes the node's output on the payload plane: the payload records the
// pool instance whose memory holds the region. A node with more than one
// successor egresses NOW — one copy into an immutable shared chunk, the
// guest region released before any successor runs — so N-way fan-out is
// O(1) payload copies and the successors only ever bump a refcount.
Status DagExecutor::FinishNode(RunContext& run, size_t index,
                               core::Shim* instance,
                               core::InvokeOutcome outcome) {
  NodeRun& node_run = run.runs[index];
  node_run.payload = Payload::FromGuest(instance, outcome.output);
  const DagNode& node = run.dag.node(index);
  if (node.succs.size() > 1) {
    RR_TRACE_SPAN(egress_span, "dag", "egress:" + node.name);
    RR_RETURN_IF_ERROR(node_run.payload.Materialize().status());
  }
  return Status::Ok();
}

std::optional<DagExecutor::Pending> DagExecutor::TakePending(uint64_t token) {
  MutexLock lock(mail_mutex_);
  const auto it = pending_.find(token);
  if (it == pending_.end()) return std::nullopt;
  Pending slot = std::move(it->second);
  pending_.erase(it);
  return slot;
}

Status DagExecutor::DeliverOutcome(const std::string& function,
                                   core::InvokeOutcome outcome, uint64_t token,
                                   core::ShimLease instance) {
  std::optional<Pending> slot = TakePending(token);
  if (!slot.has_value()) {
    // Nobody is waiting on this token: the transfer timed out, its run was
    // cancelled, or the sender never tracked it. Release the orphaned output
    // so the remote function's heap stays bounded (dropping the lease then
    // returns the instance to its pool).
    if (instance) {
      MutexLock shim_lock(instance->exec_mutex());
      (void)instance->ReleaseRegion(outcome.output);
    }
    resilience::StaleDeliveriesTotal().Inc();
    return TokenMismatchError("delivery for function " + function +
                              " carries token " + std::to_string(token) +
                              " matching no pending transfer");
  }

  // The attempt's replica answered: reset its breaker streak (a delivery
  // proves the wire AND the agent work, whatever the handler returned).
  if (slot->last_replica != Pending::kNoReplica) {
    manager_->hops().RecordDispatchOutcome(slot->function, slot->last_replica,
                                           Status::Ok());
  }

  // Resolve the deferred edge. Everything touching the run context (its
  // phase stamp, runs, dag) happens BEFORE the node retires: retiring the
  // run's last node finishes the run and frees that context. The delivery
  // ends the edge's part of the transfer phase — the remote invoke is part
  // of the edge on this path.
  RunContext& run = *slot->run;
  run.MarkEdgeEnd();
  RetireDeferred(&run, slot->index,
                 FinishNode(run, slot->index, instance.get(), outcome));
  // The instance lease drops when this returns — the agent-side instance
  // goes back to its pool; the output region it still hosts is pinned by
  // the node's payload and read under the instance's exec mutex.
  return Status::Ok();
}

// The sweeper serves two clocks. The remote_deadline backstop: with
// completion frames carrying failures and delivery callbacks carrying
// successes, an expiry only ever fires for a far side that went fully silent
// (a dead agent, a lost frame); it routes through ResolveAttemptFailure so
// the retry engine decides whether the edge is terminal. And the backoff
// clock: a slot parked in kBackoff redispatches here when retry_at passes —
// the ONLY redispatch site, so no worker ever sleeps a backoff out. A
// redispatch to a disconnected agent may block this thread on the client's
// inline reconnect; concurrent expiries slip by that much, which the
// per-attempt deadlines absorb.
void DagExecutor::SweeperLoop() {
  MutexLock lock(mail_mutex_);
  while (!sweeper_stop_) {
    const TimePoint now = Now();
    TimePoint next = TimePoint::max();
    std::vector<std::pair<uint64_t, std::string>> expired;
    std::vector<uint64_t> due;
    for (const auto& [token, slot] : pending_) {
      if (slot.phase == Pending::Phase::kInFlight) {
        if (slot.deadline <= now) {
          expired.emplace_back(token, slot.function);
        } else {
          next = std::min(next, slot.deadline);
        }
      } else {
        if (slot.retry_at <= now) {
          due.push_back(token);
        } else {
          next = std::min(next, slot.retry_at);
        }
      }
    }
    if (!expired.empty() || !due.empty()) {
      // Slots stay registered while unlocked: ResolveAttemptFailure and
      // DispatchAttempt take (or re-find) them by token, so a completion
      // racing this scan simply wins and the loser no-ops.
      lock.unlock();
      for (const auto& [token, function] : expired) {
        ResolveAttemptFailure(
            token,
            DeadlineExceededError("no delivery from node agent for function " +
                                  function + " (token " +
                                  std::to_string(token) + ")"));
      }
      for (const uint64_t token : due) DispatchAttempt(token);
      lock.lock();
      continue;  // pending_ may have changed while unlocked
    }
    sweep_next_ = next;
    if (next == TimePoint::max()) {
      sweep_cv_.wait(lock);
    } else {
      sweep_cv_.wait_until(lock, next);
    }
  }
}

core::NodeAgent::DeliveryCallback DagExecutor::DeliverySink() {
  return [this](const std::string& function, InvokeOutcome outcome,
                uint64_t token, ShimLease instance) {
    const Status status =
        DeliverOutcome(function, std::move(outcome), token, std::move(instance));
    if (!status.ok()) {
      RR_LOG(Debug) << "dag executor: rejected delivery: " << status;
    }
  };
}

// Transfers are complete: drop each predecessor's claim; the payload's
// refcount releases the storage with its last holder.
void DagExecutor::ReleaseConsumedPreds(const DagNode& node,
                                       std::vector<NodeRun>& runs) {
  for (const size_t pred : node.preds) {
    NodeRun& p = runs[pred];
    if (p.remaining_consumers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      p.payload.Reset();
    }
  }
}

}  // namespace rr::dag
