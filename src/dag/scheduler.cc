#include "dag/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rr::dag {
namespace {

// Level of the shared ready queue: nodes dispatched but not yet picked up.
// Sampled under the queue lock, so Set always publishes a consistent depth.
obs::Gauge& QueueDepth() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_dag_queue_depth",
      "Ready DAG nodes waiting for a pool worker (a successor its retiring "
      "worker runs next never waits here)");
  return *gauge;
}

}  // namespace

DagScheduler::DagScheduler(size_t workers) {
  if (workers == 0) {
    workers = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DagScheduler::~DagScheduler() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void DagScheduler::Start(const Dag& dag, NodeFn fn, DoneFn done) {
  auto* state = new RunState;
  state->dag = &dag;
  state->fn = std::move(fn);
  state->done = std::move(done);
  state->remaining_preds.resize(dag.size());
  for (size_t i = 0; i < dag.size(); ++i) {
    state->remaining_preds[i] = dag.node(i).preds.size();
  }

  // A validated Dag is non-empty, so outstanding starts > 0 and reaches 0
  // exactly when every reachable (non-cancelled) node has finished —
  // deferred nodes included, their Tickets being what decrements it.
  MutexLock lock(mutex_);
  for (const size_t source : dag.sources()) {
    queue_.emplace_back(state, source);
    // One wakeup per enqueued item: notify_all would stampede the whole
    // pool through the mutex for a run that may have a single source.
    work_cv_.notify_one();
  }
  state->outstanding = dag.sources().size();
  QueueDepth().Set(static_cast<int64_t>(queue_.size()));
}

void DagScheduler::WorkerLoop() {
  MutexLock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this]() RR_REQUIRES(mutex_) {
      return stopping_ || !queue_.empty();
    });
    if (stopping_) return;
    RunState* const state = queue_.front().first;
    size_t node = queue_.front().second;
    queue_.pop_front();
    QueueDepth().Set(static_cast<int64_t>(queue_.size()));

    // Run to completion: keep executing the successor each retirement
    // hands back until the run defers, branches out, fails or finishes.
    while (node != kNoNode) {
      Status status;
      bool deferred = false;
      if (!state->cancelled) {
        lock.unlock();
        status = RunTask(state, node, deferred);
        lock.lock();
      }
      // else: the run failed before this node started — retire it unrun.

      // A deferred node retires through its Ticket — possibly already has,
      // on another thread, in which case the run may be GONE: state must
      // not be touched past this point.
      if (deferred) break;
      node = RetireLocked(state, node, std::move(status), /*keep=*/true);
      if (state->outstanding == 0) {
        lock.unlock();
        Finish(state);
        lock.lock();
      }
    }
  }
}

Status DagScheduler::RunTask(RunState* state, size_t node, bool& deferred) {
  const auto make_ticket = [this, state, node, &deferred] {
    deferred = true;
    Ticket ticket;
    ticket.slot_ = std::make_shared<Ticket::Slot>();
    ticket.slot_->scheduler = this;
    ticket.slot_->state = state;
    ticket.slot_->node = node;
    return ticket;
  };
  // A single reference capture fits std::function's inline storage: handing
  // out the handle allocates nothing per node.
  const DeferFn defer = [&make_ticket] { return make_ticket(); };
  return state->fn(node, defer);
}

size_t DagScheduler::RetireLocked(RunState* state, size_t node, Status status,
                                  bool keep) {
  size_t kept = kNoNode;
  if (!status.ok()) {
    if (state->first_error.ok()) {
      state->first_error =
          Status(status.code(), "node " + state->dag->node(node).name + ": " +
                                    status.message());
    }
    state->cancelled = true;
  } else if (!state->cancelled) {
    for (const size_t succ : state->dag->node(node).succs) {
      if (--state->remaining_preds[succ] != 0) continue;
      ++state->outstanding;
      if (keep && kept == kNoNode) {
        kept = succ;
        continue;
      }
      queue_.emplace_back(state, succ);
      // One notify per queued item engages exactly as many extra workers
      // as there is work the retiring thread does not take itself.
      work_cv_.notify_one();
    }
    QueueDepth().Set(static_cast<int64_t>(queue_.size()));
  }
  --state->outstanding;
  return kept;
}

void DagScheduler::Finish(RunState* state) {
  const std::unique_ptr<RunState> finished(state);
  finished->done(std::move(finished->first_error));
}

void DagScheduler::Ticket::Complete(Status status) {
  const std::shared_ptr<Slot> slot = slot_;
  if (slot == nullptr || slot->completed.exchange(true)) return;
  RunState* const state = slot->state;
  {
    MutexLock lock(slot->scheduler->mutex_);
    (void)slot->scheduler->RetireLocked(state, slot->node, std::move(status),
                                        /*keep=*/false);
    if (state->outstanding != 0) return;
  }
  Finish(state);
}

}  // namespace rr::dag
