// DagScheduler: dependency-ordered dispatch onto a fixed worker pool.
//
// A node becomes ready when every predecessor completed successfully; ready
// nodes are dispatched to the pool in topological wavefronts, so independent
// branches (fan-out replicas, parallel pipelines) execute concurrently while
// joins wait for all of their inputs. The pool is fixed at construction:
// workflow width never translates into unbounded thread creation.
//
// Runs are asynchronous and RUN TO COMPLETION. Start queues a run's sources
// and returns; the run finishes on the thread that retires its last node,
// which fires the run's `done` right there. A worker that retires a node
// runs the first successor it made ready itself, next — no queueing, no
// wakeup — and hands only the further successors to the shared queue. So a
// chain runs start to finish on one worker and completes there, and a
// fan-out engages exactly one extra worker per extra branch. Any number of
// concurrent runs share the one pool; each run's bookkeeping lives on the
// heap until its `done` fires, so runs never contend on anything but the
// queue lock.
//
// Nodes may complete ASYNCHRONOUSLY: a node task whose work finishes
// elsewhere (a remote dispatch whose outcome arrives as a completion frame)
// calls the `defer` handle it was given and returns immediately — the worker
// moves on to other nodes while the deferred node stays outstanding. Whoever
// finishes the work completes the returned Ticket with the node's final
// status, which runs the exact bookkeeping a synchronous return would have
// (successor release, cancellation, run completion) — except that a
// Ticket's completion queues every successor: the completing thread is
// usually not a pool worker. This is what lets a fixed pool carry tens of
// thousands of in-flight remote edges: a parked node costs a map entry, not
// a parked thread.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dag/dag.h"

namespace rr::dag {

class DagScheduler {
 private:
  struct RunState;

 public:
  // Completion handle of one deferred node. Copyable — hand copies to the
  // success path, the failure path, and the deadline backstop; the FIRST
  // Complete across all copies wins and the rest are no-ops. A
  // default-constructed Ticket is empty (Complete is a no-op). The scheduler
  // must outlive every live Ticket — guaranteed while its owner waits for
  // every started run's `done` before destroying it, because a pending
  // Ticket keeps its run from finishing.
  class Ticket {
   public:
    Ticket() = default;

    // Retires the deferred node with its final status: an error cancels the
    // run (first error wins, prefixed with the node's name), a success
    // queues every newly-ready successor. When this retires the run's last
    // node, the run's `done` fires on the calling thread before Complete
    // returns. Callable from any thread, including before the deferring node
    // task has returned to its worker.
    void Complete(Status status);

   private:
    friend class DagScheduler;
    struct Slot {
      DagScheduler* scheduler = nullptr;
      RunState* state = nullptr;
      size_t node = 0;
      std::atomic<bool> completed{false};
    };
    std::shared_ptr<Slot> slot_;
  };

  // Handed to each node task. Calling it marks the node deferred: the
  // scheduler then IGNORES the task's return value and the node stays
  // outstanding (successors unreleased, the run unfinished) until the
  // returned Ticket completes. Only valid during the task invocation it was
  // passed to — do not store it.
  using DeferFn = std::function<Ticket()>;

  // The per-node task: invoked exactly once per node, possibly concurrently
  // with other nodes' tasks. A non-OK return cancels the run. A task whose
  // completion is asynchronous calls `defer` and arranges for the Ticket to
  // complete instead; its own return value is then ignored.
  using NodeFn = std::function<Status(size_t node_index, const DeferFn& defer)>;

  // A run's completion: its first error, or OK when every node succeeded.
  using DoneFn = std::function<void(Status status)>;

  // 0 = one worker per hardware thread (at least 2, so single-core hosts
  // still overlap a slow hop with an independent branch).
  explicit DagScheduler(size_t workers = 0);
  // Joins the workers. Every started run must have finished (its `done`
  // returned) before the scheduler is destroyed.
  ~DagScheduler();

  DagScheduler(const DagScheduler&) = delete;
  DagScheduler& operator=(const DagScheduler&) = delete;

  // Starts every node of `dag` respecting its edges and returns at once.
  // `done` fires exactly once, with no scheduler lock held, on the thread
  // that retires the run's last node — a pool worker, or whichever thread
  // completed the last deferred node's Ticket — and `dag` must stay valid
  // until then. On failure no further nodes of that run are dispatched
  // (in-flight tasks finish; deferred nodes still complete through their
  // Tickets), downstream nodes never run, and `done` receives the first
  // error.
  void Start(const Dag& dag, NodeFn fn, DoneFn done);

  size_t worker_count() const { return workers_.size(); }

 private:
  static constexpr size_t kNoNode = static_cast<size_t>(-1);

  // Bookkeeping of one run, allocated by Start and freed after its `done`
  // fires; workers and Tickets reach it through the queue entries and ticket
  // slots, which never outlive the run (outstanding counts them). Guarded by
  // mutex_ until outstanding reaches 0; the thread that brings it there owns
  // it alone.
  struct RunState {
    const Dag* dag = nullptr;
    NodeFn fn;
    DoneFn done;
    std::vector<size_t> remaining_preds;
    size_t outstanding = 0;  // queued + executing + deferred nodes
    bool cancelled = false;
    Status first_error;
  };

  void WorkerLoop();
  // Runs `node`'s task outside the lock; sets `deferred` when the task
  // handed its completion to a Ticket.
  Status RunTask(RunState* state, size_t node, bool& deferred);
  // Shared retirement bookkeeping (mutex_ held): records a failure (first
  // error wins, cancelling the run) or releases a success's newly-ready
  // successors. With `keep`, the first of them is returned for the caller
  // to run next instead of being queued (kNoNode when there is none); every
  // other one is queued with one wakeup. The run is finished when
  // state->outstanding reads 0 afterwards. Reached from WorkerLoop
  // (synchronous returns, keep = true) and from Ticket::Complete (deferred
  // nodes, keep = false).
  size_t RetireLocked(RunState* state, size_t node, Status status, bool keep)
      RR_REQUIRES(mutex_);
  // Fires a finished run's `done` (no lock held) and frees it.
  static void Finish(RunState* state);

  Mutex mutex_;
  CondVar work_cv_;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
  std::deque<std::pair<RunState*, size_t>> queue_ RR_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;
};

}  // namespace rr::dag
