// Per-function Wasm instance pools (the "replicate the execution container"
// remedy of middleware for parallel execution of legacy applications): a
// registered function no longer owns ONE sandbox that every invocation
// serializes on — it owns a bounded pool of warm instances, and each
// invocation leases one for exactly as long as it needs it.
//
// The pool is deliberately generic: it manages opaque `Instance` slots
// produced by a caller-supplied factory, so the runtime layer stays ignorant
// of shim-side state (core::Shim wraps each slot with its DataAccess region
// registry; see core/shim_pool.h). Policy:
//
//   * `min_warm` instances are created eagerly at construction — the warm
//     set. Growth beyond it is lazy: an Acquire that finds no idle instance
//     creates a new one, up to `max_instances`.
//   * Reuse is LIFO: the most recently released instance is handed out
//     first, so a hot instance's guest pages and allocator state stay warm
//     in cache instead of round-robining through cold replicas.
//   * When all `max_instances` are leased, Acquire blocks (bounded by
//     `acquire_timeout`) until a lease returns — the pool is the concurrency
//     limiter, replacing the old per-shim exec_mutex with N-way admission.
//     TryAcquire is the non-blocking form for event loops: it hands back an
//     empty lease instead of waiting, and the caller queues (NoteWait) and
//     retries when an instance returns.
//
// A Lease is the RAII handle of one exclusive hold: while it lives, no other
// Acquire can hand out the same instance, which is what makes unsynchronized
// use of the instance's sandbox safe. Releases (and destruction) return the
// instance LIFO.
//
// Thread safety: Acquire/metrics/ForEachInstance are safe from any thread.
// The pool must outlive every lease (core::ShimPool guarantees this by
// handing out shared ownership).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace rr::runtime {

// Sizing knobs of one function's pool.
struct PoolOptions {
  // Instances created eagerly at pool construction (clamped to >= 1 so the
  // prototype instance always exists, and <= max_instances).
  size_t min_warm = 1;
  // Hard cap on instances alive; Acquire blocks when all are leased. 1 =
  // the pre-pool behavior: every invocation of the function serializes.
  size_t max_instances = 1;
  // How long an Acquire may wait for a busy pool before failing with
  // kDeadlineExceeded — turns a pathological lease cycle into an error
  // instead of a hang.
  Nanos acquire_timeout = std::chrono::seconds(60);
};

// Pool telemetry, cheap enough to read per-bench-iteration.
struct PoolMetrics {
  uint64_t leases = 0;  // successful Acquires and TryAcquires
  // Acquires that had to block for a busy instance, plus callers that queued
  // after a TryAcquire found every instance out (NoteWait).
  uint64_t waits = 0;
  uint64_t grows = 0;   // instances created lazily beyond the warm set
  size_t size = 0;      // instances currently alive
  size_t idle = 0;      // instances parked in the free list
};

class InstancePool {
 public:
  // One pooled slot. Concrete subclasses bundle a Wasm sandbox with whatever
  // per-instance state its owner needs (core::Shim).
  class Instance {
   public:
    virtual ~Instance() = default;
  };

  // Produces one fresh instance; invoked at construction (warm set) and on
  // lazy growth — the latter OUTSIDE the pool lock, possibly from several
  // Acquiring threads at once, so factories must synchronize any state they
  // share.
  using Factory = std::function<Result<std::unique_ptr<Instance>>()>;

  // RAII exclusive hold on one instance; returns it (LIFO) on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        instance_ = other.instance_;
        other.pool_ = nullptr;
        other.instance_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    Instance* get() const { return instance_; }
    explicit operator bool() const { return instance_ != nullptr; }

    // Early return to the pool; the lease becomes empty.
    void Release();

   private:
    friend class InstancePool;
    Lease(InstancePool* pool, Instance* instance)
        : pool_(pool), instance_(instance) {}

    InstancePool* pool_ = nullptr;
    Instance* instance_ = nullptr;
  };

  // Creates the pool and its `min_warm` warm set (factory failures fail the
  // construction, so a live pool always has at least one instance).
  static Result<std::unique_ptr<InstancePool>> Create(Factory factory,
                                                      PoolOptions options);

  ~InstancePool();

  InstancePool(const InstancePool&) = delete;
  InstancePool& operator=(const InstancePool&) = delete;

  // Leases an idle instance (LIFO), growing the pool when none is idle and
  // size < max_instances, else blocking until a lease returns. Fails with
  // kDeadlineExceeded after `acquire_timeout`.
  Result<Lease> Acquire();

  // Never waits: leases an idle instance (LIFO), or grows the pool when none
  // is idle and size < max_instances. An empty lease means every instance is
  // out; an error means lazy growth failed.
  Result<Lease> TryAcquire();

  // Counts one wait for a caller that queued after TryAcquire came back
  // empty, so metrics().waits covers both ways of waiting for an instance.
  void NoteWait();

  // Visits every instance, idle or leased, under the pool lock. Control
  // plane only (e.g. deploying a handler to the warm set): must not race
  // in-flight leases that touch the same instances.
  void ForEachInstance(const std::function<void(Instance&)>& fn);

  PoolMetrics metrics() const;
  size_t capacity() const { return options_.max_instances; }
  // How long a caller may wait for an instance before giving up.
  Nanos acquire_timeout() const { return options_.acquire_timeout; }

 private:
  InstancePool(Factory factory, PoolOptions options)
      : factory_(std::move(factory)), options_(options) {}

  void ReleaseInstance(Instance* instance);

  // Hands out the most recently released idle instance, or, below the cap,
  // builds a new one off-lock. An empty lease when neither is possible.
  Result<Lease> TakeOrGrowLocked(MutexLock& lock, const Stopwatch& wait_timer)
      RR_REQUIRES(mutex_);

  const Factory factory_;
  const PoolOptions options_;

  mutable Mutex mutex_;
  CondVar idle_cv_;
  // All alive, any state.
  std::vector<std::unique_ptr<Instance>> instances_ RR_GUARDED_BY(mutex_);
  std::vector<Instance*> idle_ RR_GUARDED_BY(mutex_);  // LIFO free list
  // Reserved slots whose factory runs off-lock.
  size_t growing_ RR_GUARDED_BY(mutex_) = 0;
  uint64_t leases_ RR_GUARDED_BY(mutex_) = 0;
  uint64_t waits_ RR_GUARDED_BY(mutex_) = 0;
  uint64_t grows_ RR_GUARDED_BY(mutex_) = 0;
};

}  // namespace rr::runtime
