// ShimPool / ShimLease: the core-layer face of the per-function instance
// pool (runtime/instance_pool.h).
//
// One registered function = one ShimPool = a bounded set of warm Shim
// instances (each a full sandbox + DataAccess region registry). Executor-
// side sequences — deliver + invoke, fan-in gather, remote agent ingress —
// lease an instance for the duration of one node invocation instead of
// locking a singleton VM, so N concurrent invocations of the same function
// proceed on up to `max_instances` sandboxes in parallel. The old per-shim
// exec_mutex is gone; a pool capped at 1 instance reproduces exactly the
// serialized behavior it provided.
//
// Lease lifecycle:
//
//   pool.Lease()            blocks for a warm instance (LIFO reuse), lazily
//                           growing the pool up to max_instances
//   pool.TryLease()         the same without waiting: an empty lease when
//                           every instance is out (event loops queue instead)
//   lease->...              exclusive use of that instance's Shim surface
//   Payload::FromGuest(     a node's output region pins the lease — the
//       std::move(lease))   instance stays out of the pool until the payload
//                           is egressed or released
//   ~ShimLease              instance returns to the pool, warm
//
// Three ways to build one:
//   Create      dedicated-VM instances (kernel / network placements)
//   CreateInVm  instances as modules of one shared WasmVm (user space);
//               replicas load under suffixed module names ("fn#1", ...)
//   Adopt       wraps a caller-owned Shim as a fixed pool of 1 — the
//               compatibility path for raw Endpoint{shim} registrations.
//               Adopt is memoized per shim, so every path that reaches the
//               same raw shim (WorkflowManager and NodeAgent, say) shares
//               ONE pool and leases still mutually exclude.
#pragma once

#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <string>

#include "common/bytes.h"
#include "core/shim.h"
#include "runtime/instance_pool.h"

namespace rr::core {

class ShimPool;

// RAII exclusive hold on one pooled Shim instance. Move-only; shares
// ownership of the pool, so a lease can never outlive it.
class ShimLease {
 public:
  ShimLease() = default;
  // Hand-written moves: the defaulted ones would (a) leave the raw shim_
  // in the moved-from lease, making it claim an instance it no longer
  // holds, and (b) on assignment replace pool_ BEFORE lease_ returns the
  // old instance — destroying the pool under its own Release when this
  // lease held the last reference.
  ShimLease(ShimLease&& other) noexcept
      : pool_(std::move(other.pool_)),
        lease_(std::move(other.lease_)),
        shim_(other.shim_) {
    other.shim_ = nullptr;
  }
  ShimLease& operator=(ShimLease&& other) noexcept {
    if (this != &other) {
      Release();  // old instance returns while the old pool is still alive
      pool_ = std::move(other.pool_);
      lease_ = std::move(other.lease_);
      shim_ = other.shim_;
      other.shim_ = nullptr;
    }
    return *this;
  }

  Shim* get() const { return shim_; }
  Shim& operator*() const { return *shim_; }
  Shim* operator->() const { return shim_; }
  explicit operator bool() const { return shim_ != nullptr; }

  // Early return to the pool; the lease becomes empty.
  void Release() {
    lease_.Release();
    shim_ = nullptr;
    pool_.reset();
  }

 private:
  friend class ShimPool;
  ShimLease(std::shared_ptr<ShimPool> pool, runtime::InstancePool::Lease lease,
            Shim* shim)
      : pool_(std::move(pool)), lease_(std::move(lease)), shim_(shim) {}

  std::shared_ptr<ShimPool> pool_;
  // ShimLease IS the lease wrapper — the one type allowed to carry one.
  runtime::InstancePool::Lease lease_;  // rr-lint: allow(lease-member)
  Shim* shim_ = nullptr;
};

class ShimPool : public std::enable_shared_from_this<ShimPool> {
 public:
  // Dedicated-VM pool: every instance is a standalone shim over its own VM
  // (kernel/network placements — Fig. 4b replicated). The binary is copied
  // once and reused by lazy growth.
  static Result<std::shared_ptr<ShimPool>> Create(
      runtime::FunctionSpec spec, ByteSpan wasm_binary,
      runtime::SandboxOptions sandbox_options = {},
      runtime::PoolOptions pool_options = {});

  // Shared-VM pool: instances are modules of `vm` (user-space placement —
  // Fig. 4a replicated inside one process). The prototype loads under the
  // function's name; replicas under "name#1", "name#2", ... so the VM's
  // module table stays unique. `vm` must outlive the pool.
  static Result<std::shared_ptr<ShimPool>> CreateInVm(
      runtime::WasmVm& vm, runtime::FunctionSpec spec, ByteSpan wasm_binary,
      runtime::SandboxOptions sandbox_options = {},
      runtime::PoolOptions pool_options = {});

  // Wraps a caller-owned shim as a fixed single-instance pool (the
  // serialized pre-pool behavior). Memoized: adopting the same shim twice
  // returns the same pool. The shim must outlive the returned pool.
  static Result<std::shared_ptr<ShimPool>> Adopt(Shim* shim);

  // Installs the function's logic on every current instance and remembers it
  // for instances created by lazy growth. Control plane: must not race
  // in-flight leases.
  Status Deploy(runtime::NativeHandler handler);

  // Leases a warm instance; blocks (bounded) when all are out.
  Result<ShimLease> Lease();

  // Never waits: a warm instance, a newly grown one below the cap, or an
  // empty lease when every instance is out. A caller that queues after an
  // empty lease records it with NoteWait (counted in metrics().waits).
  Result<ShimLease> TryLease();
  void NoteWait() { pool_->NoteWait(); }

  // The identity instance (always exists): name/spec/location checks and
  // legacy single-instance access go through it.
  Shim* prototype() const { return prototype_; }
  const runtime::FunctionSpec& spec() const { return prototype_->spec(); }
  const std::string& name() const { return prototype_->name(); }

  // Invocations summed over every instance of the pool.
  uint64_t invocations() const;

  runtime::PoolMetrics metrics() const { return pool_->metrics(); }
  size_t capacity() const { return pool_->capacity(); }
  Nanos acquire_timeout() const { return pool_->acquire_timeout(); }

 private:
  struct PooledShim : runtime::InstancePool::Instance {
    explicit PooledShim(std::unique_ptr<Shim> instance)
        : owned(std::move(instance)), shim(owned.get()) {}
    explicit PooledShim(Shim* adopted) : shim(adopted) {}

    std::unique_ptr<Shim> owned;  // null for adopted shims
    Shim* shim = nullptr;
  };

  ShimPool() = default;

  // Creates one instance through the configured mode and deploys the
  // remembered handler, if any. Lazy growth runs it outside the pool lock,
  // concurrently with other growers.
  Result<std::unique_ptr<runtime::InstancePool::Instance>> MakeInstance();

  static Result<std::shared_ptr<ShimPool>> Finish(
      std::shared_ptr<ShimPool> pool, runtime::PoolOptions pool_options);

  // Factory configuration (immutable after construction).
  runtime::FunctionSpec spec_;
  Bytes binary_;
  runtime::SandboxOptions sandbox_options_;
  runtime::WasmVm* vm_ = nullptr;  // non-null = shared-VM mode
  Shim* adopted_ = nullptr;        // non-null = adopted single instance

  // The deployed handler, replayed onto lazily grown instances. The mutex
  // only keeps the std::function read/write untorn; it does NOT close the
  // window where a Deploy racing an in-flight growth misses the growing
  // instance — Deploy is control plane and must complete before the first
  // Lease (see Deploy's contract).
  mutable Mutex handler_mutex_;
  runtime::NativeHandler handler_ RR_GUARDED_BY(handler_mutex_);

  std::unique_ptr<runtime::InstancePool> pool_;
  // Set by the first (warm-set) MakeInstance, before the pool is shared;
  // immutable afterwards, so concurrent growers read it freely.
  Shim* prototype_ = nullptr;
  std::atomic<size_t> replicas_created_{0};  // names the next module
};

}  // namespace rr::core
