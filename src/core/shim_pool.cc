#include "core/shim_pool.h"

#include <map>

namespace rr::core {

Result<std::shared_ptr<ShimPool>> ShimPool::Create(
    runtime::FunctionSpec spec, ByteSpan wasm_binary,
    runtime::SandboxOptions sandbox_options, runtime::PoolOptions pool_options) {
  auto pool = std::shared_ptr<ShimPool>(new ShimPool());
  pool->spec_ = std::move(spec);
  pool->binary_ = Bytes(wasm_binary.begin(), wasm_binary.end());
  pool->sandbox_options_ = sandbox_options;
  return Finish(std::move(pool), pool_options);
}

Result<std::shared_ptr<ShimPool>> ShimPool::CreateInVm(
    runtime::WasmVm& vm, runtime::FunctionSpec spec, ByteSpan wasm_binary,
    runtime::SandboxOptions sandbox_options, runtime::PoolOptions pool_options) {
  auto pool = std::shared_ptr<ShimPool>(new ShimPool());
  pool->spec_ = std::move(spec);
  pool->binary_ = Bytes(wasm_binary.begin(), wasm_binary.end());
  pool->sandbox_options_ = sandbox_options;
  pool->vm_ = &vm;
  return Finish(std::move(pool), pool_options);
}

Result<std::shared_ptr<ShimPool>> ShimPool::Adopt(Shim* shim) {
  if (shim == nullptr) {
    return InvalidArgumentError("cannot adopt a null shim");
  }
  // Memoized per shim: every path that wraps the same raw instance (a
  // WorkflowManager registration AND a NodeAgent registration, say) must
  // share one pool, or their leases would not mutually exclude.
  static Mutex adopted_mutex;
  static std::map<Shim*, std::weak_ptr<ShimPool>>& adopted =
      *new std::map<Shim*, std::weak_ptr<ShimPool>>();
  MutexLock lock(adopted_mutex);
  for (auto it = adopted.begin(); it != adopted.end();) {
    it = it->second.expired() ? adopted.erase(it) : std::next(it);
  }
  const auto it = adopted.find(shim);
  if (it != adopted.end()) {
    if (std::shared_ptr<ShimPool> existing = it->second.lock()) return existing;
  }
  auto pool = std::shared_ptr<ShimPool>(new ShimPool());
  pool->adopted_ = shim;
  runtime::PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 1;
  RR_ASSIGN_OR_RETURN(pool, Finish(std::move(pool), options));
  adopted[shim] = pool;
  return pool;
}

Result<std::shared_ptr<ShimPool>> ShimPool::Finish(
    std::shared_ptr<ShimPool> pool, runtime::PoolOptions pool_options) {
  ShimPool* const raw = pool.get();
  RR_ASSIGN_OR_RETURN(
      raw->pool_,
      runtime::InstancePool::Create([raw] { return raw->MakeInstance(); },
                                    pool_options));
  return pool;
}

Result<std::unique_ptr<runtime::InstancePool::Instance>>
ShimPool::MakeInstance() {
  std::unique_ptr<PooledShim> instance;
  if (adopted_ != nullptr) {
    instance = std::make_unique<PooledShim>(adopted_);
  } else {
    // fetch_add: concurrent lazy growers must each claim a distinct replica
    // index (the shared-VM module table is keyed by name).
    const size_t replica = replicas_created_.fetch_add(1);
    runtime::FunctionSpec spec = spec_;
    if (replica > 0) {
      // Shared-VM replicas need distinct module names; dedicated replicas
      // keep them too so logs and metrics identify the instance.
      spec.name += "#" + std::to_string(replica);
    }
    std::unique_ptr<Shim> shim;
    if (vm_ != nullptr) {
      RR_ASSIGN_OR_RETURN(shim,
                          Shim::CreateInVm(*vm_, std::move(spec), binary_,
                                           sandbox_options_));
    } else {
      RR_ASSIGN_OR_RETURN(shim, Shim::Create(std::move(spec), binary_,
                                             sandbox_options_));
    }
    instance = std::make_unique<PooledShim>(std::move(shim));
  }
  if (prototype_ == nullptr) prototype_ = instance->shim;
  runtime::NativeHandler handler;
  {
    MutexLock lock(handler_mutex_);
    handler = handler_;
  }
  if (handler != nullptr) {
    RR_RETURN_IF_ERROR(instance->shim->Deploy(std::move(handler)));
  }
  return std::unique_ptr<runtime::InstancePool::Instance>(std::move(instance));
}

Status ShimPool::Deploy(runtime::NativeHandler handler) {
  {
    MutexLock lock(handler_mutex_);
    handler_ = handler;
  }
  Status status;
  pool_->ForEachInstance([&](runtime::InstancePool::Instance& instance) {
    Shim* const shim = static_cast<PooledShim&>(instance).shim;
    const Status deployed = shim->Deploy(handler);
    if (status.ok() && !deployed.ok()) status = deployed;
  });
  return status;
}

Result<ShimLease> ShimPool::Lease() {
  RR_ASSIGN_OR_RETURN(runtime::InstancePool::Lease lease, pool_->Acquire());
  Shim* const shim = static_cast<PooledShim*>(lease.get())->shim;
  return ShimLease(shared_from_this(), std::move(lease), shim);
}

Result<ShimLease> ShimPool::TryLease() {
  RR_ASSIGN_OR_RETURN(runtime::InstancePool::Lease lease, pool_->TryAcquire());
  if (!lease) return ShimLease();
  Shim* const shim = static_cast<PooledShim*>(lease.get())->shim;
  return ShimLease(shared_from_this(), std::move(lease), shim);
}

uint64_t ShimPool::invocations() const {
  uint64_t total = 0;
  pool_->ForEachInstance([&](runtime::InstancePool::Instance& instance) {
    total += static_cast<PooledShim&>(instance).shim->invocations();
  });
  return total;
}

}  // namespace rr::core
