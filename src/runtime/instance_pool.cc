#include "runtime/instance_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rr::runtime {
namespace {

obs::Histogram& PoolLeaseWait() {
  static obs::Histogram* histogram = obs::Registry::Get().histogram(
      "rr_pool_lease_wait_seconds",
      "Time an Acquire spent waiting for (or building) an instance");
  return *histogram;
}

obs::Counter& PoolExhausted() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_pool_exhausted_total",
      "Acquires that timed out with every instance leased");
  return *counter;
}

obs::Counter& PoolGrows() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_pool_grows_total", "Instances built by lazy pool growth");
  return *counter;
}

obs::Counter& PoolWaits() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_pool_waits_total", "Acquires that blocked at least once");
  return *counter;
}

// Eager registration: scrapes expose the pool series at zero before the
// first lease, so absence of load reads as 0, not as a missing metric.
const bool g_pool_metrics_registered = [] {
  PoolLeaseWait();
  PoolExhausted();
  PoolGrows();
  PoolWaits();
  return true;
}();

}  // namespace

void InstancePool::Lease::Release() {
  if (instance_ != nullptr) {
    pool_->ReleaseInstance(instance_);
  }
  pool_ = nullptr;
  instance_ = nullptr;
}

Result<std::unique_ptr<InstancePool>> InstancePool::Create(Factory factory,
                                                           PoolOptions options) {
  if (factory == nullptr) {
    return InvalidArgumentError("instance pool requires a factory");
  }
  if (options.max_instances == 0) {
    return InvalidArgumentError("instance pool requires max_instances >= 1");
  }
  options.min_warm = std::clamp<size_t>(options.min_warm, 1,
                                        options.max_instances);
  auto pool = std::unique_ptr<InstancePool>(
      new InstancePool(std::move(factory), options));
  // Nobody else can hold the brand-new pool yet, but the warm set mutates
  // guarded members, so build it under the (uncontended) lock.
  MutexLock lock(pool->mutex_);
  for (size_t i = 0; i < options.min_warm; ++i) {
    RR_ASSIGN_OR_RETURN(std::unique_ptr<Instance> instance, pool->factory_());
    if (instance == nullptr) {
      return InternalError("instance pool factory returned null");
    }
    pool->idle_.push_back(instance.get());
    pool->instances_.push_back(std::move(instance));
  }
  return pool;
}

InstancePool::~InstancePool() = default;

Result<InstancePool::Lease> InstancePool::TakeOrGrowLocked(
    MutexLock& lock, const Stopwatch& wait_timer) {
  if (!idle_.empty()) {
    // LIFO: the most recently released instance is the cache-warm one.
    Instance* const instance = idle_.back();
    idle_.pop_back();
    ++leases_;
    PoolLeaseWait().Observe(wait_timer.ElapsedSeconds());
    return Lease(this, instance);
  }
  if (instances_.size() + growing_ >= options_.max_instances) return Lease();
  // Lazy growth. Reserve the slot under the lock but run the factory
  // (sandbox instantiation — milliseconds) outside it, so releases and idle
  // hand-offs proceed while the new instance is built.
  ++growing_;
  lock.unlock();
  auto instance = factory_();
  lock.lock();
  --growing_;
  if (!instance.ok() || *instance == nullptr) {
    // The reserved slot is capacity again: wake a waiter so it can retry the
    // growth (or take an instance released meanwhile).
    idle_cv_.notify_one();
    if (!instance.ok()) return instance.status();
    return InternalError("instance pool factory returned null");
  }
  Instance* const raw = instance->get();
  instances_.push_back(std::move(*instance));
  ++grows_;
  ++leases_;
  PoolGrows().Inc();
  PoolLeaseWait().Observe(wait_timer.ElapsedSeconds());
  return Lease(this, raw);
}

Result<InstancePool::Lease> InstancePool::Acquire() {
  // One deadline for the whole call: the wait loop may wake and lose the
  // freed instance to a competing acquirer any number of times, and each
  // retry must consume the remaining budget, not restart it.
  const Stopwatch wait_timer;
  const TimePoint deadline = Now() + options_.acquire_timeout;
  bool counted_wait = false;
  MutexLock lock(mutex_);
  for (;;) {
    RR_ASSIGN_OR_RETURN(Lease lease, TakeOrGrowLocked(lock, wait_timer));
    if (lease) return lease;
    if (!counted_wait) {
      counted_wait = true;  // one blocked Acquire = one wait, however many retries
      ++waits_;
      PoolWaits().Inc();
    }
    if (!idle_cv_.wait_until(lock, deadline, [this]() RR_REQUIRES(mutex_) {
          return !idle_.empty() ||
                 instances_.size() + growing_ < options_.max_instances;
        })) {
      PoolExhausted().Inc();
      return DeadlineExceededError(
          "instance pool exhausted: all " +
          std::to_string(options_.max_instances) +
          " instances stayed leased past the acquire timeout");
    }
  }
}

Result<InstancePool::Lease> InstancePool::TryAcquire() {
  const Stopwatch wait_timer;
  MutexLock lock(mutex_);
  return TakeOrGrowLocked(lock, wait_timer);
}

void InstancePool::NoteWait() {
  {
    MutexLock lock(mutex_);
    ++waits_;
  }
  PoolWaits().Inc();
}

void InstancePool::ReleaseInstance(Instance* instance) {
  {
    MutexLock lock(mutex_);
    idle_.push_back(instance);
  }
  idle_cv_.notify_one();
}

void InstancePool::ForEachInstance(const std::function<void(Instance&)>& fn) {
  MutexLock lock(mutex_);
  for (const std::unique_ptr<Instance>& instance : instances_) {
    fn(*instance);
  }
}

PoolMetrics InstancePool::metrics() const {
  MutexLock lock(mutex_);
  PoolMetrics metrics;
  metrics.leases = leases_;
  metrics.waits = waits_;
  metrics.grows = grows_;
  metrics.size = instances_.size();
  metrics.idle = idle_.size();
  return metrics;
}

}  // namespace rr::runtime
