#include "runtime/instance_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/shim_pool.h"
#include "runtime/function.h"

namespace rr::runtime {
namespace {

struct TestInstance : InstancePool::Instance {
  explicit TestInstance(int id) : id(id) {}
  int id;
};

InstancePool::Factory CountingFactory(std::atomic<int>* created) {
  return [created]() -> Result<std::unique_ptr<InstancePool::Instance>> {
    return std::unique_ptr<InstancePool::Instance>(
        new TestInstance(created->fetch_add(1)));
  };
}

int IdOf(const InstancePool::Lease& lease) {
  return static_cast<TestInstance*>(lease.get())->id;
}

TEST(InstancePoolTest, WarmSetCreatedEagerly) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 3;
  options.max_instances = 8;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ(created.load(), 3);
  const PoolMetrics metrics = (*pool)->metrics();
  EXPECT_EQ(metrics.size, 3u);
  EXPECT_EQ(metrics.idle, 3u);
  EXPECT_EQ(metrics.leases, 0u);
}

TEST(InstancePoolTest, MinWarmClampedIntoValidRange) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 10;  // > max: clamped down
  options.max_instances = 2;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ((*pool)->metrics().size, 2u);

  options.min_warm = 0;  // < 1: the prototype instance must always exist
  options.max_instances = 4;
  std::atomic<int> created2{0};
  auto pool2 = InstancePool::Create(CountingFactory(&created2), options);
  ASSERT_TRUE(pool2.ok());
  EXPECT_EQ((*pool2)->metrics().size, 1u);
}

TEST(InstancePoolTest, LifoReuseHandsBackTheWarmInstance) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 2;
  options.max_instances = 4;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  auto first = (*pool)->Acquire();
  ASSERT_TRUE(first.ok());
  const int first_id = IdOf(*first);
  first->Release();

  // The instance released last must come back first (cache warmth), however
  // many times we cycle.
  for (int i = 0; i < 5; ++i) {
    auto again = (*pool)->Acquire();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(IdOf(*again), first_id);
  }
  EXPECT_EQ(created.load(), 2);  // no growth: a warm instance was always idle
}

TEST(InstancePoolTest, GrowsLazilyUpToMaxAndCountsGrows) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 3;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  std::vector<InstancePool::Lease> held;
  for (int i = 0; i < 3; ++i) {
    auto lease = (*pool)->Acquire();
    ASSERT_TRUE(lease.ok());
    held.push_back(std::move(*lease));
  }
  EXPECT_EQ(created.load(), 3);
  const PoolMetrics metrics = (*pool)->metrics();
  EXPECT_EQ(metrics.grows, 2u);  // beyond the 1-instance warm set
  EXPECT_EQ(metrics.leases, 3u);
  EXPECT_EQ(metrics.idle, 0u);
}

TEST(InstancePoolTest, ExhaustedAcquireBlocksUntilRelease) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 1;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  auto held = (*pool)->Acquire();
  ASSERT_TRUE(held.ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto lease = (*pool)->Acquire();
    ASSERT_TRUE(lease.ok());
    acquired.store(true);
  });
  // The waiter cannot make progress while the lease is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  EXPECT_GE((*pool)->metrics().waits, 1u);

  held->Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(created.load(), 1);  // never grew past the cap
}

TEST(InstancePoolTest, ExhaustedAcquireTimesOut) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 1;
  options.acquire_timeout = std::chrono::milliseconds(30);
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  auto held = (*pool)->Acquire();
  ASSERT_TRUE(held.ok());
  auto starved = (*pool)->Acquire();
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(InstancePoolTest, TryAcquireGrowsButNeverWaits) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 2;
  options.acquire_timeout = std::chrono::seconds(30);
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  auto warm = (*pool)->TryAcquire();
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(*warm);
  EXPECT_EQ(IdOf(*warm), 0);
  auto grown = (*pool)->TryAcquire();  // below the cap: grows
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(*grown);
  EXPECT_EQ(created.load(), 2);

  // At the cap with every instance out: an empty lease at once, not a wait
  // for the 30 s acquire timeout. Only NoteWait counts a wait.
  const Stopwatch timer;
  auto none = (*pool)->TryAcquire();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(*none);
  EXPECT_LT(timer.Elapsed(), std::chrono::seconds(1));
  EXPECT_EQ((*pool)->metrics().waits, 0u);
  (*pool)->NoteWait();
  EXPECT_EQ((*pool)->metrics().waits, 1u);

  // A returned instance is handed out again (LIFO).
  const int returned = IdOf(*grown);
  grown->Release();
  auto again = (*pool)->TryAcquire();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(*again);
  EXPECT_EQ(IdOf(*again), returned);
  EXPECT_EQ((*pool)->metrics().leases, 3u);
}

TEST(InstancePoolTest, ConcurrentAcquirersNeverShareAnInstance) {
  std::atomic<int> created{0};
  PoolOptions options;
  options.min_warm = 2;
  options.max_instances = 4;
  auto pool = InstancePool::Create(CountingFactory(&created), options);
  ASSERT_TRUE(pool.ok());

  std::atomic<int> in_use[16] = {};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto lease = (*pool)->Acquire();
        ASSERT_TRUE(lease.ok());
        const int id = IdOf(*lease);
        if (in_use[id].fetch_add(1) != 0) overlap.store(true);
        std::this_thread::yield();
        in_use[id].fetch_sub(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(overlap.load());
  EXPECT_LE((*pool)->metrics().size, 4u);
  EXPECT_EQ((*pool)->metrics().leases, 8u * 50u);
}

// --- the core-layer wrapper -------------------------------------------------

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  return spec;
}

TEST(ShimPoolTest, PooledInstancesRunTheDeployedHandlerIndependently) {
  const Bytes binary = BuildFunctionModuleBinary();
  PoolOptions options;
  options.min_warm = 1;
  options.max_instances = 3;
  auto pool = core::ShimPool::Create(Spec("fn"), binary, {}, options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*pool)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    Bytes out(input.begin(), input.end());
                    out.push_back('!');
                    return out;
                  })
                  .ok());

  // Hold three leases at once (forcing growth past the warm set; the grown
  // instances must inherit the handler) and invoke each.
  std::vector<core::ShimLease> leases;
  for (int i = 0; i < 3; ++i) {
    auto lease = (*pool)->Lease();
    ASSERT_TRUE(lease.ok()) << lease.status();
    leases.push_back(std::move(*lease));
  }
  for (core::ShimLease& lease : leases) {
    auto outcome = lease->DeliverAndInvoke(AsBytes("hi"));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    auto view = lease->OutputView(outcome->output);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(AsStringView(*view), "hi!");
    ASSERT_TRUE(lease->ReleaseRegion(outcome->output).ok());
  }
  EXPECT_EQ((*pool)->invocations(), 3u);
  EXPECT_EQ((*pool)->metrics().grows, 2u);
}

TEST(ShimPoolTest, SharedVmReplicasLoadUnderSuffixedModuleNames) {
  const Bytes binary = BuildFunctionModuleBinary();
  runtime::WasmVm vm("wf");
  PoolOptions options;
  options.min_warm = 2;
  options.max_instances = 2;
  auto pool = core::ShimPool::CreateInVm(vm, Spec("fn"), binary, {}, options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ(vm.module_count(), 2u);
  EXPECT_NE(vm.Find("fn"), nullptr);
  EXPECT_NE(vm.Find("fn#1"), nullptr);
  // The prototype keeps the function's own name — identity checks
  // (registration, trust, hop keys) read it.
  EXPECT_EQ((*pool)->name(), "fn");
}

TEST(ShimPoolTest, AdoptIsMemoizedPerShim) {
  const Bytes binary = BuildFunctionModuleBinary();
  auto shim = core::Shim::Create(Spec("fn"), binary);
  ASSERT_TRUE(shim.ok());

  auto first = core::ShimPool::Adopt(shim->get());
  ASSERT_TRUE(first.ok());
  auto second = core::ShimPool::Adopt(shim->get());
  ASSERT_TRUE(second.ok());
  // Two paths wrapping the same raw shim must share one pool, or their
  // leases would not mutually exclude.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->capacity(), 1u);

  // A lease through one handle blocks the other.
  auto held = (*first)->Lease();
  ASSERT_TRUE(held.ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto lease = (*second)->Lease();
    ASSERT_TRUE(lease.ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  held->Release();
  waiter.join();
}

}  // namespace
}  // namespace rr::runtime
