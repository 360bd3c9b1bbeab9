// Contended-submit coverage for the per-function instance pools: many
// concurrent Runtime::Submit calls of the SAME chain must complete correctly
// (exercised under TSan in CI), and once a function's pool holds more than
// one warm instance, the wall-clock of a concurrent burst must sit well
// below the serial sum that the old single-VM exec_mutex forced.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "core/shim_pool.h"
#include "runtime/function.h"
#include "runtime/instance_pool.h"

namespace rr::api {
namespace {

using core::Endpoint;
using core::Location;
using core::ShimPool;

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

runtime::NativeHandler Tagger(const std::string& tag) {
  return [tag](ByteSpan input) -> Result<Bytes> {
    std::string out(AsStringView(input));
    out += "|" + tag;
    return ToBytes(out);
  };
}

// Registers `name` as a pooled function over dedicated VMs (kernel-space
// placement) and returns its pool for metrics assertions.
std::shared_ptr<ShimPool> AddPooledFunction(Runtime& rt, const std::string& name,
                                            size_t instances,
                                            runtime::NativeHandler handler) {
  runtime::PoolOptions options;
  options.min_warm = instances;
  options.max_instances = instances;
  auto pool = ShimPool::Create(Spec(name), Binary(), {}, options);
  EXPECT_TRUE(pool.ok()) << pool.status();
  EXPECT_TRUE((*pool)->Deploy(std::move(handler)).ok());
  Endpoint endpoint;
  endpoint.pool = *pool;
  endpoint.location = {"n1", ""};
  EXPECT_TRUE(rt.Register(endpoint).ok());
  return *pool;
}

TEST(ContendedSubmitTest, SixteenConcurrentSubmittersOfOneSharedChain) {
  // 16 threads race Submit on ONE shared chain whose functions each own a
  // 4-instance pool. Every run must come back with its own bytes, correctly
  // tagged by every stage — interleaved deliveries across pool instances
  // must never cross payloads between runs.
  constexpr size_t kSubmitters = 16;
  Runtime rt("wf");
  auto a = AddPooledFunction(rt, "a", 4, Tagger("a"));
  auto b = AddPooledFunction(rt, "b", 4, Tagger("b"));
  auto c = AddPooledFunction(rt, "c", 4, Tagger("c"));

  const ChainSpec chain{{"a", "b", "c"}};
  std::vector<std::shared_ptr<Invocation>> invocations(kSubmitters);
  std::vector<std::thread> submitters;
  std::atomic<size_t> failures{0};
  for (size_t i = 0; i < kSubmitters; ++i) {
    submitters.emplace_back([&, i] {
      auto invocation = rt.Submit(chain, AsBytes("req-" + std::to_string(i)));
      if (!invocation.ok()) {
        failures.fetch_add(1);
        return;
      }
      invocations[i] = std::move(*invocation);
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  ASSERT_EQ(failures.load(), 0u);

  for (size_t i = 0; i < kSubmitters; ++i) {
    ASSERT_NE(invocations[i], nullptr);
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "req-" + std::to_string(i) + "|a|b|c");
  }
  EXPECT_EQ(a->invocations(), kSubmitters);
  EXPECT_EQ(b->invocations(), kSubmitters);
  EXPECT_EQ(c->invocations(), kSubmitters);
  EXPECT_EQ(rt.in_flight(), 0u);
}

TEST(ContendedSubmitTest, PooledBurstFinishesWellBelowTheSerialSum) {
  // Each node "computes" by blocking for a fixed wait (an I/O-bound function
  // — the case the exec_mutex serialized most painfully). With 8 instances
  // per function and 8 concurrent submits of the 3-node chain, the waits
  // overlap: the burst's wall-clock must land well below the serial sum
  // 8 runs x 3 nodes x wait that pool-of-1 execution pays. The margin (50%)
  // is deliberately loose so scheduler jitter on a loaded CI host cannot
  // flake the test; real overlap lands near serial/8.
  constexpr size_t kConcurrent = 8;
  static constexpr auto kNodeWait = std::chrono::milliseconds(20);
  const auto waiting_handler = [](ByteSpan input) -> Result<Bytes> {
    PreciseSleep(kNodeWait);
    return Bytes(input.begin(), input.end());
  };

  Runtime::Options options;
  options.dag_workers = 4 * kConcurrent;
  Runtime rt("wf", options);
  auto a = AddPooledFunction(rt, "a", kConcurrent, waiting_handler);
  auto b = AddPooledFunction(rt, "b", kConcurrent, waiting_handler);
  auto c = AddPooledFunction(rt, "c", kConcurrent, waiting_handler);

  const ChainSpec chain{{"a", "b", "c"}};
  const Stopwatch wall;
  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kConcurrent; ++i) {
    auto invocation = rt.Submit(chain, AsBytes("x"));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (const auto& invocation : invocations) {
    ASSERT_TRUE(invocation->Wait().ok()) << invocation->Wait().status();
  }
  const Nanos elapsed = wall.Elapsed();

  const Nanos serial_sum = kConcurrent * 3 * Nanos(kNodeWait);
  EXPECT_LT(elapsed, serial_sum / 2)
      << "burst took " << std::chrono::duration_cast<std::chrono::milliseconds>(
                              elapsed)
                              .count()
      << " ms against a serial sum of "
      << std::chrono::duration_cast<std::chrono::milliseconds>(serial_sum)
             .count()
      << " ms — pooled instances are not overlapping invocations";

  // The pools really fanned the burst out: leases spread across instances
  // instead of convoying on one.
  EXPECT_EQ(a->invocations(), kConcurrent);
  EXPECT_GE(a->metrics().leases, kConcurrent);
}

}  // namespace
}  // namespace rr::api
