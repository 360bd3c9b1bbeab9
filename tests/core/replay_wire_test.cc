// Replayed-completion safety at the wire level: completions arriving through
// the real NodeAgent -> DeliverySink -> DagExecutor::DeliverOutcome path
// with correlation tokens the executor never issued (a late first attempt
// replayed after its edge was retired, or a rogue sender) must be rejected
// with kTokenMismatch, release their output region and instance lease, and
// leave the agent fully serviceable. The pool here holds a SINGLE instance:
// a leaked lease would wedge the second stream, so its completion is the
// leak check.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/mux_client.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "dag/executor.h"
#include "osal/socket.h"
#include "resilience/metrics.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

constexpr Nanos kEventBound = std::chrono::seconds(5);

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  spec.tenant = "default";
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

struct Completion {
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  Status status;

  MuxClient::DoneFn Arm(std::shared_ptr<Completion> self) {
    return [self = std::move(self)](Status status) {
      {
        std::lock_guard<std::mutex> lock(self->mutex);
        self->fired = true;
        self->status = std::move(status);
      }
      self->cv.notify_all();
    };
  }

  bool WaitFor(Nanos timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [this] { return fired; });
  }
};

TEST(ReplayWireTest, StaleWireDeliveriesRejectedAndRegionsRecycled) {
  WorkflowManager manager("wf");
  dag::DagExecutor executor(&manager);

  runtime::PoolOptions pool_options;
  pool_options.min_warm = 1;
  pool_options.max_instances = 1;
  auto pool = ShimPool::Create(Spec("b"), Binary(), {}, pool_options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*pool)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();

  // The production wiring, minus a pending transfer: every delivery is stale.
  std::atomic<int> mismatches{0};
  ASSERT_TRUE(
      (*agent)
          ->RegisterFunction(
              *pool,
              [&executor, &mismatches](const std::string& function,
                                       InvokeOutcome outcome, uint64_t token,
                                       ShimLease instance) {
                const Status status = executor.DeliverOutcome(
                    function, std::move(outcome), token, std::move(instance));
                if (status.code() == StatusCode::kTokenMismatch) {
                  mismatches.fetch_add(1);
                }
              })
          .ok());

  auto reactor = osal::Reactor::Start("replay-test");
  ASSERT_TRUE(reactor.ok()) << reactor.status();
  auto client = MuxClient::Create(*reactor, "127.0.0.1", (*agent)->port());

  const uint64_t stale0 = resilience::StaleDeliveriesTotal().Value();
  for (const uint64_t token : {uint64_t{777}, uint64_t{778}}) {
    auto completion = std::make_shared<Completion>();
    ASSERT_TRUE(client
                    ->StartStream("b", rr::Buffer::FromString("payload"), token,
                                  std::chrono::seconds(2),
                                  completion->Arm(completion))
                    .ok());
    // The stream completes even though its delivery was rejected: rejection
    // retires the transfer agent-side, it does not poison the wire. Stream 2
    // completing at all proves stream 1's lease went back to the 1-deep pool.
    ASSERT_TRUE(completion->WaitFor(kEventBound)) << "token " << token;
  }

  // The agent runs the delivery callback before it queues the completion
  // frame, so DeliverOutcome has already counted both rejections; the poll
  // only guards against a regression of that order turning into a flake.
  const TimePoint poll_deadline = Now() + kEventBound;
  while ((mismatches.load() < 2 ||
          resilience::StaleDeliveriesTotal().Value() - stale0 < 2) &&
         Now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(mismatches.load(), 2);
  EXPECT_EQ(resilience::StaleDeliveriesTotal().Value() - stale0, 2u);
  EXPECT_EQ((*agent)->transfers_completed(), 2u);
}

}  // namespace
}  // namespace rr::core
