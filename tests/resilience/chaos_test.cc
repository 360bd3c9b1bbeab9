// The chaos suite: scripted faults injected under the remote plane
// (resilience/fault_injector.h) plus harness-driven agent kills, asserting
// that runs complete with CORRECT outputs, that the resilience metrics match
// the injected fault counts exactly, and that proven-dead replicas fail in
// microseconds instead of wire deadlines.
//
// Every schedule is counter-based and every backoff draw is seeded, so these
// tests assert exact retry counts even under TSan/ASan. Counters are
// process-wide; tests assert DELTAS.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "core/node_agent.h"
#include "dag/dag.h"
#include "gateway/gateway.h"
#include "http/http.h"
#include "resilience/fault_injector.h"
#include "resilience/metrics.h"
#include "resilience/policy.h"
#include "runtime/function.h"

namespace rr::resilience {
namespace {

using core::Endpoint;
using core::Location;
using core::NodeAgent;
using core::Shim;

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

// A retry policy tuned for test wall-clock: real backoff shape, small
// delays, breakers off unless a test arms them.
ResiliencePolicy FastPolicy(uint32_t max_attempts = 3) {
  ResiliencePolicy policy;
  policy.enabled = true;
  policy.max_attempts = max_attempts;
  policy.base_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(50);
  policy.run_retry_budget = 32;
  policy.breaker.failure_threshold = 0;
  return policy;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    retries0_ = RetryAttemptsTotal().Value();
    failovers0_ = FailoverTotal().Value();
    budget_exhausted0_ = RetryBudgetExhaustedTotal().Value();
    stale0_ = StaleDeliveriesTotal().Value();
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  uint64_t RetryDelta() const { return RetryAttemptsTotal().Value() - retries0_; }
  uint64_t FailoverDelta() const { return FailoverTotal().Value() - failovers0_; }
  uint64_t BudgetExhaustedDelta() const {
    return RetryBudgetExhaustedTotal().Value() - budget_exhausted0_;
  }
  uint64_t StaleDelta() const {
    return StaleDeliveriesTotal().Value() - stale0_;
  }

  // Registers a function; a non-zero port addresses it through a NodeAgent
  // ingress, `failover` adds replica ingresses.
  std::unique_ptr<Shim> AddFunction(
      api::Runtime& rt, const std::string& name, Location location,
      uint16_t port = 0, std::vector<core::AgentAddress> failover = {},
      runtime::NativeHandler handler = nullptr) {
    auto shim = Shim::Create(Spec(name), Binary());
    EXPECT_TRUE(shim.ok()) << shim.status();
    EXPECT_TRUE((*shim)
                    ->Deploy(handler ? std::move(handler)
                                     : [name](ByteSpan input) -> Result<Bytes> {
                                         std::string out(AsStringView(input));
                                         out += "|" + name;
                                         return ToBytes(out);
                                       })
                    .ok());
    Endpoint endpoint;
    endpoint.shim = shim->get();
    endpoint.location = std::move(location);
    endpoint.port = port;
    endpoint.failover = std::move(failover);
    EXPECT_TRUE(rt.Register(endpoint).ok());
    return std::move(*shim);
  }

  static Result<rr::Buffer> RunChain(api::Runtime& rt, ByteSpan input) {
    auto dag = dag::DagBuilder().Chain({"a", "b"}).Build();
    EXPECT_TRUE(dag.ok()) << dag.status();
    RR_ASSIGN_OR_RETURN(const std::shared_ptr<api::Invocation> invocation,
                        rt.Submit(api::DagSpec{*dag}, input));
    return invocation->Wait();
  }

  // Burns a port that refuses connections: bind an agent, note the port,
  // shut it down. Nothing else binds it within a test's lifetime.
  static uint16_t DeadPort() {
    auto agent = NodeAgent::Start(0);
    EXPECT_TRUE(agent.ok()) << agent.status();
    const uint16_t port = (*agent)->port();
    (*agent)->Shutdown();
    return port;
  }

 private:
  uint64_t retries0_ = 0;
  uint64_t failovers0_ = 0;
  uint64_t budget_exhausted0_ = 0;
  uint64_t stale0_ = 0;
};

// A connection reset injected before the open frame leaves the sender: the
// agent never sees attempt 1, the retry engine redials, the handler runs
// EXACTLY once, and the retry counter advances by exactly the fault count.
TEST_F(ChaosTest, MuxConnResetRetriesToSuccess) {
  api::Runtime::Options options;
  options.resilience = FastPolicy(/*max_attempts=*/3);
  options.remote_deadline = std::chrono::seconds(5);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  std::unique_ptr<Shim> b;  // declared first: outlives the agent serving it
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  b = AddFunction(rt, "b", {"n2", ""}, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  FaultInjector::Instance().Arm(FaultSite::kMuxConnReset,
                                FaultPlan{.period = 1, .max_fires = 1});

  auto result = RunChain(rt, AsBytes("x"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|a|b");
  EXPECT_EQ(FaultInjector::Instance().fires(FaultSite::kMuxConnReset), 1u);
  EXPECT_EQ(RetryDelta(), 1u);
  EXPECT_EQ(b->invocations(), 1u);  // the reset attempt never reached the agent
}

// A frame swallowed after full receipt — no invoke, no completion, no
// delivery. Only the sender's backstop deadline can detect this; the retried
// attempt (fresh token) must then complete the run.
TEST_F(ChaosTest, AgentDropCompletionBackstopRetries) {
  api::Runtime::Options options;
  options.resilience = FastPolicy(/*max_attempts=*/3);
  options.remote_deadline = std::chrono::milliseconds(300);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  std::unique_ptr<Shim> b;  // declared first: outlives the agent serving it
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  b = AddFunction(rt, "b", {"n2", ""}, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  FaultInjector::Instance().Arm(FaultSite::kAgentDropCompletion,
                                FaultPlan{.period = 1, .max_fires = 1});

  auto result = RunChain(rt, AsBytes("y"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "y|a|b");
  EXPECT_EQ(FaultInjector::Instance().fires(FaultSite::kAgentDropCompletion),
            1u);
  EXPECT_EQ(RetryDelta(), 1u);
  EXPECT_EQ(b->invocations(), 1u);  // the dropped frame was never invoked
}

// A backstop expiry retries the remote node and touches nothing else: the
// local kernel hop out of the remote function (b -> c, both on n2) keeps its
// wire and its cache slot. Only the silent agent's attempt failed; the
// function's other edges carry other runs.
TEST_F(ChaosTest, BackstopRetryKeepsTheRemoteFunctionsLocalHops) {
  api::Runtime::Options options;
  options.resilience = FastPolicy(/*max_attempts=*/3);
  options.remote_deadline = std::chrono::milliseconds(300);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  std::unique_ptr<Shim> b;  // declared first: outlives the agent serving it
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  b = AddFunction(rt, "b", {"n2", ""}, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());
  auto c = AddFunction(rt, "c", {"n2", ""});

  const auto run = [&](const std::string& input) -> Result<rr::Buffer> {
    auto dag = dag::DagBuilder().Chain({"a", "b", "c"}).Build();
    EXPECT_TRUE(dag.ok()) << dag.status();
    RR_ASSIGN_OR_RETURN(const std::shared_ptr<api::Invocation> invocation,
                        rt.Submit(api::DagSpec{*dag}, AsBytes(input)));
    return invocation->Wait();
  };
  auto warm = run("warm");
  ASSERT_TRUE(warm.ok()) << warm.status();

  auto b_endpoint = rt.manager().Find("b");
  auto c_endpoint = rt.manager().Find("c");
  ASSERT_TRUE(b_endpoint.ok() && c_endpoint.ok());
  auto held = rt.manager().hops().Get(**b_endpoint, **c_endpoint);
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_EQ((*held)->mode(), core::TransferMode::kKernelSpace);

  FaultInjector::Instance().Arm(FaultSite::kAgentDropCompletion,
                                FaultPlan{.period = 1, .max_fires = 1});
  auto result = run("y");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "y|a|b|c");
  EXPECT_EQ(RetryDelta(), 1u);
  EXPECT_TRUE((*held)->healthy());
  auto again = rt.manager().hops().Get(**b_endpoint, **c_endpoint);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->get(), held->get());
}

// A dead primary is not skipped at selection: the client dials inside
// StartStream, so each attempt on it fails its dispatch at once, and the
// walk moves to the failover replica only once the primary's max_attempts
// are spent — exactly two retries and one failover here.
TEST_F(ChaosTest, DeadPrimaryFailsOverOnceItsAttemptsAreSpent) {
  api::Runtime::Options options;
  options.resilience = FastPolicy(/*max_attempts=*/2);
  options.remote_deadline = std::chrono::seconds(5);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  std::unique_ptr<Shim> b;  // declared first: outlives the agent serving it
  auto replica = NodeAgent::Start(0);
  ASSERT_TRUE(replica.ok()) << replica.status();
  b = AddFunction(rt, "b", {"n2", ""}, DeadPort(),
                  {{"127.0.0.1", (*replica)->port()}});
  ASSERT_TRUE((*replica)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  auto result = RunChain(rt, AsBytes("x"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|a|b");
  EXPECT_EQ(RetryDelta(), 2u);
  EXPECT_EQ(FailoverDelta(), 1u);
  EXPECT_EQ(b->invocations(), 1u);
}

// Kill the primary agent between runs: every subsequent run must fail over
// to the replica and degrade ZERO completions once retries drain. After the
// breaker trips on the dead primary, later runs skip it in admission.
void KillAgentFailsOverToReplica(uint64_t failovers_before) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/2);
  policy.breaker.failure_threshold = 2;
  policy.breaker.open_cooldown = std::chrono::seconds(30);  // stays open

  api::Runtime::Options options;
  options.resilience = policy;
  options.remote_deadline = std::chrono::seconds(5);
  api::Runtime rt("wf", options);

  auto a_shim = Shim::Create(Spec("a"), Binary());
  ASSERT_TRUE(a_shim.ok()) << a_shim.status();
  ASSERT_TRUE((*a_shim)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    std::string out(AsStringView(input));
                    return ToBytes(out + "|a");
                  })
                  .ok());
  Endpoint a_endpoint;
  a_endpoint.shim = a_shim->get();
  a_endpoint.location = {"n1", ""};
  ASSERT_TRUE(rt.Register(a_endpoint).ok());

  auto b_shim = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b_shim.ok()) << b_shim.status();
  ASSERT_TRUE((*b_shim)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    std::string out(AsStringView(input));
                    return ToBytes(out + "|b");
                  })
                  .ok());
  // Started after the shims they serve, so they stop first.
  auto primary = NodeAgent::Start(0);
  ASSERT_TRUE(primary.ok()) << primary.status();
  auto replica = NodeAgent::Start(0);
  ASSERT_TRUE(replica.ok()) << replica.status();
  Endpoint b_endpoint;
  b_endpoint.shim = b_shim->get();
  b_endpoint.location = {"n2", ""};
  b_endpoint.port = (*primary)->port();
  b_endpoint.failover = {{"127.0.0.1", (*replica)->port()}};
  ASSERT_TRUE(rt.Register(b_endpoint).ok());
  ASSERT_TRUE((*primary)->RegisterFunction(b_shim->get(), rt.DeliverySink()).ok());
  ASSERT_TRUE((*replica)->RegisterFunction(b_shim->get(), rt.DeliverySink()).ok());

  const auto run = [&](const std::string& input) {
    auto dag = dag::DagBuilder().Chain({"a", "b"}).Build();
    ASSERT_TRUE(dag.ok()) << dag.status();
    auto invocation = rt.Submit(api::DagSpec{*dag}, AsBytes(input));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(ToString(*result), input + "|a|b");
  };

  run("warm");  // served by the primary
  (*primary)->Shutdown();
  for (int i = 0; i < 4; ++i) run("k" + std::to_string(i));

  EXPECT_GE(FailoverTotal().Value() - failovers_before, 1u);
  // The primary's breaker tripped on consecutive wire failures and is still
  // within its cooldown.
  bool primary_open = false;
  for (const auto& info : rt.manager().hops().BreakerSnapshot()) {
    if (info.function == "b" && info.replica == 0) {
      primary_open = info.state == BreakerState::kOpen;
    }
  }
  EXPECT_TRUE(primary_open);
  EXPECT_TRUE(rt.manager().hops().OpenBreakerRetryAfter().has_value());
}

TEST_F(ChaosTest, KillAgentFailsOverToReplicaMuxReactor) {
  KillAgentFailsOverToReplica(FailoverTotal().Value());
}

// Agent crash and RESTART on the same port, no replica: the crash trips the
// breaker, the restart is discovered by the half-open probe once the
// cooldown elapses, and the breaker closes — recovery needs no operator
// action and no process restart.
TEST_F(ChaosTest, BreakerProbeHealsAfterAgentRestart) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/2);
  policy.breaker.failure_threshold = 1;
  policy.breaker.open_cooldown = std::chrono::milliseconds(200);

  api::Runtime::Options options;
  options.resilience = policy;
  options.remote_deadline = std::chrono::seconds(2);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  std::unique_ptr<Shim> b;  // declared first: outlives both agents serving it
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  const uint16_t port = (*agent)->port();
  b = AddFunction(rt, "b", {"n2", ""}, port);
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  ASSERT_TRUE(RunChain(rt, AsBytes("warm")).ok());

  // Crash. The next run's first attempt fails on the wire and trips the
  // breaker; its retry is refused by it.
  (*agent)->Shutdown();
  auto down = RunChain(rt, AsBytes("down"));
  ASSERT_FALSE(down.ok());

  // Restart on the SAME port. After the cooldown the next dispatch is
  // admitted as the half-open probe, succeeds, and closes the breaker. The
  // restart may race lingering sockets, so allow a few probe rounds.
  auto restarted = NodeAgent::Start(port);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  ASSERT_TRUE((*restarted)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  bool healed = false;
  const TimePoint deadline = Now() + std::chrono::seconds(5);
  while (!healed && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    healed = RunChain(rt, AsBytes("probe")).ok();
  }
  ASSERT_TRUE(healed);
  for (const auto& info : rt.manager().hops().BreakerSnapshot()) {
    if (info.function == "b" && info.replica == 0) {
      EXPECT_EQ(info.state, BreakerState::kClosed);
    }
  }
  EXPECT_FALSE(rt.manager().hops().OpenBreakerRetryAfter().has_value());
}

// A widespread outage with a generous per-replica attempt bound: the RUN
// budget is what stops the retry storm, with a typed kUnavailable.
TEST_F(ChaosTest, BudgetExhaustionSurfacesTypedUnavailable) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/100);
  policy.base_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(5);
  policy.run_retry_budget = 2;

  api::Runtime::Options options;
  options.resilience = policy;
  options.remote_deadline = std::chrono::seconds(2);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n2", ""}, DeadPort());

  auto result = RunChain(rt, AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("retry budget exhausted"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(RetryDelta(), 2u);  // exactly the budget
  EXPECT_EQ(BudgetExhaustedDelta(), 1u);
}

// Once a replica is proven dead, dispatching to it must cost microseconds —
// an open breaker refuses in admission, far below any wire deadline.
TEST_F(ChaosTest, OpenBreakerFastFailsWithBoundedLatency) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/1);
  policy.run_retry_budget = 0;
  policy.breaker.failure_threshold = 1;
  policy.breaker.open_cooldown = std::chrono::seconds(30);

  api::Runtime::Options options;
  options.resilience = policy;
  options.remote_deadline = std::chrono::seconds(5);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n2", ""}, DeadPort());

  // Run 1 trips the breaker on the dial failure.
  auto first = RunChain(rt, AsBytes("x"));
  ASSERT_FALSE(first.ok());

  // Run 2 is refused by the open breaker without touching the wire.
  const TimePoint start = Now();
  auto second = RunChain(rt, AsBytes("x"));
  const Nanos elapsed = Now() - start;
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(second.status().message().find("circuit breaker open"),
            std::string::npos)
      << second.status();
  EXPECT_LT(elapsed, std::chrono::seconds(1)) << "open breaker must fast-fail";
  EXPECT_TRUE(rt.manager().hops().OpenBreakerRetryAfter().has_value());
}

// Withholding every due flow-control grant stalls a larger-than-window
// transfer until the sender's deadline types the edge kDeadlineExceeded;
// with every attempt starved the run fails with that exact type.
TEST_F(ChaosTest, StarveGrantStallsTransferIntoDeadline) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/2);

  api::Runtime::Options options;
  options.resilience = policy;
  options.transfer_deadline = std::chrono::milliseconds(300);
  options.remote_deadline = std::chrono::seconds(2);
  api::Runtime rt("wf", options);

  // The payload must overflow the mux initial window (256 KiB) so progress
  // depends on grants.
  auto a = AddFunction(rt, "a", {"n1", ""}, 0, {},
                       [](ByteSpan) -> Result<Bytes> {
                         return Bytes(600 * 1024, 'x');
                       });
  // A starved stream keeps the instance it leased — b's shim — until the
  // agent reads its cancel, so b is declared first and outlives the agent.
  std::unique_ptr<Shim> b;
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  b = AddFunction(rt, "b", {"n2", ""}, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  FaultInjector::Instance().Arm(FaultSite::kAgentStarveGrant,
                                FaultPlan{.period = 1});

  auto result = RunChain(rt, AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_GT(FaultInjector::Instance().fires(FaultSite::kAgentStarveGrant), 0u);
}

// Gateway mapping of the failure-recovery plane: a run shed with typed
// kUnavailable answers 503 and carries a Retry-After hint derived from the
// open breaker's next half-open probe.
TEST_F(ChaosTest, GatewayAnswers503WithRetryAfterFromOpenBreaker) {
  ResiliencePolicy policy = FastPolicy(/*max_attempts=*/1);
  policy.run_retry_budget = 0;
  policy.breaker.failure_threshold = 1;
  policy.breaker.open_cooldown = std::chrono::seconds(30);

  api::Runtime::Options options;
  options.resilience = policy;
  options.remote_deadline = std::chrono::seconds(5);
  api::Runtime rt("wf", options);

  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n2", ""}, DeadPort());

  auto gateway = gateway::Gateway::Start(&rt, {});
  ASSERT_TRUE(gateway.ok()) << gateway.status();
  ASSERT_TRUE((*gateway)->AddRoute("chain", api::ChainSpec{{"a", "b"}}).ok());

  http::Request request;
  request.method = "POST";
  request.target = "/v1/invoke/chain";
  request.body = ToBytes("x");

  // Request 1 trips the breaker (dial failure, already a 503); request 2 is
  // refused by the OPEN breaker, so its Retry-After reflects the probe
  // deadline.
  auto first = http::Fetch("127.0.0.1", (*gateway)->port(), request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status_code, 503);

  auto second = http::Fetch("127.0.0.1", (*gateway)->port(), request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->status_code, 503);
  ASSERT_NE(second->headers.find("retry-after"), second->headers.end());
  const int64_t seconds = std::stoll(second->headers["retry-after"]);
  EXPECT_GE(seconds, 1);
  EXPECT_LE(seconds, 30);
}

}  // namespace
}  // namespace rr::resilience
