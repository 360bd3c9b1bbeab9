// DAG engine behavior, driven through api::Runtime::Submit.
#include "dag/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "api/runtime.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "dag/dag.h"
#include "obs/metrics.h"
#include "resilience/fault_injector.h"
#include "resilience/metrics.h"
#include "runtime/function.h"

namespace rr::dag {
namespace {

using core::Endpoint;
using core::Location;
using core::Shim;
using core::WorkflowManager;

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

class DagExecutorTest : public ::testing::Test {
 protected:
  // Suffix handlers make hop order and fan-in concatenation observable.
  static runtime::NativeHandler Tagger(const std::string& tag) {
    return [tag](ByteSpan input) -> Result<Bytes> {
      std::string out(AsStringView(input));
      out += "|" + tag;
      return ToBytes(out);
    };
  }

  static api::Runtime::Options Options(size_t dag_workers = 0) {
    api::Runtime::Options options;
    options.dag_workers = dag_workers;
    return options;
  }

  std::unique_ptr<Shim> AddFunction(api::Runtime& rt, const std::string& name,
                                    Location location,
                                    runtime::WasmVm* vm = nullptr,
                                    uint16_t port = 0,
                                    runtime::NativeHandler handler = nullptr) {
    auto shim = vm ? Shim::CreateInVm(*vm, Spec(name), Binary())
                   : Shim::Create(Spec(name), Binary());
    EXPECT_TRUE(shim.ok()) << shim.status();
    EXPECT_TRUE(
        (*shim)->Deploy(handler ? std::move(handler) : Tagger(name)).ok());
    Endpoint endpoint;
    endpoint.shim = shim->get();
    endpoint.location = std::move(location);
    endpoint.port = port;
    EXPECT_TRUE(rt.Register(endpoint).ok());
    return std::move(*shim);
  }

  // Submits the DAG and waits; the run's stats land in `stats`.
  static Result<rr::Buffer> Execute(api::Runtime& rt, const Dag& dag,
                                    ByteSpan input,
                                    api::RunStats* stats = nullptr) {
    RR_ASSIGN_OR_RETURN(const std::shared_ptr<api::Invocation> invocation,
                        rt.Submit(api::DagSpec{dag}, input));
    Result<rr::Buffer> result = invocation->Wait();
    if (stats != nullptr) *stats = invocation->stats();
    return result;
  }

  // Bytes sent so far under one `mode` of rr_channel_bytes_total ("user",
  // "kernel" or "network"): which mode an edge took shows as the series its
  // bytes moved.
  static uint64_t SentBytes(const char* mode) {
    return obs::Registry::Get()
        .counter("rr_channel_bytes_total", "",
                 {{"mode", mode}, {"direction", "sent"}})
        ->Value();
  }
};

TEST_F(DagExecutorTest, DiamondUserSpace) {
  api::Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);
  auto d = AddFunction(rt, "d", {"n1", "vm1"}, &vm);

  auto dag = DagBuilder("diamond")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = Execute(rt, *dag, AsBytes("in"));
  ASSERT_TRUE(result.ok()) << result.status();
  // Fan-in concatenates predecessor payloads in edge-declaration order.
  EXPECT_EQ(ToString(*result), "in|a|bin|a|c|d");
  EXPECT_EQ(a->invocations(), 1u);
  EXPECT_EQ(b->invocations(), 1u);
  EXPECT_EQ(c->invocations(), 1u);
  EXPECT_EQ(d->invocations(), 1u);
}

TEST_F(DagExecutorTest, DiamondMixedModesCountsBytesUnderEachMode) {
  api::Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);  // user-space from a
  auto c = AddFunction(rt, "c", {"n1", ""});          // kernel-space from a
  auto d = AddFunction(rt, "d", {"n2", ""});          // network from b and c

  auto dag = DagBuilder("mixed")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  const uint64_t user_before = SentBytes("user");
  const uint64_t kernel_before = SentBytes("kernel");
  const uint64_t network_before = SentBytes("network");
  api::RunStats stats;
  auto result = Execute(rt, *dag, AsBytes("x"), &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|a|bx|a|c|d");

  // a's fan-out output "x|a" is host-resident: its user edge to b is
  // counted like its kernel edge to c; both legs into d are network.
  EXPECT_EQ(SentBytes("user") - user_before, std::string("x|a").size());
  EXPECT_EQ(SentBytes("kernel") - kernel_before, std::string("x|a").size());
  EXPECT_EQ(SentBytes("network") - network_before,
            std::string("x|a|b").size() + std::string("x|a|c").size());
  EXPECT_GE(stats.total.count(), stats.transfer_phase.count());
  EXPECT_GT(stats.transfer_phase.count(), 0);
}

TEST_F(DagExecutorTest, WideFanOutIntranode) {
  constexpr size_t kFanout = 8;
  api::Runtime rt("wf", Options(/*dag_workers=*/4));
  auto source = AddFunction(rt, "src", {"n1", ""});

  std::vector<std::unique_ptr<Shim>> targets;
  DagBuilder builder("fanout");
  builder.AddNode("src");
  std::vector<std::string> names;
  for (size_t i = 0; i < kFanout; ++i) {
    names.push_back("b" + std::to_string(i));
    targets.push_back(AddFunction(rt, names.back(), {"n1", ""}));
  }
  builder.FanOut("src", names);
  auto dag = builder.Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  const uint64_t kernel_before = SentBytes("kernel");
  auto result = Execute(rt, *dag, AsBytes("p"));
  ASSERT_TRUE(result.ok()) << result.status();

  // All eight sinks' outputs, concatenated in declaration order.
  std::string expected;
  for (size_t i = 0; i < kFanout; ++i) {
    expected += "p|src|b" + std::to_string(i);
  }
  EXPECT_EQ(ToString(*result), expected);
  EXPECT_EQ(source->invocations(), 1u);
  for (const auto& target : targets) EXPECT_EQ(target->invocations(), 1u);
  EXPECT_EQ(SentBytes("kernel") - kernel_before,
            kFanout * std::string("p|src").size());
}

TEST_F(DagExecutorTest, InternodeFanOutViaNodeAgent) {
  constexpr size_t kFanout = 4;
  api::Runtime rt("wf", Options(/*dag_workers=*/4));
  auto source = AddFunction(rt, "src", {"n1", ""});

  // The "remote" node: an in-process NodeAgent owning the target functions'
  // ingress. Deliveries route back into the executor through its sink.
  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();

  std::vector<std::unique_ptr<Shim>> targets;
  DagBuilder builder("internode");
  builder.AddNode("src");
  std::vector<std::string> names;
  for (size_t i = 0; i < kFanout; ++i) {
    names.push_back("r" + std::to_string(i));
    targets.push_back(AddFunction(rt, names.back(), {"n2", ""},
                                  /*vm=*/nullptr, (*agent)->port()));
    ASSERT_TRUE(
        (*agent)->RegisterFunction(targets.back().get(), rt.DeliverySink())
            .ok());
  }
  builder.FanOut("src", names);
  auto dag = builder.Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  const uint64_t user_before = SentBytes("user");
  const uint64_t kernel_before = SentBytes("kernel");
  const uint64_t network_before = SentBytes("network");
  auto result = Execute(rt, *dag, AsBytes("w"));
  ASSERT_TRUE(result.ok()) << result.status();

  std::string expected;
  for (size_t i = 0; i < kFanout; ++i) expected += "w|src|r" + std::to_string(i);
  EXPECT_EQ(ToString(*result), expected);
  EXPECT_EQ((*agent)->transfers_completed(), kFanout);
  // Every edge rode the agent's mux wire: no local channel moved a byte.
  EXPECT_EQ(SentBytes("user"), user_before);
  EXPECT_EQ(SentBytes("kernel"), kernel_before);
  EXPECT_EQ(SentBytes("network"), network_before);
}

TEST_F(DagExecutorTest, InternodeDiamondJoinBehindNodeAgent) {
  api::Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  // The join function lives on the remote node: its input is the merged
  // fan-in payload, delivered as one frame through the agent.
  auto d = AddFunction(rt, "d", {"n2", ""}, nullptr, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(d.get(), rt.DeliverySink()).ok());

  auto dag = DagBuilder("remote-join")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = Execute(rt, *dag, AsBytes("q"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "q|a|bq|a|c|d");
  EXPECT_EQ(d->invocations(), 1u);
}

TEST_F(DagExecutorTest, CoLocatedEndpointsKeepFastPathDespiteIngressPort) {
  // Real deployments register every function with its node's ingress port;
  // placement still decides the mode, so a co-located edge must stay on the
  // kernel fast path instead of looping through the agent.
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n1", ""}, nullptr, /*port=*/1);

  auto dag = DagBuilder().Chain({"a", "b"}).Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  const uint64_t kernel_before = SentBytes("kernel");
  const uint64_t network_before = SentBytes("network");
  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|a|b");
  EXPECT_EQ(SentBytes("kernel") - kernel_before, std::string("x|a").size());
  EXPECT_EQ(SentBytes("network"), network_before);
}

TEST_F(DagExecutorTest, FanInConcatenatesInEdgeDeclarationOrder) {
  api::Runtime rt("wf");
  auto s1 = AddFunction(rt, "s1", {"n1", ""});
  auto s2 = AddFunction(rt, "s2", {"n1", ""});
  auto s3 = AddFunction(rt, "s3", {"n1", ""});
  auto join = AddFunction(rt, "join", {"n1", ""});

  auto dag = DagBuilder("join3")
                 .AddNode("s1")
                 .AddNode("s2")
                 .AddNode("s3")
                 .FanIn({"s1", "s2", "s3"}, "join")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|s1x|s2x|s3|join");
  EXPECT_EQ(join->invocations(), 1u);
}

TEST_F(DagExecutorTest, LinearChainMatchesChainSpec) {
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n1", ""});
  auto c = AddFunction(rt, "c", {"n2", ""});

  auto chain_invocation = rt.Submit(api::ChainSpec{{"a", "b", "c"}}, AsBytes("z"));
  ASSERT_TRUE(chain_invocation.ok()) << chain_invocation.status();
  const Result<rr::Buffer>& chain_result = (*chain_invocation)->Wait();
  ASSERT_TRUE(chain_result.ok()) << chain_result.status();

  auto dag = DagBuilder().Chain({"a", "b", "c"}).Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto dag_result = Execute(rt, *dag, AsBytes("z"));
  ASSERT_TRUE(dag_result.ok()) << dag_result.status();
  EXPECT_EQ(ToString(*dag_result), ToString(*chain_result));
}

TEST_F(DagExecutorTest, BranchFailureCancelsDownstream) {
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n1", ""});
  auto c = AddFunction(rt, "c", {"n1", ""}, nullptr, 0,
                       [](ByteSpan) -> Result<Bytes> {
                         return InternalError("branch exploded");
                       });
  auto d = AddFunction(rt, "d", {"n1", ""});

  auto dag = DagBuilder("failing")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("node c"), std::string::npos);
  EXPECT_NE(result.status().message().find("branch exploded"), std::string::npos);
  // The join never ran: its failing predecessor cancelled the wavefront.
  EXPECT_EQ(d->invocations(), 0u);
}

TEST_F(DagExecutorTest, RemoteBranchRetiresIntoARunItsSiblingCancelled) {
  // a -> {r, c} -> d: the remote branch r is still in flight when its local
  // sibling c fails and cancels the run, so r's pending slot retires it into
  // a cancelled run. The run reports c's error, r runs once, d never runs.
  api::Runtime rt("wf");
  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  std::promise<void> failed;
  const std::shared_future<void> c_failed = failed.get_future().share();

  auto a = AddFunction(rt, "a", {"n1", ""});
  auto r = AddFunction(rt, "r", {"n2", ""}, nullptr, (*agent)->port(),
                       [c_failed](ByteSpan input) -> Result<Bytes> {
                         c_failed.wait();
                         // Let c's worker retire it before r answers.
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(20));
                         return Bytes(input.begin(), input.end());
                       });
  ASSERT_TRUE((*agent)->RegisterFunction(r.get(), rt.DeliverySink()).ok());
  auto c = AddFunction(rt, "c", {"n1", ""}, nullptr, 0,
                       [&failed](ByteSpan) -> Result<Bytes> {
                         failed.set_value();
                         return InternalError("branch exploded");
                       });
  auto d = AddFunction(rt, "d", {"n1", ""});

  auto dag = DagBuilder("remote-branch")
                 .AddNode("a")
                 .FanOut("a", {"r", "c"})
                 .FanIn({"r", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("node c: "), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("branch exploded"),
            std::string::npos);
  EXPECT_EQ(r->invocations(), 1u);
  EXPECT_EQ(d->invocations(), 0u);
  EXPECT_EQ(rt.in_flight(), 0u);
  (*agent)->Shutdown();
}

TEST_F(DagExecutorTest, UnregisteredNodeFailsFast) {
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto dag = DagBuilder().Chain({"a", "ghost"}).Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(a->invocations(), 0u);  // validation precedes any dispatch
}

TEST_F(DagExecutorTest, RemoteDeliveryTimesOutWhenAgentDropsFunction) {
  api::Runtime::Options options;
  options.remote_deadline = std::chrono::milliseconds(200);
  api::Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  // "b" is addressed through the agent but never registered there: the agent
  // drops the connection, no delivery callback ever fires.
  auto b = AddFunction(rt, "b", {"n2", ""}, nullptr, (*agent)->port());

  auto dag = DagBuilder().Chain({"a", "b"}).Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_FALSE(result.ok());
}

TEST_F(DagExecutorTest, DeliveryWithUnknownTokenRejectedAndReleased) {
  // A completion whose correlation token matches no pending transfer — a
  // late delivery from a timed-out or cancelled run — must be rejected with
  // the distinct kTokenMismatch code and its output region released, never
  // claimed by a later run. Exercised on a bare executor: DeliverOutcome is
  // the protocol surface NodeAgent sinks feed.
  WorkflowManager manager("wf");
  auto b = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)->Deploy(Tagger("b")).ok());
  Endpoint endpoint;
  endpoint.shim = b->get();
  endpoint.location = {"n1", ""};
  ASSERT_TRUE(manager.Register(endpoint).ok());
  DagExecutor executor(&manager);

  auto outcome = (*b)->DeliverAndInvoke(AsBytes("stale"));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // An agent-side delivery always carries the instance lease that holds the
  // outcome's region; lease the (adopted, size-1) pool the way an agent
  // would.
  auto lease = (*manager.Find("b"))->Lease();
  ASSERT_TRUE(lease.ok()) << lease.status();
  const Status status =
      executor.DeliverOutcome("b", *outcome, /*token=*/777, std::move(*lease));
  EXPECT_EQ(status.code(), StatusCode::kTokenMismatch) << status;
  // The orphaned output was released: releasing it again must fail.
  EXPECT_FALSE((*b)->ReleaseRegion(outcome->output).ok());
}

TEST_F(DagExecutorTest, LateFirstAttemptCompletionRejectedByFreshToken) {
  // End-to-end replayed-completion safety: attempt 1's invoke is held past
  // the sender's backstop deadline, the retry engine re-dispatches under a
  // FRESH token and completes the run, and when the held attempt finally
  // delivers, its token matches nothing — rejected as stale, its region
  // released, the run completed exactly once with the retried attempt's
  // output.
  struct InjectorGuard {
    InjectorGuard() { resilience::FaultInjector::Instance().Reset(); }
    ~InjectorGuard() { resilience::FaultInjector::Instance().Reset(); }
  } injector_guard;

  api::Runtime::Options options;
  options.remote_deadline = std::chrono::milliseconds(300);
  options.resilience.enabled = true;
  options.resilience.max_attempts = 2;
  options.resilience.base_backoff = std::chrono::milliseconds(5);
  options.resilience.max_backoff = std::chrono::milliseconds(20);
  options.resilience.breaker.failure_threshold = 0;
  api::Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});

  // Two instances and several invoke workers, so the held first attempt —
  // which keeps its instance from open until its invoke — does not
  // serialize the retry behind it.
  core::NodeAgent::Options agent_options;
  agent_options.invoke_workers = 4;
  auto agent = core::NodeAgent::Start(0, agent_options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  runtime::PoolOptions pool_options;
  pool_options.min_warm = 2;
  pool_options.max_instances = 2;
  auto b = core::ShimPool::Create(Spec("b"), Binary(), {}, pool_options);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)->Deploy(Tagger("b")).ok());
  Endpoint remote;
  remote.pool = *b;
  remote.location = {"n2", ""};
  remote.port = (*agent)->port();
  ASSERT_TRUE(rt.Register(remote).ok());
  ASSERT_TRUE((*agent)->RegisterFunction(*b, rt.DeliverySink()).ok());

  const uint64_t stale0 = resilience::StaleDeliveriesTotal().Value();
  const uint64_t retries0 = resilience::RetryAttemptsTotal().Value();
  resilience::FaultInjector::Instance().Arm(
      resilience::FaultSite::kAgentDelayCompletion,
      resilience::FaultPlan{.period = 1,
                            .max_fires = 1,
                            .delay = std::chrono::milliseconds(900)});

  auto dag = DagBuilder().Chain({"a", "b"}).Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto result = Execute(rt, *dag, AsBytes("x"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "x|a|b");
  EXPECT_EQ(resilience::RetryAttemptsTotal().Value() - retries0, 1u);

  // The held attempt delivers ~600 ms after the run finished; its rejection
  // is asynchronous, so poll.
  const TimePoint poll_deadline = Now() + std::chrono::seconds(3);
  while (resilience::StaleDeliveriesTotal().Value() - stale0 < 1 &&
         Now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Join the invoke workers: the metrics poll above orders nothing (relaxed
  // counters), and the shim outlives the agent only past this point.
  (*agent)->Shutdown();
  EXPECT_EQ(resilience::StaleDeliveriesTotal().Value() - stale0, 1u);
  // Both attempts invoked (the held one after the retry won), exactly once
  // each — a double-complete would have corrupted the join above.
  EXPECT_EQ((*b)->invocations(), 2u);
}

TEST_F(DagExecutorTest, RepeatedExecutionsReuseHops) {
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n1", ""});
  auto c = AddFunction(rt, "c", {"n1", ""});

  auto dag = DagBuilder()
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  for (int i = 0; i < 3; ++i) {
    auto result = Execute(rt, *dag, AsBytes("r" + std::to_string(i)));
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(rt.manager().hops().size(), 2u);  // one kernel hop per fan-out edge
  EXPECT_EQ(a->invocations(), 3u);
  EXPECT_EQ(b->invocations(), 3u);
}

}  // namespace
}  // namespace rr::dag
