// api::Runtime tests: the unified async invocation façade — concurrent
// chain/DAG submissions over the shared hop cache, validation at Submit,
// per-run stats, and remote (NodeAgent) targets under concurrency.
#include "api/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/node_agent.h"
#include "dag/dag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/function.h"

namespace rr::api {
namespace {

using core::Endpoint;
using core::Location;
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

// Threads of this process, read once the count holds still for 10 ms: a
// thread joined just before may linger in /proc/self/task for a moment.
size_t SettledThreadCount() {
  const auto count = [] {
    size_t threads = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++threads;
    }
    return threads;
  };
  size_t last = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t now = count();
    if (now == last) break;
    last = now;
  }
  return last;
}

class RuntimeTest : public ::testing::Test {
 protected:
  static runtime::NativeHandler Tagger(const std::string& tag) {
    return [tag](ByteSpan input) -> Result<Bytes> {
      std::string out(AsStringView(input));
      out += "|" + tag;
      return ToBytes(out);
    };
  }

  std::unique_ptr<Shim> AddFunction(Runtime& rt, const std::string& name,
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
};

TEST_F(RuntimeTest, SubmitChainReturnsHandleAndResult) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("in"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "in|a|b");
  EXPECT_TRUE((*invocation)->Done());
  // Wait after completion returns the same stored result.
  EXPECT_EQ(&(*invocation)->Wait(), &result);
  EXPECT_EQ(ToString(*(*invocation)->Wait()), "in|a|b");
}

TEST_F(RuntimeTest, SubmitValidatesBeforeExecution) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);

  // Unknown function: rejected at Submit, not at Wait.
  auto unknown = rt.Submit(ChainSpec{{"a", "ghost"}}, AsBytes("x"));
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Malformed shape: an empty chain never reaches the executor either.
  auto empty = rt.Submit(ChainSpec{{}}, AsBytes("x"));
  EXPECT_FALSE(empty.ok());
}

TEST_F(RuntimeTest, ManyChainInvocationsInFlightConcurrently) {
  constexpr size_t kInFlight = 16;
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", ""});  // kernel hop shared by all runs

  const ChainSpec chain{{"a", "b", "c"}};
  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation =
        rt.Submit(chain, AsBytes("req-" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }

  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "req-" + std::to_string(i) + "|a|b|c");
  }
  EXPECT_EQ(a->invocations(), kInFlight);
  EXPECT_EQ(c->invocations(), kInFlight);
  // Every run reused the same cached hops: one per chain edge, no races that
  // tear down and re-establish channels.
  EXPECT_EQ(rt.manager().hops().size(), 2u);
  EXPECT_EQ(rt.in_flight(), 0u);
}

TEST_F(RuntimeTest, ManyDagInvocationsInFlightConcurrently) {
  constexpr size_t kInFlight = 8;
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);
  auto d = AddFunction(rt, "d", {"n1", ""});

  auto dag = dag::DagBuilder("diamond")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .FanIn({"b", "c"}, "d")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  const DagSpec spec{*dag};

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(spec, AsBytes("d" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    const std::string in = "d" + std::to_string(i);
    EXPECT_EQ(ToString(*result), in + "|a|b" + in + "|a|c|d");
  }
  EXPECT_EQ(a->invocations(), kInFlight);
  EXPECT_EQ(d->invocations(), kInFlight);
}

TEST_F(RuntimeTest, MixedChainAndDagSubmissionsInterleave) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm);

  auto dag = dag::DagBuilder("fan")
                 .AddNode("a")
                 .FanOut("a", {"b", "c"})
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (int i = 0; i < 12; ++i) {
    auto invocation =
        (i % 2 == 0)
            ? rt.Submit(DagSpec{*dag}, AsBytes("f" + std::to_string(i)))
            : rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("f" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (int i = 0; i < 12; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    const std::string in = "f" + std::to_string(i);
    EXPECT_EQ(ToString(*result),
              i % 2 == 0 ? in + "|a|b" + in + "|a|c" : in + "|a|b");
  }
}

TEST_F(RuntimeTest, StatsAccountQueueingAndExecution) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("s"));
  ASSERT_TRUE(invocation.ok());
  ASSERT_TRUE((*invocation)->Wait().ok());
  const RunStats& stats = (*invocation)->stats();
  EXPECT_GE(stats.queued.count(), 0);
  EXPECT_GT(stats.total.count(), 0);
  // The one a->b transfer is inside the run.
  EXPECT_GT(stats.transfer_phase.count(), 0);
  EXPECT_LE(stats.transfer_phase.count(), stats.total.count());
}

TEST_F(RuntimeTest, WaitForTimesOutWhileInFlightThenCompletes) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);

  auto invocation = rt.Submit(ChainSpec{{"a"}}, AsBytes("t"));
  ASSERT_TRUE(invocation.ok());
  // A zero-timeout WaitFor cannot block; whatever it reports, the full Wait
  // must complete with the run's result.
  (void)(*invocation)->WaitFor(Nanos{0});
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "t|a");
}

TEST_F(RuntimeTest, FailingSourceRunsLeaveNoGuestRegionBehind) {
  // A source's input is placed by the run itself: a failed invoke must hand
  // it back, or every failing request leaks guest heap in a warm instance.
  Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""}, nullptr, 0,
                       [](ByteSpan) -> Result<Bytes> {
                         return InvalidArgumentError("rejected");
                       });
  const auto books = [&a] {
    MutexLock lock(a->exec_mutex());
    return std::make_pair(a->sandbox().allocator().live_allocations(),
                          a->data().registered_region_count());
  };
  const auto before = books();
  for (int i = 0; i < 3; ++i) {
    auto invocation = rt.Submit(ChainSpec{{"a"}}, AsBytes("payload"));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  }
  EXPECT_EQ(books(), before);
}

TEST_F(RuntimeTest, RemoteAgentTargetsUnderConcurrency) {
  // Functions behind a NodeAgent ingress: eight runs in flight dispatch
  // token-stamped frames over one shared agent client; the delivery sink
  // routes each completion back to exactly its own run.
  constexpr size_t kInFlight = 8;
  Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, nullptr, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  const ChainSpec chain{{"a", "b"}};
  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(chain, AsBytes("r" + std::to_string(i)));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << "run " << i << ": " << result.status();
    EXPECT_EQ(ToString(*result), "r" + std::to_string(i) + "|a|b");
  }
  EXPECT_EQ((*agent)->transfers_completed(), kInFlight);
  (*agent)->Shutdown();
}

TEST_F(RuntimeTest, ConcurrentRunsToAnUnregisteredRemoteFunctionFailTyped) {
  // Every run targets a function the agent never registered. The agent
  // refuses each stream with a typed kNotFound completion frame, so all runs
  // share one agent client and each fails at once with that refusal, naming
  // the function. The backstop is far longer than the test, so a timeout
  // cannot stand in for the refusal.
  constexpr size_t kInFlight = 8;
  Runtime::Options options;
  options.remote_deadline = std::chrono::seconds(10);
  Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, nullptr, (*agent)->port());
  // "b" is intentionally NOT registered with the agent.

  std::vector<std::shared_ptr<Invocation>> invocations;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("x"));
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_FALSE(result.ok()) << "run " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << "run " << i << ": " << result.status();
    EXPECT_NE(result.status().message().find("no such function: b"),
              std::string::npos)
        << "run " << i << ": " << result.status();
  }
  (*agent)->Shutdown();
}

TEST_F(RuntimeTest, DestructionDrainsSubmittedInvocations) {
  // `a` holds every run until all six callbacks are registered and lets go
  // just before the runtime goes out of scope, so the runs publish — and
  // fire their NotifyDone callbacks on DAG workers — while the destructor
  // drains. It must return only after every callback returned.
  runtime::WasmVm vm("wf");
  std::vector<std::shared_ptr<Invocation>> invocations;
  std::unique_ptr<Shim> a, b;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> callbacks{0};
  {
    Runtime rt("wf");
    a = AddFunction(rt, "a", {"n1", "vm1"}, &vm, 0,
                    [released](ByteSpan input) -> Result<Bytes> {
                      released.wait();
                      return ToBytes(std::string(AsStringView(input)) + "|a");
                    });
    b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
    for (int i = 0; i < 6; ++i) {
      auto invocation =
          rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("x" + std::to_string(i)));
      ASSERT_TRUE(invocation.ok());
      (*invocation)->NotifyDone([&callbacks] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        callbacks.fetch_add(1);
      });
      invocations.push_back(std::move(*invocation));
    }
    release.set_value();
    // Runtime destroyed here: it must drain, not abandon, the runs.
  }
  EXPECT_EQ(callbacks.load(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(invocations[i]->Done());
    const Result<rr::Buffer>& result = invocations[i]->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(ToString(*result), "x" + std::to_string(i) + "|a|b");
  }
}

TEST_F(RuntimeTest, ChainRunsToCompletionOnOneWorker) {
  // The worker that retires a node runs its successor next, and the run
  // publishes where its last node retired: a chain's handlers and its
  // completion callback all run on one DAG worker.
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  std::mutex mutex;
  std::vector<std::thread::id> threads;
  const auto record = [&mutex, &threads] {
    std::lock_guard<std::mutex> lock(mutex);
    threads.push_back(std::this_thread::get_id());
  };
  // `a` holds the run until its callback is registered, so the callback
  // fires at completion rather than inline at registration.
  std::promise<void> registered;
  const std::shared_future<void> gate = registered.get_future().share();
  const auto handler = [&record](ByteSpan input) -> Result<Bytes> {
    record();
    return Bytes(input.begin(), input.end());
  };
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm, 0,
                       [gate, handler](ByteSpan input) {
                         gate.wait();
                         return handler(input);
                       });
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm, 0, handler);
  auto c = AddFunction(rt, "c", {"n1", "vm1"}, &vm, 0, handler);

  auto invocation = rt.Submit(ChainSpec{{"a", "b", "c"}}, AsBytes("one"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  std::promise<void> notified;
  (*invocation)->NotifyDone([&record, &notified] {
    record();
    notified.set_value();
  });
  registered.set_value();
  notified.get_future().wait();

  ASSERT_TRUE((*invocation)->Wait().ok()) << (*invocation)->Wait().status();
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(threads.size(), 4u);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  for (const std::thread::id& id : threads) EXPECT_EQ(id, threads[0]);
}

TEST_F(RuntimeTest, StartsNoThreadBeyondTheDagWorkers) {
  // Runs execute on the DAG workers alone: constructing a runtime starts
  // exactly its worker pool (the remote-deadline sweeper starts lazily with
  // the first remote edge; introspection is off).
  const size_t before = SettledThreadCount();
  Runtime::Options options;
  options.dag_workers = 2;
  Runtime rt("wf", options);
  EXPECT_EQ(SettledThreadCount() - before, 2u);

  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);
  auto invocation = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("w"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "w|a|b");
}

TEST_F(RuntimeTest, QueueDepthGaugeSumsEveryRuntimeInTheProcess) {
  // rr_dag_queue_depth sums every runtime's ready-queue backlog: a second
  // runtime finishing a run must not hide the first one's queued runs.
  std::promise<void> started;
  std::atomic<bool> first{true};
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  Runtime::Options options;
  options.dag_workers = 1;
  Runtime busy("wf", options);
  auto a = AddFunction(busy, "a", {"n1", ""}, nullptr, 0,
                       [&started, &first, released](ByteSpan input)
                           -> Result<Bytes> {
                         if (first.exchange(false)) started.set_value();
                         released.wait();
                         return Bytes(input.begin(), input.end());
                       });
  // No assertion may return before the gate opens: ~Runtime would wait on
  // the blocked runs forever.
  std::vector<std::shared_ptr<Invocation>> invocations;
  const auto submit = [&busy, &invocations] {
    auto invocation = busy.Submit(ChainSpec{{"a"}}, AsBytes("q"));
    EXPECT_TRUE(invocation.ok()) << invocation.status();
    if (invocation.ok()) invocations.push_back(std::move(*invocation));
  };

  // The one worker is inside the first run's source; two more runs queue.
  submit();
  started.get_future().wait();
  obs::Gauge& depth = *obs::Registry::Get().gauge("rr_dag_queue_depth");
  const int64_t baseline = depth.Value();
  submit();
  submit();
  EXPECT_EQ(depth.Value(), baseline + 2);

  {
    Runtime other("wf");
    auto b = AddFunction(other, "b", {"n1", ""});
    auto invocation = other.Submit(ChainSpec{{"b"}}, AsBytes("x"));
    EXPECT_TRUE(invocation.ok() && (*invocation)->Wait().ok());
  }
  EXPECT_EQ(depth.Value(), baseline + 2);

  release.set_value();
  for (const auto& invocation : invocations) {
    EXPECT_TRUE(invocation->Wait().ok()) << invocation->Wait().status();
  }
  EXPECT_EQ(depth.Value(), baseline);
}

TEST_F(RuntimeTest, TracingLastsOnlyWhileATracedRuntimeLives) {
  // Options::tracing turns tracing on for as long as some runtime that asked
  // for it lives; an explicit switch keeps its meaning.
  obs::SetTracingEnabled(false);
  Runtime::Options traced;
  traced.tracing = true;
  {
    Runtime only("wf", traced);
    EXPECT_TRUE(obs::TracingEnabled());
  }
  EXPECT_FALSE(obs::TracingEnabled())
      << "the only traced runtime left tracing on";

  {
    auto first = std::make_unique<Runtime>("wf1", traced);
    {
      Runtime second("wf2", traced);
      EXPECT_TRUE(obs::TracingEnabled());
    }
    EXPECT_TRUE(obs::TracingEnabled())
        << "a traced runtime still lives, but tracing went off";
    first.reset();
    EXPECT_FALSE(obs::TracingEnabled());
  }

  // Tracing switched on explicitly stays on past a traced runtime.
  obs::SetTracingEnabled(true);
  { Runtime passing("wf", traced); }
  EXPECT_TRUE(obs::TracingEnabled());
  obs::SetTracingEnabled(false);
}

TEST_F(RuntimeTest, UnregisterEvictsEndpointFromRegistry) {
  Runtime rt("wf");
  runtime::WasmVm vm("wf");
  auto a = AddFunction(rt, "a", {"n1", "vm1"}, &vm);
  auto b = AddFunction(rt, "b", {"n1", "vm1"}, &vm);

  ASSERT_TRUE((*rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("1")))->Wait().ok());
  ASSERT_TRUE(rt.Unregister("b").ok());
  auto rejected = rt.Submit(ChainSpec{{"a", "b"}}, AsBytes("2"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace rr::api
