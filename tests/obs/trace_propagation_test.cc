// Cross-process trace propagation: a remote (NodeAgent) chain must yield ONE
// stitched trace — the agent's ingress/invoke spans carry the trace id the
// submitting runtime minted, because the context rode the mux open frame.
// Local edges are timed by their own edge:* spans under the same trace.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "core/node_agent.h"
#include "obs/trace.h"
#include "runtime/function.h"
#include "serde/json.h"

namespace rr::obs {
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

class TracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(false);
    Tracer::Get().SetCapacity(4096);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    Tracer::Get().SetCapacity(4096);
  }

  std::unique_ptr<Shim> AddFunction(api::Runtime& rt, const std::string& name,
                                    Location location, uint16_t port = 0) {
    auto shim = Shim::Create(Spec(name), Binary());
    EXPECT_TRUE(shim.ok()) << shim.status();
    EXPECT_TRUE((*shim)
                    ->Deploy([name](ByteSpan input) -> Result<Bytes> {
                      std::string out(AsStringView(input));
                      out += "|" + name;
                      return ToBytes(out);
                    })
                    .ok());
    Endpoint endpoint;
    endpoint.shim = shim->get();
    endpoint.location = std::move(location);
    endpoint.port = port;
    EXPECT_TRUE(rt.Register(endpoint).ok());
    return std::move(*shim);
  }

  static std::vector<SpanRecord> SpansNamed(const std::string& name) {
    std::vector<SpanRecord> found;
    for (const SpanRecord& span : Tracer::Get().Snapshot()) {
      if (span.name == name) found.push_back(span);
    }
    return found;
  }
};

TEST_F(TracePropagationTest, RemoteChainYieldsOneStitchedTrace) {
  // a runs locally; b and c live behind NodeAgent ingresses on two distinct
  // nodes, so BOTH downstream edges cross the wire. Every span of the run —
  // the driver's root, the dag dispatch/ack spans, and the agent-side
  // ingress/invoke spans that were parented from the FRAME header, not from
  // ambient thread state — must share the trace id Submit minted.
  api::Runtime::Options options;
  options.tracing = true;
  api::Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});

  auto agent_b = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent_b.ok()) << agent_b.status();
  auto agent_c = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent_c.ok()) << agent_c.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, (*agent_b)->port());
  auto c = AddFunction(rt, "c", {"n3", ""}, (*agent_c)->port());
  ASSERT_TRUE((*agent_b)->RegisterFunction(b.get(), rt.DeliverySink()).ok());
  ASSERT_TRUE((*agent_c)->RegisterFunction(c.get(), rt.DeliverySink()).ok());

  auto invocation = rt.Submit(api::ChainSpec{{"a", "b", "c"}}, AsBytes("in"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "in|a|b|c");
  const uint64_t trace_id = (*invocation)->trace_id();
  ASSERT_NE(trace_id, 0u);

  // Spans from the submitting side...
  const auto run_spans =
      SpansNamed("run:" + std::to_string((*invocation)->id()));
  ASSERT_EQ(run_spans.size(), 1u);
  EXPECT_EQ(run_spans[0].trace_id, trace_id);
  // ...and from the agent side of the wire, for BOTH remote nodes.
  for (const std::string& node : {std::string("b"), std::string("c")}) {
    const auto ingress = SpansNamed("ingress:" + node);
    const auto invoke = SpansNamed("invoke:" + node);
    ASSERT_EQ(ingress.size(), 1u) << node;
    ASSERT_EQ(invoke.size(), 1u) << node;
    EXPECT_EQ(ingress[0].trace_id, trace_id) << node;
    EXPECT_EQ(invoke[0].trace_id, trace_id) << node;
    EXPECT_STREQ(ingress[0].category, "agent");
    const auto dispatch = SpansNamed("dispatch:" + node);
    ASSERT_EQ(dispatch.size(), 1u) << node;
    EXPECT_EQ(dispatch[0].trace_id, trace_id) << node;
    // The agent-side spans are parented under the sender's dispatch span —
    // the parent id crossed the wire in the frame extension.
    EXPECT_EQ(ingress[0].parent_span_id, dispatch[0].span_id) << node;
  }

  // The whole stitched trace exports as valid Chrome trace JSON.
  const auto decoded = serde::JsonDecode(ExportChromeTrace());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_GE((*decoded)["traceEvents"].as_array().size(), 5u);

  (*agent_b)->Shutdown();
  (*agent_c)->Shutdown();
}

TEST_F(TracePropagationTest, TracingDisabledRemoteChainStillRuns) {
  // With tracing off no frame carries the extension (absent context); the
  // remote path must work exactly as before and record nothing.
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto agent = core::NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = AddFunction(rt, "b", {"n2", ""}, (*agent)->port());
  ASSERT_TRUE((*agent)->RegisterFunction(b.get(), rt.DeliverySink()).ok());

  const uint64_t recorded_before = Tracer::Get().recorded();
  auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("x"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  ASSERT_TRUE((*invocation)->Wait().ok());
  EXPECT_EQ((*invocation)->trace_id(), 0u);
  EXPECT_EQ(Tracer::Get().recorded(), recorded_before);
  (*agent)->Shutdown();
}

TEST_F(TracePropagationTest, LocalEdgesAreTimedByTheirSpans) {
  // A local edge's only timing is its edge:* span (a->b kernel, b->c the
  // network loopback hop): one per edge, under the run's trace, inside the
  // run's transfer phase.
  api::Runtime::Options options;
  options.tracing = true;
  api::Runtime rt("wf", options);
  auto a = AddFunction(rt, "a", {"n1", ""});
  auto b = AddFunction(rt, "b", {"n1", ""});
  auto c = AddFunction(rt, "c", {"n2", ""});

  auto invocation = rt.Submit(api::ChainSpec{{"a", "b", "c"}}, AsBytes("in"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  ASSERT_TRUE((*invocation)->Wait().ok());
  const Nanos transfer_phase = (*invocation)->stats().transfer_phase;
  for (const std::string& edge :
       {std::string("edge:a->b"), std::string("edge:b->c")}) {
    const auto spans = SpansNamed(edge);
    ASSERT_EQ(spans.size(), 1u) << edge;
    EXPECT_EQ(spans[0].trace_id, (*invocation)->trace_id()) << edge;
    EXPECT_GT(spans[0].duration.count(), 0) << edge;
    EXPECT_LE(spans[0].duration, transfer_phase) << edge;
  }
}

}  // namespace
}  // namespace rr::obs
