// Zero-copy payload plane, end to end through api::Runtime: copy-complexity
// of fan-out and of socket-hop chains, zero-length payloads across all three
// transfer modes, payloads larger than the network hop's socket buffers,
// release of a failed node's input, and input-buffer sharing across many
// in-flight invocations.
#include <gtest/gtest.h>

#include "api/runtime.h"
#include "common/buffer.h"
#include "dag/dag.h"
#include "osal/proc_stats.h"
#include "runtime/function.h"

namespace rr::dag {
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

class PayloadPlaneTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Shim> AddFunction(api::Runtime& rt, const std::string& name,
                                    Location location,
                                    runtime::NativeHandler handler,
                                    runtime::WasmVm* vm = nullptr) {
    auto shim = vm ? Shim::CreateInVm(*vm, Spec(name), Binary())
                   : Shim::Create(Spec(name), Binary());
    EXPECT_TRUE(shim.ok()) << shim.status();
    EXPECT_TRUE((*shim)->Deploy(std::move(handler)).ok());
    Endpoint endpoint;
    endpoint.shim = shim->get();
    endpoint.location = std::move(location);
    EXPECT_TRUE(rt.Register(endpoint).ok());
    return std::move(*shim);
  }

  static runtime::NativeHandler ProduceBytes(size_t size) {
    return [size](ByteSpan) -> Result<Bytes> { return Bytes(size, 'p'); };
  }

  static runtime::NativeHandler AckSize() {
    return [](ByteSpan input) -> Result<Bytes> {
      Bytes ack(8);
      StoreLE<uint64_t>(ack.data(), input.size());
      return ack;
    };
  }

  // Runs src -> {b_0..b_{width-1}} over user-space hops and returns the
  // plane's copied-bytes delta for the run.
  static uint64_t FanOutCopiedBytes(size_t width, size_t payload_bytes) {
    api::Runtime rt("wf");
    runtime::WasmVm vm("wf");
    std::vector<std::unique_ptr<Shim>> shims;
    shims.push_back(
        AddFunction(rt, "src", {"n1", "vm1"}, ProduceBytes(payload_bytes), &vm));
    DagBuilder builder("fanout");
    builder.AddNode("src");
    std::vector<std::string> names;
    for (size_t i = 0; i < width; ++i) {
      names.push_back("b" + std::to_string(i));
      shims.push_back(
          AddFunction(rt, names.back(), {"n1", "vm1"}, AckSize(), &vm));
    }
    builder.FanOut("src", names);
    auto dag = builder.Build();
    EXPECT_TRUE(dag.ok()) << dag.status();

    const uint64_t copied_before = rr::Buffer::TotalBytesCopied();
    auto invocation = rt.Submit(api::DagSpec{*dag}, rr::Buffer::FromString("x"));
    EXPECT_TRUE(invocation.ok()) << invocation.status();
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    const uint64_t copied = rr::Buffer::TotalBytesCopied() - copied_before;
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), 8 * width);
    return copied;
  }
};

TEST_F(PayloadPlaneTest, UserSpaceFanOutPerformsO1PayloadCopies) {
  // The producer's output is egressed into ONE shared immutable chunk; every
  // successor reads that chunk (refcount bump + guest ingress write, which
  // is Wasm VM I/O, not a plane copy). So the plane's copied bytes must stay
  // ~one payload regardless of fan-out width — the old data plane replicated
  // the payload once per successor, O(N).
  constexpr size_t kPayload = 256 * 1024;
  const uint64_t width2 = FanOutCopiedBytes(2, kPayload);
  const uint64_t width8 = FanOutCopiedBytes(8, kPayload);

  // O(1): each run copies the payload once (the egress), plus tiny acks.
  EXPECT_LT(width2, 2 * kPayload);
  EXPECT_LT(width8, 2 * kPayload);
  // And explicitly: widening 2 -> 8 must not add payload-sized copies.
  EXPECT_LT(width8, width2 + kPayload / 2);
}

TEST_F(PayloadPlaneTest, KernelChainCopiesOnlyTheSinkEgress) {
  // a -> b over an in-process socket hop: the kernel hop (same node,
  // separate sandboxes) or the network loopback hop (another node with no
  // agent port). a's output is pumped from its linear memory straight into
  // b's, so the run's only plane copy is b's output leaving the guest as the
  // result — N bytes, not a second N for egressing a's output at the edge.
  constexpr size_t kPayload = 1 << 20;
  const struct {
    const char* name;
    Location target_location;
  } placements[] = {{"kernel", {"n1", ""}}, {"network", {"n2", ""}}};
  for (const auto& placement : placements) {
    SCOPED_TRACE(placement.name);
    api::Runtime rt("wf");
    auto a = AddFunction(rt, "a", {"n1", ""}, ProduceBytes(kPayload));
    auto b = AddFunction(rt, "b", placement.target_location,
                         [](ByteSpan input) -> Result<Bytes> {
                           return Bytes(input.begin(), input.end());
                         });

    const rr::Buffer input = rr::Buffer::FromString("x");
    const uint64_t copied_before = rr::Buffer::TotalBytesCopied();
    auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, input);
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    const uint64_t copied = rr::Buffer::TotalBytesCopied() - copied_before;
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), kPayload);
    EXPECT_EQ(copied, kPayload);
  }
}

TEST_F(PayloadPlaneTest, ZeroLengthPayloadsCrossAllThreeModes) {
  // An empty function output must survive every transfer mechanism: the
  // user-space copy, and the header-only frame over the kernel hop's
  // AF_UNIX pair and the network hop's TCP pair.
  struct ModeCase {
    const char* name;
    Location source_location;
    Location target_location;
    bool shared_vm;
  };
  const ModeCase cases[] = {
      {"user-space", {"n1", "vm1"}, {"n1", "vm1"}, true},
      {"kernel-space", {"n1", ""}, {"n1", ""}, false},
      {"network", {"n1", ""}, {"n2", ""}, false},
  };
  for (const ModeCase& mode_case : cases) {
    SCOPED_TRACE(mode_case.name);
    api::Runtime rt("wf");
    runtime::WasmVm vm("wf");
    runtime::WasmVm* shared_vm = mode_case.shared_vm ? &vm : nullptr;
    auto produce_empty = [](ByteSpan) -> Result<Bytes> { return Bytes{}; };
    auto a = AddFunction(rt, "a", mode_case.source_location, produce_empty,
                         shared_vm);
    auto b = AddFunction(rt, "b", mode_case.target_location, AckSize(),
                         shared_vm);

    // The workflow input is empty too: the source ingests zero bytes.
    auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, rr::Buffer{});
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 8u);
    EXPECT_EQ(LoadLE<uint64_t>(result->ToBytes().data()), 0u)
        << "target saw a non-empty payload";
  }
}

TEST_F(PayloadPlaneTest, ZeroLengthLegsInFanInGather) {
  // A fan-in whose predecessors produce a mix of empty and non-empty
  // payloads gathers them into one region without tripping on zero-length
  // slices.
  api::Runtime rt("wf");
  auto s1 = AddFunction(rt, "s1", {"n1", ""},
                        [](ByteSpan) -> Result<Bytes> { return Bytes{}; });
  auto s2 = AddFunction(rt, "s2", {"n1", ""},
                        [](ByteSpan) -> Result<Bytes> { return ToBytes("mid"); });
  auto s3 = AddFunction(rt, "s3", {"n1", ""},
                        [](ByteSpan) -> Result<Bytes> { return Bytes{}; });
  auto join = AddFunction(rt, "join", {"n1", ""},
                          [](ByteSpan input) -> Result<Bytes> {
                            return ToBytes("[" + std::string(AsStringView(input)) +
                                           "]");
                          });

  auto dag = DagBuilder("join-empty")
                 .AddNode("s1")
                 .AddNode("s2")
                 .AddNode("s3")
                 .FanIn({"s1", "s2", "s3"}, "join")
                 .Build();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto invocation = rt.Submit(api::DagSpec{*dag}, AsBytes("x"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "[mid]");
}

TEST_F(PayloadPlaneTest, NetworkChainCarriesPayloadLargerThanSocketBuffers) {
  // A 3 MiB frame is far larger than the loopback TCP pair's socket buffers:
  // the one thread pumping the network-mode hop must interleave sends and
  // receives, and the payload must arrive whole.
  constexpr size_t kPayload = 3 * 1024 * 1024;
  api::Runtime rt("wf");
  auto a = AddFunction(rt, "a", {"n1", ""}, ProduceBytes(kPayload));
  auto b = AddFunction(rt, "b", {"n2", ""}, [](ByteSpan input) -> Result<Bytes> {
    Bytes digest(16);
    StoreLE<uint64_t>(digest.data(), input.size());
    StoreLE<uint64_t>(digest.data() + 8, Fnv1a(input));
    return digest;
  });

  auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("go"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 16u);
  const Bytes digest = result->ToBytes();
  EXPECT_EQ(LoadLE<uint64_t>(digest.data()), kPayload);
  const Bytes expected(kPayload, 'p');
  EXPECT_EQ(LoadLE<uint64_t>(digest.data() + 8), Fnv1a(expected));
}

TEST_F(PayloadPlaneTest, HopForwardAndInvokeRunsTargetAndReleasesOnFailure) {
  // A chain node's hop delivers its predecessor's output over the kernel
  // hop, then the node invokes its target once on it. On handler failure
  // the delivered input region must be released, not leaked in the sandbox.
  api::Runtime rt("wf");
  auto src = AddFunction(rt, "src", {"n1", ""}, [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  auto ok = AddFunction(rt, "ok", {"n1", ""}, [](ByteSpan input) -> Result<Bytes> {
    return ToBytes(std::string(AsStringView(input)) + "|ok");
  });
  auto bad = AddFunction(rt, "bad", {"n1", ""}, [](ByteSpan) -> Result<Bytes> {
    return InternalError("handler exploded");
  });

  auto succeeded = rt.Submit(api::ChainSpec{{"src", "ok"}}, AsBytes("ping"));
  ASSERT_TRUE(succeeded.ok()) << succeeded.status();
  const Result<rr::Buffer>& result = (*succeeded)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "ping|ok");

  const size_t regions_before = bad->data().registered_region_count();
  auto failed = rt.Submit(api::ChainSpec{{"src", "bad"}}, AsBytes("ping"));
  ASSERT_TRUE(failed.ok()) << failed.status();
  const Result<rr::Buffer>& outcome = (*failed)->Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("handler exploded"),
            std::string::npos)
      << outcome.status();
  // The delivered input region did not leak in the failing sandbox.
  EXPECT_EQ(bad->data().registered_region_count(), regions_before);
}

TEST_F(PayloadPlaneTest, SharedInputBufferDoesNotMultiplyResidentMemory) {
  // Regression for the old api::Invocation, which deep-copied its input:
  // submitting 16 invocations of one 64 MiB buffer must share the storage
  // (refcount bumps), not hold 16 copies.
  constexpr size_t kInputBytes = 64 * 1024 * 1024;
  constexpr size_t kRuns = 16;

  api::Runtime rt("wf");
  auto sink = AddFunction(rt, "sink", {"n1", ""}, AckSize());

  rr::Buffer input = rr::Buffer::Adopt(Bytes(kInputBytes, 0x5a));
  ASSERT_EQ(input.storage_use_count(), 1);

  // Warm one run so the sandbox's arena is grown before the measurement.
  {
    auto warm = rt.Submit(api::ChainSpec{{"sink"}}, input);
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_TRUE((*warm)->Wait().ok());
  }

  const uint64_t copied_before = rr::Buffer::TotalBytesCopied();
  const uint64_t allocated_before = rr::Buffer::TotalBytesAllocated();
  const uint64_t rss_before = osal::ResidentSetBytes();

  std::vector<std::shared_ptr<api::Invocation>> invocations;
  for (size_t i = 0; i < kRuns; ++i) {
    auto invocation = rt.Submit(api::ChainSpec{{"sink"}}, input);
    ASSERT_TRUE(invocation.ok()) << invocation.status();
    invocations.push_back(std::move(*invocation));
  }
  // While queued/in flight, every invocation shares the one chunk.
  EXPECT_GT(input.storage_use_count(), 1);
  for (const auto& invocation : invocations) {
    const Result<rr::Buffer>& result = invocation->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(LoadLE<uint64_t>(result->ToBytes().data()), kInputBytes);
  }
  invocations.clear();

  // The plane neither copied nor allocated payload-scale storage at Submit:
  // only the 8-byte acks moved.
  EXPECT_LT(rr::Buffer::TotalBytesCopied() - copied_before, uint64_t{1} << 20);
  EXPECT_LT(rr::Buffer::TotalBytesAllocated() - allocated_before,
            uint64_t{1} << 20);
  // All claims released. A driver thread may still be dropping its handle to
  // the just-completed Invocation; give it a moment.
  for (int i = 0; i < 1000 && input.storage_use_count() != 1; ++i) {
    PreciseSleep(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(input.storage_use_count(), 1);

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Resident memory must not have grown by anywhere near 16 x 64 MiB = 1 GiB
  // (sanitizer builds skip this: quarantines and redzones distort RSS).
  const uint64_t rss_after = osal::ResidentSetBytes();
  const uint64_t growth = rss_after > rss_before ? rss_after - rss_before : 0;
  EXPECT_LT(growth, uint64_t{4} * kInputBytes)
      << "resident memory grew by " << growth << " bytes across " << kRuns
      << " submits of a shared " << kInputBytes << "-byte input";
#endif
}

}  // namespace
}  // namespace rr::dag
