// Channel tests: the user-space channel's transfers and trust enforcement,
// and the kernel pump and hop moving frames straight into guest memory. The
// socket hops' fault matrix is kernel_hop_test.cc; the network mode's wire
// is mux_wire_test.cc.
#include <gtest/gtest.h>

#include <thread>

#include "core/kernel_channel.h"
#include "core/payload.h"
#include "core/transport.h"
#include "core/user_channel.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

runtime::FunctionSpec Spec(const std::string& name,
                           const std::string& workflow = "wf",
                           const std::string& tenant = "default") {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = workflow;
  spec.tenant = tenant;
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

std::unique_ptr<Shim> MakeShim(const std::string& name,
                               const std::string& workflow = "wf",
                               const std::string& tenant = "default") {
  auto shim = Shim::Create(Spec(name, workflow, tenant), Binary());
  EXPECT_TRUE(shim.ok()) << shim.status();
  if (shim.ok()) {
    EXPECT_TRUE((*shim)
                    ->Deploy([](ByteSpan input) -> Result<Bytes> {
                      return Bytes(input.begin(), input.end());
                    })
                    .ok());
  }
  return shim.ok() ? std::move(*shim) : nullptr;
}

// Stages bytes as a source function's output region.
MemoryRegion Stage(Shim& shim, ByteSpan data) {
  auto addr = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(shim.data().write_memory_host(data, *addr).ok());
  return {*addr, static_cast<uint32_t>(data.size())};
}

// ---------------------------------------------------------------------------
// User space
// ---------------------------------------------------------------------------

TEST(UserChannelTest, TransfersBytesBetweenModules) {
  runtime::WasmVm vm("wf");
  auto a = Shim::CreateInVm(vm, Spec("a"), Binary());
  auto b = Shim::CreateInVm(vm, Spec("b"), Binary());
  ASSERT_TRUE(a.ok() && b.ok());

  const MemoryRegion staged = Stage(**a, AsBytes("user space bytes"));
  auto channel = UserSpaceChannel::Create(a->get(), b->get());
  ASSERT_TRUE(channel.ok()) << channel.status();
  auto delivered = channel->Transfer(staged);
  ASSERT_TRUE(delivered.ok()) << delivered.status();

  auto view = (*b)->data().read_memory_host(delivered->address,
                                            delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "user space bytes");
  EXPECT_EQ(channel->bytes_transferred(), 16u);
}

TEST(UserChannelTest, CrossWorkflowDenied) {
  auto a = MakeShim("a", "workflow-1");
  auto b = MakeShim("b", "workflow-2");
  auto channel = UserSpaceChannel::Create(a.get(), b.get());
  ASSERT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), StatusCode::kPermissionDenied);
}

TEST(UserChannelTest, CrossTenantDenied) {
  auto a = MakeShim("a", "wf", "tenant-1");
  auto b = MakeShim("b", "wf", "tenant-2");
  auto channel = UserSpaceChannel::Create(a.get(), b.get());
  ASSERT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), StatusCode::kPermissionDenied);
}

TEST(UserChannelTest, TransferAndInvokeRunsTarget) {
  runtime::WasmVm vm("wf");
  auto a = Shim::CreateInVm(vm, Spec("a"), Binary());
  auto b = Shim::CreateInVm(vm, Spec("b"), Binary());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*b)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return ToBytes("got " + std::to_string(input.size()));
                  })
                  .ok());
  const MemoryRegion staged = Stage(**a, AsBytes("12345"));
  auto channel = UserSpaceChannel::Create(a->get(), b->get());
  ASSERT_TRUE(channel.ok());
  auto outcome = channel->TransferAndInvoke(staged);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto view = (*b)->OutputView(outcome->output);
  EXPECT_EQ(AsStringView(*view), "got 5");
}

TEST(UserChannelTest, UnstagedRegionDenied) {
  runtime::WasmVm vm("wf");
  auto a = Shim::CreateInVm(vm, Spec("a"), Binary());
  auto b = Shim::CreateInVm(vm, Spec("b"), Binary());
  ASSERT_TRUE(a.ok() && b.ok());
  auto channel = UserSpaceChannel::Create(a->get(), b->get());
  ASSERT_TRUE(channel.ok());
  // Region never registered in a.
  auto delivered = channel->Transfer(MemoryRegion{1024, 64});
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), StatusCode::kPermissionDenied);
}

// ---------------------------------------------------------------------------
// Kernel space
// ---------------------------------------------------------------------------

TEST(KernelChannelTest, SegmentedBufferVectoredOverUnixSocket) {
  // The pump gathers a multi-chunk buffer onto the AF_UNIX pair as it is and
  // scatters the frame straight into the target's linear memory.
  auto ends = osal::ConnectedPair();
  ASSERT_TRUE(ends.ok()) << ends.status();
  KernelChannelPump pump(std::move(*ends), std::chrono::seconds(2),
                         TransferMode::kKernelSpace);
  auto target = MakeShim("sink");

  rr::Buffer payload = rr::Buffer::FromString("alpha|");
  payload.AppendCopy(AsBytes("beta|"));
  payload.AppendCopy(AsBytes("gamma"));
  ASSERT_EQ(payload.chunk_count(), 3u);

  auto region = target->PrepareInput(static_cast<uint32_t>(payload.size()));
  ASSERT_TRUE(region.ok()) << region.status();
  auto span = target->InputSpan(*region);
  ASSERT_TRUE(span.ok()) << span.status();
  const Status status = pump.Transfer(rr::BufferView(payload), *span);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(pump.wire_ok());
  auto received = target->OutputView(*region);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(AsStringView(*received), "alpha|beta|gamma");
}

TEST(KernelChannelTest, PlacerDeliversIntoProvidedSlice) {
  // The fan-in gather path: the kernel hop lands the frame in a caller-chosen
  // slice of a larger pre-registered region instead of a fresh allocation.
  auto source = MakeShim("a");
  auto target = MakeShim("join");
  Endpoint from;
  from.shim = source.get();
  Endpoint to;
  to.shim = target.get();
  TransportOptions options;
  options.transfer_deadline = std::chrono::seconds(2);
  auto hop = ConnectHop(TransferMode::kKernelSpace, from, to, options);
  ASSERT_TRUE(hop.ok()) << hop.status();

  const MemoryRegion gather = Stage(*target, AsBytes("0123456789"));
  const MemoryRegion slice{gather.address + 2, 5};
  const Payload payload =
      Payload::FromGuest(source.get(), Stage(*source, AsBytes("SLICE")));
  auto delivered = (*hop)->Forward(payload, *target, &slice);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(delivered->address, slice.address);

  auto whole = target->data().read_memory_host(gather.address, gather.length);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(AsStringView(*whole), "01SLICE789");
}

}  // namespace
}  // namespace rr::core
