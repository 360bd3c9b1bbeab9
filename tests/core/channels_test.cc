// Channel tests: user-space, kernel-space and network transfer in both copy
// modes, including trust enforcement and failure injection.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "core/kernel_channel.h"
#include "core/network_channel.h"
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

class KernelChannelModes : public ::testing::TestWithParam<CopyMode> {};

TEST_P(KernelChannelModes, RoundTripOverUnixSocket) {
  auto a = MakeShim("a");
  auto b = MakeShim("b");
  auto pair = MakeKernelChannelPair();
  ASSERT_TRUE(pair.ok());

  Rng rng(17);
  Bytes payload(300 * 1024);
  rng.Fill(payload);
  const MemoryRegion staged = Stage(*a, payload);

  Status send_status;
  std::thread sender([&] {
    send_status = pair->first.Send(*a, staged, GetParam());
  });
  auto delivered = pair->second.ReceiveInto(*b, GetParam());
  sender.join();
  ASSERT_TRUE(send_status.ok()) << send_status;
  ASSERT_TRUE(delivered.ok()) << delivered.status();

  auto view = b->data().read_memory_host(delivered->address, delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Fnv1a(*view), Fnv1a(payload));
  EXPECT_EQ(pair->first.bytes_sent(), payload.size());
  EXPECT_EQ(pair->second.bytes_received(), payload.size());
}

TEST_P(KernelChannelModes, TimingAttributionConsistent) {
  auto a = MakeShim("a");
  auto b = MakeShim("b");
  auto pair = MakeKernelChannelPair();
  ASSERT_TRUE(pair.ok());
  const MemoryRegion staged = Stage(*a, Bytes(1 << 20, 0x55));

  Status send_status;
  std::thread sender([&] { send_status = pair->first.Send(*a, staged, GetParam()); });
  auto delivered = pair->second.ReceiveInto(*b, GetParam());
  sender.join();
  ASSERT_TRUE(send_status.ok() && delivered.ok());

  const TransferTiming& send_timing = pair->first.last_timing();
  const TransferTiming& recv_timing = pair->second.last_timing();
  EXPECT_GT(send_timing.transfer.count(), 0);
  EXPECT_GT(recv_timing.transfer.count(), 0);
  if (GetParam() == CopyMode::kShimStaging) {
    // Staging copies must be visible as Wasm VM I/O on both sides.
    EXPECT_GT(send_timing.wasm_io.count(), 0);
    EXPECT_GT(recv_timing.wasm_io.count(), 0);
  }
}

TEST_P(KernelChannelModes, PlacementFailureDrainsTheFrameAndKeepsTheWire) {
  // The target's guest memory cannot grow past 40 pages (2.5 MiB), so the
  // 4 MiB first frame cannot be placed. Direct-guest placement happens
  // before the body is read: the receiver must consume that body, or the
  // healthy frame behind it is parsed from the middle of the refused one.
  auto target = Shim::Create(Spec("small"),
                             runtime::BuildFunctionModuleBinary(32, 40));
  ASSERT_TRUE(target.ok()) << target.status();
  auto pair = MakeKernelChannelPair();
  ASSERT_TRUE(pair.ok());
  // Bounds the sender if the receiver ever stops reading.
  ASSERT_TRUE(pair->first.SetWireDeadline(std::chrono::seconds(2)).ok());
  ASSERT_TRUE(pair->second.SetWireDeadline(std::chrono::seconds(2)).ok());
  const size_t regions_before = (*target)->data().registered_region_count();

  const Bytes oversized(4 * 1024 * 1024, 'x');
  Status refused_send;
  Status healthy_send;
  std::thread send_thread([&] {
    refused_send = pair->first.SendBytes(oversized);
    healthy_send = pair->first.SendBytes(AsBytes("healthy"));
  });
  auto refused = pair->second.ReceiveInto(**target, GetParam());
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ((*target)->data().registered_region_count(), regions_before);
  auto delivered = pair->second.ReceiveInto(**target, GetParam());
  send_thread.join();
  EXPECT_TRUE(refused_send.ok()) << refused_send;
  EXPECT_TRUE(healthy_send.ok()) << healthy_send;
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  auto view = (*target)->data().read_memory_host(delivered->address,
                                                 delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "healthy");
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelChannelModes,
                         ::testing::Values(CopyMode::kShimStaging,
                                           CopyMode::kDirectGuest));

TEST(KernelChannelTest, ListenerAcceptsNamedSocket) {
  const std::string path = "@rr-kernel-chan-" + std::to_string(::getpid());
  auto listener = KernelChannelListener::Bind(path);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto a = MakeShim("a");
  auto b = MakeShim("b");

  std::thread connector([&] {
    auto sender = KernelChannelSender::Connect(path);
    ASSERT_TRUE(sender.ok());
    const MemoryRegion staged = Stage(*a, AsBytes("via named socket"));
    ASSERT_TRUE(sender->Send(*a, staged).ok());
  });
  auto receiver = listener->Accept();
  ASSERT_TRUE(receiver.ok());
  auto delivered = receiver->ReceiveInto(*b);
  connector.join();
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  auto view = b->data().read_memory_host(delivered->address, delivered->length);
  EXPECT_EQ(AsStringView(*view), "via named socket");
}

TEST(KernelChannelTest, PeerDisappearanceSurfacesError) {
  auto b = MakeShim("b");
  auto pair = MakeKernelChannelPair();
  ASSERT_TRUE(pair.ok());
  {
    // Sender goes away mid-frame: write the header then drop the connection.
    KernelChannelSender dead = std::move(pair->first);
    (void)dead;  // destroyed here
  }
  auto delivered = pair->second.ReceiveInto(*b);
  EXPECT_FALSE(delivered.ok());
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

class NetworkChannelModes : public ::testing::TestWithParam<CopyMode> {};

TEST_P(NetworkChannelModes, RoundTripOverTcp) {
  auto a = MakeShim("a");
  auto b = MakeShim("b");
  auto listener = NetworkChannelListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto sender = NetworkChannelSender::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(sender.ok());
  auto receiver = listener->Accept();
  ASSERT_TRUE(receiver.ok());

  Rng rng(23);
  Bytes payload(2 * 1024 * 1024 + 333);
  rng.Fill(payload);
  const MemoryRegion staged = Stage(*a, payload);

  Status send_status;
  std::thread send_thread([&] {
    send_status = sender->Send(*a, staged, GetParam());
  });
  auto delivered = receiver->ReceiveInto(*b, GetParam());
  send_thread.join();
  ASSERT_TRUE(send_status.ok()) << send_status;
  ASSERT_TRUE(delivered.ok()) << delivered.status();

  auto view = b->data().read_memory_host(delivered->address, delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Fnv1a(*view), Fnv1a(payload));
}

TEST_P(NetworkChannelModes, BackToBackTransfersDoNotCorrupt) {
  // Regression guard for the vmsplice page-reuse hazard: consecutive sends
  // reusing the staging buffer must not corrupt earlier frames.
  auto a = MakeShim("a");
  auto b = MakeShim("b");
  auto listener = NetworkChannelListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto sender = NetworkChannelSender::Connect("127.0.0.1", listener->port());
  auto receiver = listener->Accept();
  ASSERT_TRUE(sender.ok() && receiver.ok());

  for (int round = 0; round < 5; ++round) {
    Bytes payload(512 * 1024, static_cast<uint8_t>('A' + round));
    const MemoryRegion staged = Stage(*a, payload);
    Status send_status;
    std::thread send_thread([&] {
      send_status = sender->Send(*a, staged, GetParam());
    });
    auto delivered = receiver->ReceiveInto(*b, GetParam());
    send_thread.join();
    ASSERT_TRUE(send_status.ok() && delivered.ok());
    auto view = b->data().read_memory_host(delivered->address, delivered->length);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(Fnv1a(*view), Fnv1a(payload)) << "round " << round;
    ASSERT_TRUE(b->ReleaseRegion(*delivered).ok());
    ASSERT_TRUE(a->data().deallocate_memory(staged.address).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, NetworkChannelModes,
                         ::testing::Values(CopyMode::kShimStaging,
                                           CopyMode::kDirectGuest));

TEST(NetworkChannelTest, ImplausibleHeaderRejected) {
  // A length no frame can have fails typed before any body byte is read;
  // trailing bytes stand in for a body the receiver must not wait for. (A
  // small length with the retired trace flag set is the same rejection:
  // TracePropagationTest.TruncatedTraceExtensionFailsCleanly.)
  auto b = MakeShim("b");
  auto listener = NetworkChannelListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto raw = osal::TcpConnect("127.0.0.1", listener->port());
  ASSERT_TRUE(raw.ok());
  auto receiver = listener->Accept();
  ASSERT_TRUE(receiver.ok());
  receiver->set_transfer_deadline(std::chrono::seconds(2));

  uint8_t frame[24] = {};
  StoreLE<uint64_t>(frame, UINT64_MAX);
  StoreLE<uint64_t>(frame + 16, 0x1234);
  ASSERT_TRUE(raw->Send(ByteSpan(frame, sizeof(frame))).ok());
  const size_t regions_before = b->data().registered_region_count();
  auto delivered = receiver->ReceiveInto(*b);
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), StatusCode::kDataLoss)
      << delivered.status();
  EXPECT_EQ(b->data().registered_region_count(), regions_before);
}

TEST(NetworkChannelTest, TinyLoopbackTransferIsNotStalled) {
  // Regression guard for the ~200 ms small-transfer stall: SPLICE_F_MORE on
  // the final chunk corked the frame behind TCP's cork timer (and the 1-byte
  // delivery ack then waited out delayed-ack interplay). A tiny transfer
  // over loopback must complete in milliseconds; 40 ms leaves generous slack
  // for a loaded CI host.
  auto a = MakeShim("a");
  auto b = MakeShim("b");
  auto listener = NetworkChannelListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto sender = NetworkChannelSender::Connect("127.0.0.1", listener->port());
  auto receiver = listener->Accept();
  ASSERT_TRUE(sender.ok() && receiver.ok());

  const Bytes payload = ToBytes("ping");
  const MemoryRegion staged = Stage(*a, payload);
  const Stopwatch timer;
  Status send_status;
  std::thread send_thread([&] { send_status = sender->Send(*a, staged); });
  auto delivered = receiver->ReceiveInto(*b);
  send_thread.join();
  const Nanos elapsed = timer.Elapsed();
  ASSERT_TRUE(send_status.ok()) << send_status;
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_LT(elapsed, std::chrono::milliseconds(40))
      << "tiny loopback transfer took " << ToMillis(elapsed) << " ms";
}

TEST(NetworkChannelTest, VirtualDataHoseReportsSpliceUse) {
  auto hose = VirtualDataHose::Create();
  ASSERT_TRUE(hose.ok());
  EXPECT_TRUE(hose->using_splice());  // this kernel supports it (probed)
}

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
