// Fault injection for the failure-hardened wire plane: every remote failure
// mode — peer death mid-body, a receiver that never acks, receiver-side
// placement failures, a stalled sender, a late (token-mismatched)
// completion — must surface as a clean, typed Status within the configured
// deadline, leak no placed guest region, and, where the protocol allows,
// leave the channel alive for the transfers behind it.
#include <gtest/gtest.h>

#include <cerrno>
#include <thread>

#include "common/rng.h"
#include "core/network_channel.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "core/workflow.h"
#include "dag/executor.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

constexpr Nanos kShortDeadline = std::chrono::milliseconds(300);
// The acceptance bound: every injected failure must surface within this.
constexpr Nanos kFailureBound = std::chrono::seconds(2);

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

std::unique_ptr<Shim> MakeShim(const std::string& name) {
  auto shim = Shim::Create(Spec(name), Binary());
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

MemoryRegion Stage(Shim& shim, ByteSpan data) {
  auto addr = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(shim.data().write_memory_host(data, *addr).ok());
  return {*addr, static_cast<uint32_t>(data.size())};
}

// A connected (NetworkChannelSender, raw peer Connection) pair: the raw side
// plays a broken receiver.
struct RawPeerChannel {
  NetworkChannelSender sender;
  osal::Connection peer;
};

Result<RawPeerChannel> MakeRawPeerChannel() {
  RR_ASSIGN_OR_RETURN(osal::TcpListener listener, osal::TcpListener::Bind(0));
  RR_ASSIGN_OR_RETURN(osal::Connection client,
                      osal::TcpConnect("127.0.0.1", listener.port()));
  RR_ASSIGN_OR_RETURN(osal::Connection peer, listener.Accept());
  RR_ASSIGN_OR_RETURN(NetworkChannelSender sender,
                      NetworkChannelSender::FromConnection(std::move(client)));
  return RawPeerChannel{std::move(sender), std::move(peer)};
}

// A connected (sender, receiver) network channel pair.
struct WirePair {
  NetworkChannelSender sender;
  NetworkChannelReceiver receiver;
};

Result<WirePair> MakeWirePair() {
  RR_ASSIGN_OR_RETURN(NetworkChannelListener listener,
                      NetworkChannelListener::Bind(0));
  RR_ASSIGN_OR_RETURN(NetworkChannelSender sender,
                      NetworkChannelSender::Connect("127.0.0.1", listener.port()));
  RR_ASSIGN_OR_RETURN(NetworkChannelReceiver receiver, listener.Accept());
  return WirePair{std::move(sender), std::move(receiver)};
}

// ---------------------------------------------------------------------------
// Sender-side deadlines (regression for the indefinite magic-ack wait)
// ---------------------------------------------------------------------------

TEST(WireFailureTest, SenderAckWaitIsBoundedWhenReceiverNeverAcks) {
  // The pre-hardening bug: a receiver that failed after reading the body
  // never sent the 1-byte ack and the sender blocked forever. The peer here
  // accepts the connection and then does nothing at all — the tiny payload
  // fits the socket buffers, so the sender reaches the ack wait.
  auto channel = MakeRawPeerChannel();
  ASSERT_TRUE(channel.ok()) << channel.status();
  channel->sender.set_transfer_deadline(kShortDeadline);

  const Stopwatch timer;
  const Status status = channel->sender.SendBytes(AsBytes("ping"));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_LT(timer.Elapsed(), kFailureBound);
}

TEST(WireFailureTest, TimedOutTransferKillsChannelSoStaleAckIsNeverMisattributed) {
  // An ack that arrives AFTER the sender's deadline expired must never be
  // consumed by the sender's next transfer (it would be mis-attributed —
  // e.g. a stale OK marking an undelivered frame as delivered). The sender
  // therefore kills the channel whenever a transfer dies without a decoded
  // ack: the follow-up send must fail typed, not "succeed" off the stale ack.
  auto channel = MakeRawPeerChannel();
  ASSERT_TRUE(channel.ok()) << channel.status();
  channel->sender.set_transfer_deadline(kShortDeadline);

  std::thread laggard([&] {
    uint8_t header[16];
    ASSERT_TRUE(channel->peer.Receive(MutableByteSpan(header, 16)).ok());
    Bytes body(4);
    ASSERT_TRUE(channel->peer.Receive(body).ok());
    // Well past the sender's deadline: a stale-but-valid OK ack.
    PreciseSleep(2 * kShortDeadline);
    const uint8_t ok_ack[4] = {0xA6, 0x00, 0x00, 0x00};
    (void)channel->peer.Send(ByteSpan(ok_ack, 4));
  });
  EXPECT_EQ(channel->sender.SendBytes(AsBytes("late")).code(),
            StatusCode::kDeadlineExceeded);
  laggard.join();
  // The owner reads this to replace the dead channel.
  EXPECT_FALSE(channel->sender.wire_ok());
  const Status followup = channel->sender.SendBytes(AsBytes("next"));
  EXPECT_FALSE(followup.ok()) << "follow-up transfer consumed a stale ack";
}

TEST(WireFailureTest, ReceiverDeathMidBodySurfacesTypedErrorQuickly) {
  auto channel = MakeRawPeerChannel();
  ASSERT_TRUE(channel.ok()) << channel.status();
  channel->sender.set_transfer_deadline(kShortDeadline);

  // Large enough that the sender cannot park the whole body in the socket
  // buffers: it is still sending when the peer dies.
  Bytes payload(8 * 1024 * 1024);
  Rng rng(7);
  rng.Fill(payload);

  std::thread killer([&] {
    uint8_t header[16];
    ASSERT_TRUE(channel->peer.Receive(MutableByteSpan(header, 16)).ok());
    Bytes some(64 * 1024);
    ASSERT_TRUE(channel->peer.Receive(some).ok());
    channel->peer.Close();  // dies mid-body
  });
  const Stopwatch timer;
  const Status status = channel->sender.SendBytes(payload);
  killer.join();
  EXPECT_FALSE(status.ok());
  // EPIPE/ECONNRESET surface as kDataLoss; a kernel that buffers the reset
  // until the deadline reports kDeadlineExceeded. Both are typed and bounded.
  EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
              status.code() == StatusCode::kDeadlineExceeded)
      << status;
  EXPECT_LT(timer.Elapsed(), kFailureBound);
}

// ---------------------------------------------------------------------------
// Status-bearing acks: receiver-side failures reach the sender typed, and a
// rejected frame leaves the channel usable
// ---------------------------------------------------------------------------

class WireRejectionModes : public ::testing::TestWithParam<CopyMode> {};

TEST_P(WireRejectionModes, PlacementFailureReachesSenderTypedAndChannelSurvives) {
  auto pair = MakeWirePair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  pair->sender.set_transfer_deadline(kFailureBound);
  pair->receiver.set_transfer_deadline(kFailureBound);
  auto target = MakeShim("sink");
  const size_t regions_before = target->data().registered_region_count();

  // Round 1: the receiver cannot place the region (a full guest heap, say).
  // kDirectGuest fails before the body leaves the wire (drain path); the
  // paper path fails after staging (already in sync). Either way the sender
  // must see the typed error and the channel must stay synchronized.
  RegionPlacer failing = [](uint32_t) -> Result<MemoryRegion> {
    return ResourceExhaustedError("guest heap full");
  };
  Status send_status;
  std::thread send_thread(
      [&] { send_status = pair->sender.SendBytes(AsBytes("doomed")); });
  auto delivered = pair->receiver.ReceiveInto(*target, GetParam(), &failing);
  send_thread.join();
  EXPECT_FALSE(delivered.ok());
  EXPECT_EQ(send_status.code(), StatusCode::kResourceExhausted) << send_status;
  EXPECT_NE(send_status.message().find("guest heap full"), std::string::npos)
      << send_status;
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
  // A decoded error ack proves the channel is synchronized: the sender must
  // NOT have killed the wire (its owner would needlessly replace it).
  EXPECT_TRUE(pair->sender.wire_ok());

  // Round 2 on the SAME channel: a healthy transfer goes through, so the
  // refusal left the channel at a frame boundary.
  Status retry_status;
  std::thread retry_thread(
      [&] { retry_status = pair->sender.SendBytes(AsBytes("healthy")); });
  auto retried = pair->receiver.ReceiveInto(*target, GetParam());
  retry_thread.join();
  ASSERT_TRUE(retry_status.ok()) << retry_status;
  ASSERT_TRUE(retried.ok()) << retried.status();
  auto view = target->data().read_memory_host(retried->address, retried->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "healthy");
}

INSTANTIATE_TEST_SUITE_P(Modes, WireRejectionModes,
                         ::testing::Values(CopyMode::kShimStaging,
                                           CopyMode::kDirectGuest));

TEST(WireFailureTest, WriteFailureAfterPlacementReleasesRegionAndAcksTyped) {
  // Paper path: placement succeeds, write_memory_host fails (the placer
  // hands back a region the target never registered). The error must reach
  // the sender typed, and the receiver must not leak anything.
  auto pair = MakeWirePair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  pair->sender.set_transfer_deadline(kFailureBound);
  pair->receiver.set_transfer_deadline(kFailureBound);
  auto target = MakeShim("sink");
  const size_t regions_before = target->data().registered_region_count();

  RegionPlacer bogus = [](uint32_t length) -> Result<MemoryRegion> {
    return MemoryRegion{0x00F00000u, length};  // never registered
  };
  Status send_status;
  std::thread send_thread(
      [&] { send_status = pair->sender.SendBytes(AsBytes("astray")); });
  auto delivered =
      pair->receiver.ReceiveInto(*target, CopyMode::kShimStaging, &bogus);
  send_thread.join();
  EXPECT_FALSE(delivered.ok());
  EXPECT_FALSE(send_status.ok());
  EXPECT_EQ(send_status.code(), delivered.status().code()) << send_status;
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
  EXPECT_TRUE(pair->sender.wire_ok());

  // A second frame on the SAME channel lands whole: the error ack left both
  // ends at a frame boundary.
  Status retry_status;
  std::thread retry_thread(
      [&] { retry_status = pair->sender.SendBytes(AsBytes("in sync")); });
  auto retried = pair->receiver.ReceiveInto(*target, CopyMode::kShimStaging);
  retry_thread.join();
  ASSERT_TRUE(retry_status.ok()) << retry_status;
  ASSERT_TRUE(retried.ok()) << retried.status();
  auto view = target->data().read_memory_host(retried->address, retried->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "in sync");
}

// ---------------------------------------------------------------------------
// Receiver-side deadlines and leak-proofing
// ---------------------------------------------------------------------------

TEST(WireFailureTest, StalledSenderBoundsReceiverAndLeaksNoRegion) {
  auto listener = NetworkChannelListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto raw_sender = osal::TcpConnect("127.0.0.1", listener->port());
  ASSERT_TRUE(raw_sender.ok());
  auto receiver = listener->Accept();
  ASSERT_TRUE(receiver.ok());
  receiver->set_transfer_deadline(kShortDeadline);

  auto target = MakeShim("sink");
  const size_t regions_before = target->data().registered_region_count();

  // Header promises 1 MiB; the body never comes. Direct-guest mode places
  // the region BEFORE the body arrives, so this exercises the RAII release.
  uint8_t header[16];
  StoreLE<uint64_t>(header, 1 << 20);
  StoreLE<uint64_t>(header + 8, 0);
  ASSERT_TRUE(raw_sender->Send(ByteSpan(header, 16)).ok());

  const Stopwatch timer;
  auto delivered = receiver->ReceiveInto(*target, CopyMode::kDirectGuest);
  EXPECT_EQ(delivered.status().code(), StatusCode::kDeadlineExceeded)
      << delivered.status();
  EXPECT_LT(timer.Elapsed(), kFailureBound);
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
}

// ---------------------------------------------------------------------------
// NodeAgent accept path (the agent's own fault matrix lives in
// mux_wire_test.cc)
// ---------------------------------------------------------------------------

TEST(WireFailureTest, TransientAcceptErrorsAreClassified) {
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(EMFILE, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ENFILE, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ECONNABORTED, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ENOMEM, "accept4")));
  EXPECT_FALSE(IsTransientAcceptError(ErrnoToStatus(EINVAL, "accept4")));
  EXPECT_FALSE(IsTransientAcceptError(ErrnoToStatus(EBADF, "accept4")));
}

// ---------------------------------------------------------------------------
// Late completions (token mismatch after timeout)
// ---------------------------------------------------------------------------

TEST(WireFailureTest, LateCompletionIsRejectedAndOrphanedOutputReleased) {
  // A remote invoke whose transfer already timed out (or was never tracked)
  // delivers a completion matching no pending token: the executor must
  // reject it with kTokenMismatch and release the orphaned output region so
  // the remote instance's heap stays bounded.
  WorkflowManager manager("wf");
  dag::DagExecutor executor(&manager, /*workers=*/2);

  auto pool = ShimPool::Create(Spec("remote"), Binary());
  ASSERT_TRUE(pool.ok());
  auto lease = (*pool)->Lease();
  ASSERT_TRUE(lease.ok());
  const MemoryRegion orphan = Stage(**lease, AsBytes("orphaned output"));
  const size_t regions_before = (*lease)->data().registered_region_count();

  const Status status = executor.DeliverOutcome(
      "remote", InvokeOutcome{orphan}, /*token=*/0xDEAD, std::move(*lease));
  EXPECT_EQ(status.code(), StatusCode::kTokenMismatch) << status;

  auto probe = (*pool)->Lease();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ((*probe)->data().registered_region_count(), regions_before - 1);
}

}  // namespace
}  // namespace rr::core
