// The agent's multiplexed wire end to end, and the NodeAgent fault matrix:
// MuxClient streams and hand-rolled raw peers against the agent. Covers
// completion frames that carry the remote *invocation* outcome (a handler
// failure fails the sender immediately, not at the delivery deadline),
// stream-fatal vs connection-fatal failure isolation (typed refusals for
// unknown functions, exhausted pools and admission caps; teardown for
// malformed frames and connections that never speak the protocol), no
// leaked guest regions after a failed invoke, flow-control window
// exhaustion surfacing typed instead of hanging, fair interleaving of small
// streams past large ones, one write per client batch, byte-exact bodies
// across short writes and across a stream that ends mid-write, the output
// reaching its consumer before the completion frame leaves, and the
// idle-connection sweep being invisible to senders (transparent reconnect).
#include <gtest/gtest.h>
#include <linux/tcp.h>
#include <netinet/in.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "common/rng.h"
#include "core/mux_client.h"
#include "core/mux_protocol.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "netsim/shaped_link.h"
#include "obs/metrics.h"
#include "osal/socket.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

// Every failure injected here must surface within this.
constexpr Nanos kFailureBound = std::chrono::seconds(2);
// Upper bound on waiting for an expected completion callback.
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

Result<std::shared_ptr<ShimPool>> MakePool(const std::string& name,
                                           runtime::NativeHandler handler,
                                           size_t instances = 2) {
  runtime::PoolOptions options;
  options.min_warm = instances;
  options.max_instances = instances;
  RR_ASSIGN_OR_RETURN(std::shared_ptr<ShimPool> pool,
                      ShimPool::Create(Spec(name), Binary(), {}, options));
  RR_RETURN_IF_ERROR(pool->Deploy(std::move(handler)));
  return pool;
}

// One stream's completion, deliverable from the reactor thread after the
// test body may have failed an ASSERT: heap-allocated and shared with the
// done callback so a late fire never touches a dead stack frame.
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

  Status Get() {
    std::lock_guard<std::mutex> lock(mutex);
    return status;
  }
};

std::shared_ptr<osal::Reactor> TestReactor() {
  auto reactor = osal::Reactor::Start("mux-test");
  EXPECT_TRUE(reactor.ok()) << reactor.status();
  return reactor.ok() ? *reactor : nullptr;
}

// Registered guest regions summed over every instance of `pool`. Leases all
// of them at once, so each instance is counted exactly once.
size_t PoolRegionCount(ShimPool& pool, size_t instances) {
  std::vector<ShimLease> leases;
  size_t total = 0;
  for (size_t i = 0; i < instances; ++i) {
    auto lease = pool.Lease();
    EXPECT_TRUE(lease.ok()) << lease.status();
    if (!lease.ok()) break;
    total += (*lease)->data().registered_region_count();
    leases.push_back(std::move(*lease));
  }
  return total;
}

TEST(NodeAgentTest, RoutesTransferToNamedFunction) {
  // Declared before the agent, so they outlive its invoke workers even when
  // an assertion returns early.
  std::mutex mutex;
  std::string delivered_payload;
  uint64_t delivered_token = 0;

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("resize", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)
                  ->RegisterFunction(
                      *pool,
                      [&](const std::string&, InvokeOutcome outcome,
                          uint64_t token, ShimLease instance) {
                        auto view = instance->OutputView(outcome.output);
                        std::lock_guard<std::mutex> lock(mutex);
                        delivered_payload = std::string(AsStringView(*view));
                        delivered_token = token;
                        (void)instance->ReleaseRegion(outcome.output);
                      })
                  .ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());
  auto done = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("resize", rr::Buffer::FromString("frame-bytes"),
                                /*token=*/7, kFailureBound, done->Arm(done))
                  .ok());
  ASSERT_TRUE(done->WaitFor(kEventBound));
  ASSERT_TRUE(done->Get().ok()) << done->Get();

  // The agent runs the delivery callback before it queues the completion
  // frame, so the payload is already recorded; the poll only guards against
  // a regression of that order turning into a flake.
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!delivered_payload.empty()) break;
    }
    PreciseSleep(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(delivered_payload, "frame-bytes");
    EXPECT_EQ(delivered_token, 7u);
  }
  EXPECT_EQ((*agent)->transfers_completed(), 1u);

  client->Close();
  (*agent)->Shutdown();
}

TEST(NodeAgentTest, MultipleTransfersOnOneChannel) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("sink", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());
  for (uint64_t i = 0; i < 5; ++i) {
    auto done = std::make_shared<Completion>();
    ASSERT_TRUE(client
                    ->StartStream("sink",
                                  rr::Buffer::FromString(
                                      "payload-" + std::to_string(i)),
                                  /*token=*/i + 1, kFailureBound,
                                  done->Arm(done))
                    .ok());
    ASSERT_TRUE(done->WaitFor(kEventBound)) << "round " << i;
    ASSERT_TRUE(done->Get().ok()) << "round " << i << ": " << done->Get();
  }
  // Every transfer rode the one connection the first stream opened.
  EXPECT_TRUE(client->connected());
  EXPECT_EQ((*agent)->active_connections(), 1u);
  EXPECT_EQ((*agent)->transfers_completed(), 5u);

  client->Close();
  (*agent)->Shutdown();
}

TEST(NodeAgentTest, OutputIsDeliveredBeforeItsCompletionFrame) {
  // Deliver, then acknowledge: the sender's `done` fires only after the
  // delivery callback returned, however long the consumer takes. Shared
  // with both callbacks so a late fire never touches a dead stack frame.
  auto delivered = std::make_shared<std::atomic<bool>>(false);
  auto seen_at_done = std::make_shared<std::atomic<bool>>(false);

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("slow-consumer", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)
                  ->RegisterFunction(
                      *pool,
                      [delivered](const std::string&, InvokeOutcome outcome,
                                  uint64_t, ShimLease instance) {
                        (void)instance->ReleaseRegion(outcome.output);
                        PreciseSleep(std::chrono::milliseconds(50));
                        delivered->store(true);
                      })
                  .ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());
  auto done = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("slow-consumer",
                                rr::Buffer::FromString("result"),
                                /*token=*/1, kFailureBound,
                                [delivered, seen_at_done,
                                 fire = done->Arm(done)](Status status) {
                                  seen_at_done->store(delivered->load());
                                  fire(std::move(status));
                                })
                  .ok());
  ASSERT_TRUE(done->WaitFor(kEventBound));
  ASSERT_TRUE(done->Get().ok()) << done->Get();
  EXPECT_TRUE(seen_at_done->load())
      << "the completion frame left before the output was delivered";
  EXPECT_EQ((*agent)->transfers_completed(), 1u);

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, ConcurrentStreamsRoundTripWithCompletionFrames) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  constexpr size_t kStreams = 8;
  std::vector<std::shared_ptr<Completion>> done;
  for (size_t i = 0; i < kStreams; ++i) {
    auto completion = std::make_shared<Completion>();
    const Status started = client->StartStream(
        "echo", rr::Buffer::FromString("stream-" + std::to_string(i)),
        /*token=*/i + 1, kFailureBound, completion->Arm(completion));
    ASSERT_TRUE(started.ok()) << started;
    done.push_back(std::move(completion));
  }
  for (size_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE(done[i]->WaitFor(kEventBound)) << "stream " << i << " hung";
    EXPECT_TRUE(done[i]->Get().ok()) << "stream " << i << ": " << done[i]->Get();
  }
  EXPECT_EQ((*agent)->transfers_completed(), kStreams);
  EXPECT_EQ(client->streams_in_flight(), 0u);
  EXPECT_TRUE(client->connected());

  // The agent-side stream gauge drains back to zero once every completion
  // frame is on the wire.
  obs::Gauge* streams =
      obs::Registry::Get().gauge("rr_agent_streams_in_flight");
  ASSERT_NE(streams, nullptr);
  bool drained = false;
  for (int attempt = 0; attempt < 100 && !drained; ++attempt) {
    drained = streams->Value() == 0;
    if (!drained) PreciseSleep(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained) << streams->Value() << " streams still gauged";

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StreamFailureLeavesConcurrentStreamsUnharmed) {
  // Stream-fatal is not connection-fatal: one stream's handler rejection
  // rides back as an error completion frame while its neighbours — already
  // interleaved on the same connection — complete untouched.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool(
      "picky",
      [](ByteSpan input) -> Result<Bytes> {
        if (AsStringView(input) == "poison") {
          return InternalError("handler rejected input");
        }
        return Bytes(input.begin(), input.end());
      },
      /*instances=*/3);
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto poisoned = std::make_shared<Completion>();
  auto healthy_b = std::make_shared<Completion>();
  auto healthy_c = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("poison"),
                                /*token=*/1, kFailureBound,
                                poisoned->Arm(poisoned))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("fine"),
                                /*token=*/2, kFailureBound,
                                healthy_b->Arm(healthy_b))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("also-fine"),
                                /*token=*/3, kFailureBound,
                                healthy_c->Arm(healthy_c))
                  .ok());

  ASSERT_TRUE(poisoned->WaitFor(kEventBound));
  ASSERT_TRUE(healthy_b->WaitFor(kEventBound));
  ASSERT_TRUE(healthy_c->WaitFor(kEventBound));
  EXPECT_EQ(poisoned->Get().code(), StatusCode::kInternal) << poisoned->Get();
  EXPECT_NE(poisoned->Get().message().find("handler rejected input"),
            std::string::npos)
      << poisoned->Get();
  EXPECT_TRUE(healthy_b->Get().ok()) << healthy_b->Get();
  EXPECT_TRUE(healthy_c->Get().ok()) << healthy_c->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 2u);
  EXPECT_TRUE(client->connected());

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, InvokeFailureKeepsConnectionAliveAndLeaksNoRegion) {
  // One instance, one connection, two streams back to back: the first
  // stream's input lands but its invoke fails agent-side. The completion
  // frame reports that failure, the same connection serves the next stream,
  // and the failed invoke's input region goes back rather than leaking.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool(
      "picky",
      [](ByteSpan input) -> Result<Bytes> {
        if (AsStringView(input) == "poison") {
          return InternalError("handler rejected input");
        }
        return Bytes(input.begin(), input.end());
      },
      /*instances=*/1);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const size_t regions_before = PoolRegionCount(**pool, 1);
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto poisoned = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("poison"),
                                /*token=*/1, kFailureBound,
                                poisoned->Arm(poisoned))
                  .ok());
  ASSERT_TRUE(poisoned->WaitFor(kEventBound)) << "failed invoke hung";
  EXPECT_EQ(poisoned->Get().code(), StatusCode::kInternal) << poisoned->Get();

  auto fine = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("picky", rr::Buffer::FromString("fine"),
                                /*token=*/2, kFailureBound, fine->Arm(fine))
                  .ok());
  ASSERT_TRUE(fine->WaitFor(kEventBound)) << "stream after failure hung";
  EXPECT_TRUE(fine->Get().ok()) << fine->Get();
  EXPECT_TRUE(client->connected());
  EXPECT_EQ((*agent)->active_connections(), 1u);

  client->Close();
  // Shutdown joins the invoke workers, so the lease (and the output the
  // agent released after its completion frame) is back before the audit.
  (*agent)->Shutdown();
  EXPECT_EQ((*agent)->transfers_completed(), 1u);
  EXPECT_EQ(PoolRegionCount(**pool, 1), regions_before);
}

TEST(MuxWireTest, UnknownFunctionFailsTypedAndConnectionSurvives) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto ghost = std::make_shared<Completion>();
  const Stopwatch timer;
  ASSERT_TRUE(client
                  ->StartStream("ghost", rr::Buffer::FromString("lost"),
                                /*token=*/1, kFailureBound, ghost->Arm(ghost))
                  .ok());
  ASSERT_TRUE(ghost->WaitFor(kEventBound));
  EXPECT_EQ(ghost->Get().code(), StatusCode::kNotFound) << ghost->Get();
  EXPECT_LT(timer.Elapsed(), kFailureBound);

  // Same connection, registered function: the refusal was stream-fatal only.
  auto echo = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("still-here"),
                                /*token=*/2, kFailureBound, echo->Arm(echo))
                  .ok());
  ASSERT_TRUE(echo->WaitFor(kEventBound));
  EXPECT_TRUE(echo->Get().ok()) << echo->Get();

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, PoolExhaustedAgentRefusesStreamTypedAndRecovers) {
  // The stream stages fully, but the pool's only instance is held elsewhere:
  // the invoke worker's lease times out and the stream fails typed
  // (kResourceExhausted) — stream-fatal, with the connection serving the
  // next stream once the instance is back.
  NodeAgent::Options options;
  options.transfer_deadline = kFailureBound;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();

  runtime::PoolOptions pool_options;
  pool_options.min_warm = 1;
  pool_options.max_instances = 1;
  pool_options.acquire_timeout = std::chrono::milliseconds(50);
  auto pool = ShimPool::Create(Spec("choked"), Binary(), {}, pool_options);
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*pool)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  {
    // Occupy the pool's only instance: the agent cannot serve the stream.
    auto hog = (*pool)->Lease();
    ASSERT_TRUE(hog.ok()) << hog.status();

    auto starved = std::make_shared<Completion>();
    const Stopwatch timer;
    ASSERT_TRUE(client
                    ->StartStream("choked", rr::Buffer::FromString("starved"),
                                  /*token=*/1, kFailureBound,
                                  starved->Arm(starved))
                    .ok());
    ASSERT_TRUE(starved->WaitFor(kEventBound)) << "refused stream hung";
    EXPECT_EQ(starved->Get().code(), StatusCode::kResourceExhausted)
        << starved->Get();
    EXPECT_NE(starved->Get().message().find("no instance available"),
              std::string::npos)
        << starved->Get();
    EXPECT_LT(timer.Elapsed(), kFailureBound);
  }
  EXPECT_EQ((*agent)->transfers_refused(), 1u);
  EXPECT_EQ((*agent)->transfers_completed(), 0u);

  // The instance is back and the SAME connection serves the next stream: the
  // refusal degraded one transfer, not the connection.
  auto recovered = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("choked", rr::Buffer::FromString("recovered"),
                                /*token=*/2, kFailureBound,
                                recovered->Arm(recovered))
                  .ok());
  ASSERT_TRUE(recovered->WaitFor(kEventBound));
  EXPECT_TRUE(recovered->Get().ok()) << recovered->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 1u);
  EXPECT_TRUE(client->connected());

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, SmallStreamCompletesWhileLargeStreamDrains) {
  // Fair round-robin chunking: a multi-MiB stream occupies the wire one
  // 64 KiB quantum per turn, so a tiny stream opened after it interleaves,
  // invokes, and completes while the big body is still draining.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("drain", [](ByteSpan) -> Result<Bytes> {
    return Bytes{1};
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  std::mutex order_mutex;
  std::vector<std::string> order;
  auto record = [&order_mutex, &order](const std::string& name,
                                       std::shared_ptr<Completion> completion) {
    return [&order_mutex, &order, name,
            completion = std::move(completion)](Status status) {
      {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(name);
      }
      {
        std::lock_guard<std::mutex> lock(completion->mutex);
        completion->fired = true;
        completion->status = std::move(status);
      }
      completion->cv.notify_all();
    };
  };

  Bytes big_bytes(4 * 1024 * 1024);
  Rng rng(11);
  rng.Fill(big_bytes);
  auto big = std::make_shared<Completion>();
  auto small = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("drain", rr::Buffer::Adopt(std::move(big_bytes)),
                                /*token=*/1, kEventBound, record("big", big))
                  .ok());
  ASSERT_TRUE(client
                  ->StartStream("drain", rr::Buffer::FromString("wee"),
                                /*token=*/2, kEventBound, record("small", small))
                  .ok());

  ASSERT_TRUE(small->WaitFor(kEventBound));
  ASSERT_TRUE(big->WaitFor(kEventBound));
  EXPECT_TRUE(small->Get().ok()) << small->Get();
  EXPECT_TRUE(big->Get().ok()) << big->Get();
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "small")
        << "the big stream head-of-line-blocked the small one";
  }

  client->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, SmallStreamLeavesInOneSegment) {
  // One write per batch: a raw listener stands in for the agent and counts
  // the TCP segments the client's writes arrived in. The preamble is one
  // (written at connect); a small stream's open frame, data header and body
  // must be one more.
  auto listener = osal::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", listener->port());

  const std::string function = "sink";
  constexpr size_t kBody = 1024;
  Bytes body(kBody);
  Rng rng(5);
  rng.Fill(body);
  auto done = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream(function, rr::Buffer::Copy(body),
                                /*token=*/1, kFailureBound, done->Arm(done))
                  .ok());
  auto peer = listener->Accept();
  ASSERT_TRUE(peer.ok()) << peer.status();

  // Untraced: the open frame carries no trace extension.
  const size_t open_len = 18 + function.size();
  Bytes got(kMuxPreambleBytes + kMuxFrameHeaderBytes + open_len +
            kMuxFrameHeaderBytes + kBody);
  ASSERT_TRUE(peer->SetIoTimeouts(kEventBound).ok());
  ASSERT_TRUE(peer->Receive(got).ok());
  const uint8_t* open = got.data() + kMuxPreambleBytes;
  EXPECT_EQ(DecodeMuxFrameHeader(open).type, kMuxFrameOpen);
  const uint8_t* data = open + kMuxFrameHeaderBytes + open_len;
  const MuxFrameHeader data_header = DecodeMuxFrameHeader(data);
  EXPECT_EQ(data_header.type, kMuxFrameData);
  EXPECT_EQ(data_header.payload_length, kBody);
  EXPECT_EQ(std::memcmp(data + kMuxFrameHeaderBytes, body.data(), kBody), 0);

  tcp_info info{};
  socklen_t info_len = sizeof(info);
  ASSERT_EQ(::getsockopt(peer->fd(), IPPROTO_TCP, TCP_INFO, &info, &info_len),
            0);
  EXPECT_EQ(info.tcpi_data_segs_in, 2u)
      << "preamble + one write expected; each extra segment is a frame part "
         "written on its own";

  client->Close();
  ASSERT_TRUE(done->WaitFor(kEventBound));
}

TEST(MuxWireTest, MixedSizeConcurrentStreamsArriveByteExact) {
  // Bodies straddling the quantum and the window, started from three
  // threads on one connection, drain as interleaved batches. Each thread
  // starts every size kRounds times, so the streams' open windows exceed
  // what the sockets buffer, and a shaped relay between client and agent
  // reads slower than the client writes: the client's socket fills and
  // takes batches in short writes ending anywhere inside a frame. The
  // agent's handler hashes its input; every token's hash must be the
  // sender's.
  constexpr size_t kThreads = 3;
  constexpr size_t kRounds = 4;
  const std::vector<size_t> sizes = {0,     1,          1023,
                                     65535, 65536,      65537,
                                     300 * 1024, 1024 * 1024};
  struct Hashes {
    std::mutex mutex;
    std::map<uint64_t, uint64_t> by_token;
  };
  auto received = std::make_shared<Hashes>();

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("hash", [](ByteSpan input) -> Result<Bytes> {
    Bytes out(8);
    StoreLE<uint64_t>(out.data(), Fnv1a(input));
    return out;
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)
                  ->RegisterFunction(
                      *pool,
                      [received](const std::string&, InvokeOutcome outcome,
                                 uint64_t token, ShimLease instance) {
                        auto view = instance->OutputView(outcome.output);
                        const uint64_t hash =
                            view.ok() && view->size() == 8
                                ? LoadLE<uint64_t>(view->data())
                                : 0;
                        (void)instance->ReleaseRegion(outcome.output);
                        std::lock_guard<std::mutex> lock(received->mutex);
                        received->by_token[token] = hash;
                      })
                  .ok());

  netsim::LinkConfig shaping;
  shaping.bandwidth_bytes_per_sec = 100e6;
  shaping.one_way_delay = Nanos(0);
  shaping.chunk_bytes = 4093;  // odd-sized relay reads
  shaping.buffer_bytes = 64 * 1024;
  auto link = netsim::ShapedLink::Start((*agent)->port(), shaping);
  ASSERT_TRUE(link.ok()) << link.status();

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*link)->port());

  std::mutex sent_mutex;
  std::map<uint64_t, uint64_t> sent;  // token -> hash of the body
  std::vector<std::shared_ptr<Completion>> done(kThreads * kRounds *
                                               sizes.size());
  std::vector<std::thread> starters;
  for (size_t t = 0; t < kThreads; ++t) {
    starters.emplace_back([&, t] {
      Rng rng(100 + t);
      for (size_t i = 0; i < kRounds * sizes.size(); ++i) {
        const size_t slot = t * kRounds * sizes.size() + i;
        const uint64_t token = slot + 1;
        Bytes body(sizes[i % sizes.size()]);
        rng.Fill(body);
        {
          std::lock_guard<std::mutex> lock(sent_mutex);
          sent[token] = Fnv1a(body);
        }
        done[slot] = std::make_shared<Completion>();
        const Status started = client->StartStream(
            "hash", rr::Buffer::Adopt(std::move(body)), token, kEventBound,
            done[slot]->Arm(done[slot]));
        EXPECT_TRUE(started.ok()) << started;
      }
    });
  }
  for (std::thread& starter : starters) starter.join();
  for (size_t slot = 0; slot < done.size(); ++slot) {
    ASSERT_TRUE(done[slot]->WaitFor(kEventBound)) << "token " << slot + 1;
    EXPECT_TRUE(done[slot]->Get().ok())
        << "token " << slot + 1 << ": " << done[slot]->Get();
  }
  {
    std::lock_guard<std::mutex> lock(received->mutex);
    EXPECT_EQ(received->by_token.size(), sent.size());
    for (const auto& [token, hash] : sent) {
      const auto it = received->by_token.find(token);
      ASSERT_NE(it, received->by_token.end()) << "token " << token;
      EXPECT_EQ(it->second, hash) << "token " << token << " arrived altered";
    }
  }

  client->Close();
  (*link)->Shutdown();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StreamEndedMidWriteStillLeavesItsWholeQuantum) {
  // A stream can end (here: a typed refusal) while the batch carrying its
  // quantum waits behind a full socket. The batch keeps the payload alive
  // and writes the quantum whole, so the wire stays framed and every byte on
  // it is the sender's. A raw peer plays the agent and reads nothing until
  // every stream is refused; the streams' open windows (48 x 256 KiB) exceed
  // what the two socket buffers hold, so the client's pump stops at EAGAIN
  // with a batch in flight.
  constexpr uint32_t kStreams = 48;
  constexpr size_t kBody = kMuxInitialWindow;
  auto listener = osal::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", listener->port());

  std::vector<Bytes> bodies(kStreams, Bytes(kBody));
  std::vector<std::shared_ptr<Completion>> done(kStreams);
  std::optional<osal::Connection> peer;
  for (uint32_t i = 0; i < kStreams; ++i) {
    Rng rng(200 + i);
    rng.Fill(bodies[i]);
    done[i] = std::make_shared<Completion>();
    // The stream holds the only reference to its copy of the body.
    ASSERT_TRUE(client
                    ->StartStream("sink", rr::Buffer::Copy(bodies[i]),
                                  /*token=*/i + 1, kEventBound,
                                  done[i]->Arm(done[i]))
                    .ok());
    if (!peer.has_value()) {
      auto accepted = listener->Accept();
      ASSERT_TRUE(accepted.ok()) << accepted.status();
      peer = std::move(*accepted);
    }
  }

  // Stream ids count from 1 on a fresh client.
  for (uint32_t id = 1; id <= kStreams; ++id) {
    MuxFrameHeader h;
    h.type = kMuxFrameCompletion;
    h.stream_id = id;
    h.aux = static_cast<uint32_t>(StatusCode::kResourceExhausted);
    uint8_t frame[kMuxFrameHeaderBytes];
    EncodeMuxFrameHeader(h, frame);
    ASSERT_TRUE(peer->Send(ByteSpan(frame, sizeof(frame))).ok());
  }
  for (uint32_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE(done[i]->WaitFor(kEventBound)) << "stream " << i + 1;
    EXPECT_EQ(done[i]->Get().code(), StatusCode::kResourceExhausted);
  }

  // Drain what the client still writes: until it goes quiet at a frame
  // boundary, or the bound passes (a wire that ends inside a frame then
  // fails the checks below).
  Bytes wire;
  const auto ends_at_frame_boundary = [&wire] {
    size_t at = kMuxPreambleBytes;
    while (at + kMuxFrameHeaderBytes <= wire.size()) {
      at += kMuxFrameHeaderBytes +
            DecodeMuxFrameHeader(wire.data() + at).payload_length;
    }
    return at == wire.size();
  };
  uint8_t buf[64 * 1024];
  const TimePoint give_up = Now() + kEventBound;
  while (Now() < give_up) {
    if (!osal::WaitReadable(peer->fd(), Now() + std::chrono::milliseconds(300))
             .ok()) {
      if (ends_at_frame_boundary()) break;
      continue;
    }
    auto n = peer->ReceiveSome(MutableByteSpan(buf, sizeof(buf)));
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    wire.insert(wire.end(), buf, buf + *n);
  }
  ASSERT_GE(wire.size(), kMuxPreambleBytes);
  std::vector<bool> opened(kStreams, false);
  std::vector<size_t> offset(kStreams, 0);
  size_t data_frames = 0;
  size_t at = kMuxPreambleBytes;
  while (at < wire.size()) {
    ASSERT_LE(at + kMuxFrameHeaderBytes, wire.size())
        << "the wire ends inside a frame header";
    const MuxFrameHeader h = DecodeMuxFrameHeader(wire.data() + at);
    at += kMuxFrameHeaderBytes;
    ASSERT_LE(at + h.payload_length, wire.size())
        << "the wire ends inside a frame";
    ASSERT_GE(h.stream_id, 1u);
    ASSERT_LE(h.stream_id, kStreams);
    const size_t s = h.stream_id - 1;
    if (h.type == kMuxFrameOpen) {
      opened[s] = true;
    } else {
      ASSERT_EQ(h.type, kMuxFrameData);
      ASSERT_TRUE(opened[s]) << "data before its open frame";
      ASSERT_LE(offset[s] + h.payload_length, kBody);
      EXPECT_EQ(std::memcmp(wire.data() + at, bodies[s].data() + offset[s],
                            h.payload_length),
                0)
          << "stream " << h.stream_id << " at offset " << offset[s];
      offset[s] += h.payload_length;
      ++data_frames;
    }
    at += h.payload_length;
  }
  EXPECT_GT(data_frames, 0u);

  client->Close();
}

TEST(MuxWireTest, WindowExhaustionStallsThenFailsTypedNotHung) {
  // A peer that accepts bytes but never grants window updates: the stream
  // sends exactly its initial window, leaves the send ring (counted as a
  // stall), and the progress deadline fails it typed — no hang, no busy
  // spin on the wire.
  auto listener = osal::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", listener->port());

  obs::Counter* stalls =
      obs::Registry::Get().counter("rr_agent_stream_stalls_total");
  ASSERT_NE(stalls, nullptr);
  const uint64_t stalls_before = stalls->Value();

  auto completion = std::make_shared<Completion>();
  Bytes payload(kMuxInitialWindow + 1024);
  Rng rng(13);
  rng.Fill(payload);
  const Stopwatch timer;
  ASSERT_TRUE(client
                  ->StartStream("sink", rr::Buffer::Adopt(std::move(payload)),
                                /*token=*/1, std::chrono::milliseconds(300),
                                completion->Arm(completion))
                  .ok());

  // The mute peer drains whatever the client sends so TCP backpressure never
  // masks the flow-control stall, but it grants nothing back.
  auto peer = listener->Accept();
  ASSERT_TRUE(peer.ok()) << peer.status();
  std::thread mute_reader([&peer] {
    Bytes sink(64 * 1024);
    for (;;) {
      auto n = peer->ReceiveSome(sink);
      if (!n.ok() || *n == 0) return;
    }
  });

  ASSERT_TRUE(completion->WaitFor(kEventBound)) << "stalled stream hung";
  EXPECT_EQ(completion->Get().code(), StatusCode::kDeadlineExceeded)
      << completion->Get();
  EXPECT_LT(timer.Elapsed(), kFailureBound);
  EXPECT_GT(stalls->Value(), stalls_before)
      << "window exhaustion was never counted as a stall";

  // Close the client first: its FIN ends the mute reader's blocking receive,
  // so the peer connection is only closed after its reader thread is done
  // touching it.
  client->Close();
  mute_reader.join();
  peer->Close();
}

TEST(MuxWireTest, IdleConnectionSweptAndNextStreamReconnects) {
  NodeAgent::Options options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto reactor = TestReactor();
  ASSERT_NE(reactor, nullptr);
  auto client = MuxClient::Create(reactor, "127.0.0.1", (*agent)->port());

  auto first = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("one"),
                                /*token=*/1, kFailureBound, first->Arm(first))
                  .ok());
  ASSERT_TRUE(first->WaitFor(kEventBound));
  ASSERT_TRUE(first->Get().ok()) << first->Get();
  EXPECT_EQ((*agent)->active_connections(), 1u);

  // Nothing in flight: the agent sweeps the connection, and the client
  // observes the close.
  bool swept = false;
  for (int attempt = 0; attempt < 300 && !swept; ++attempt) {
    swept = (*agent)->active_connections() == 0 && !client->connected();
    if (!swept) PreciseSleep(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(swept) << "idle connection never swept: "
                     << (*agent)->active_connections() << " live, connected="
                     << client->connected();

  // The sweep is invisible to the sender: the next stream reconnects inline
  // and completes.
  auto second = std::make_shared<Completion>();
  ASSERT_TRUE(client
                  ->StartStream("echo", rr::Buffer::FromString("two"),
                                /*token=*/2, kFailureBound,
                                second->Arm(second))
                  .ok());
  ASSERT_TRUE(second->WaitFor(kEventBound));
  EXPECT_TRUE(second->Get().ok()) << second->Get();
  EXPECT_EQ((*agent)->transfers_completed(), 2u);

  client->Close();
  (*agent)->Shutdown();
}

// ---------------------------------------------------------------------------
// Raw-wire admission and flow-control enforcement: a hand-rolled peer that
// speaks the mux dialect byte by byte, so the tests control exactly what hits
// the agent — including frames MuxClient would never send.
// ---------------------------------------------------------------------------

// Dials the agent and announces the mux dialect.
Result<osal::Connection> DialMux(uint16_t port) {
  RR_ASSIGN_OR_RETURN(osal::Connection conn,
                      osal::TcpConnect("127.0.0.1", port));
  uint8_t preamble[kMuxPreambleBytes];
  StoreLE<uint16_t>(preamble, kMuxPreambleMagic);
  preamble[2] = kMuxVersion;
  preamble[3] = 0;
  RR_RETURN_IF_ERROR(conn.Send(ByteSpan(preamble, sizeof(preamble))));
  return conn;
}

Bytes EncodeRawOpen(uint32_t stream_id, uint64_t token, uint64_t body_len,
                    const std::string& function) {
  const size_t payload = 8 + 8 + 2 + function.size();
  Bytes frame(kMuxFrameHeaderBytes + payload);
  MuxFrameHeader h;
  h.type = kMuxFrameOpen;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(payload);
  EncodeMuxFrameHeader(h, frame.data());
  uint8_t* p = frame.data() + kMuxFrameHeaderBytes;
  StoreLE<uint64_t>(p, token);
  StoreLE<uint64_t>(p + 8, body_len);
  StoreLE<uint16_t>(p + 16, static_cast<uint16_t>(function.size()));
  std::memcpy(p + 18, function.data(), function.size());
  return frame;
}

Bytes EncodeRawData(uint32_t stream_id, ByteSpan chunk) {
  Bytes frame(kMuxFrameHeaderBytes + chunk.size());
  MuxFrameHeader h;
  h.type = kMuxFrameData;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(chunk.size());
  EncodeMuxFrameHeader(h, frame.data());
  std::memcpy(frame.data() + kMuxFrameHeaderBytes, chunk.data(), chunk.size());
  return frame;
}

Bytes EncodeRawCancel(uint32_t stream_id) {
  Bytes frame(kMuxFrameHeaderBytes);
  MuxFrameHeader h;
  h.type = kMuxFrameCancel;
  h.stream_id = stream_id;
  EncodeMuxFrameHeader(h, frame.data());
  return frame;
}

struct RawCompletion {
  uint32_t stream_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string detail;
};

// Reads agent->sender frames until a completion arrives (window updates for
// other streams are skipped — they carry no payload).
Result<RawCompletion> ReadCompletion(osal::Connection& conn) {
  for (;;) {
    uint8_t header[kMuxFrameHeaderBytes];
    RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(header, sizeof(header))));
    const MuxFrameHeader h = DecodeMuxFrameHeader(header);
    if (h.type == kMuxFrameWindowUpdate) continue;
    if (h.type != kMuxFrameCompletion) {
      return InternalError("unexpected agent frame type " +
                           std::to_string(static_cast<int>(h.type)));
    }
    RawCompletion out;
    out.stream_id = h.stream_id;
    out.code = static_cast<StatusCode>(h.aux);
    out.detail.resize(h.payload_length);
    if (h.payload_length > 0) {
      RR_RETURN_IF_ERROR(conn.Receive(MutableByteSpan(
          reinterpret_cast<uint8_t*>(out.detail.data()), out.detail.size())));
    }
    return out;
  }
}

TEST(MuxWireTest, HugeDeclaredBodyRefusedAtOpenWithoutReservation) {
  // The open frame declares body length; the agent must treat it as a
  // *commitment to refuse*, not a buffer to allocate. A protocol-plausible
  // 1 GiB declaration (under kMuxMaxBodyBytes, far over the staging
  // cap) in a 40-byte frame gets a typed kResourceExhausted completion
  // immediately — stream-fatal only, with the connection still serving real
  // transfers.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(1, /*token=*/1, uint64_t{1} << 30, "echo"))
          .ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 1u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("staging capacity"), std::string::npos)
      << refused->detail;
  EXPECT_EQ((*agent)->transfers_refused(), 1u);

  // Same connection: a sane stream still opens, stages, invokes, completes.
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, /*token=*/2, 5, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(2, AsBytes("hello"))).ok());
  auto ok = ReadCompletion(*conn);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->stream_id, 2u);
  EXPECT_EQ(ok->code, StatusCode::kOk) << ok->detail;
  EXPECT_EQ((*agent)->transfers_completed(), 1u);

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StreamTableCapRefusesOpensTyped) {
  // Stream table entries are not free to mint: opens past max_conn_streams
  // are refused typed, and draining a stream frees its slot.
  NodeAgent::Options options;
  options.max_conn_streams = 2;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  // Two streams stage (bodies incomplete) and pin the table.
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, 1, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, 2, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(3, 3, 1, "echo")).ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 3u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("concurrent streams"), std::string::npos)
      << refused->detail;
  EXPECT_EQ((*agent)->transfers_refused(), 1u);

  // Finishing stream 1 frees its slot; the connection keeps serving.
  ASSERT_TRUE(conn->Send(EncodeRawData(1, Bytes(100, 0x5a))).ok());
  auto done = ReadCompletion(*conn);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->stream_id, 1u);
  EXPECT_EQ(done->code, StatusCode::kOk) << done->detail;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(4, 4, 1, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(4, AsBytes("x"))).ok());
  auto fourth = ReadCompletion(*conn);
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(fourth->stream_id, 4u);
  EXPECT_EQ(fourth->code, StatusCode::kOk) << fourth->detail;

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, StalledStreamFailsTypedAndConnectionSurvives) {
  // A sender that stops mid-body must not pin its stream: the agent's sweep
  // fails the stream with kDeadlineExceeded once no data arrived for the
  // transfer deadline, and the connection keeps serving.
  NodeAgent::Options options;
  options.transfer_deadline = std::chrono::milliseconds(200);
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(conn->SetIoTimeouts(kEventBound).ok());
  const Stopwatch timer;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, /*token=*/1, 100, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(1, Bytes(10, 0x5a))).ok());
  auto stalled = ReadCompletion(*conn);
  ASSERT_TRUE(stalled.ok()) << stalled.status();
  EXPECT_EQ(stalled->stream_id, 1u);
  EXPECT_EQ(stalled->code, StatusCode::kDeadlineExceeded) << stalled->detail;
  EXPECT_LT(timer.Elapsed(), kFailureBound);

  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, /*token=*/2, 1, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(2, AsBytes("x"))).ok());
  auto next = ReadCompletion(*conn);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->stream_id, 2u);
  EXPECT_EQ(next->code, StatusCode::kOk) << next->detail;

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, CommitmentCapBoundsOpensAndCancelReleasesIt) {
  // An admitted open commits min(body_len, kMuxInitialWindow) against the
  // per-connection cap; opens past the cap are refused typed; a cancel hands
  // its commitment back.
  NodeAgent::Options options;
  options.max_conn_staged_bytes = 2 * kMuxInitialWindow;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  // Each commits one initial window; together they fill the cap exactly.
  const uint64_t big = 2 * kMuxInitialWindow;
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, 1, big, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(2, 2, big, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(3, 3, 1, "echo")).ok());
  auto refused = ReadCompletion(*conn);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->stream_id, 3u);
  EXPECT_EQ(refused->code, StatusCode::kResourceExhausted) << refused->detail;
  EXPECT_NE(refused->detail.find("capacity exhausted"), std::string::npos)
      << refused->detail;

  // Cancel stream 1: its commitment returns to the budget, so the retry is
  // admitted and completes.
  ASSERT_TRUE(conn->Send(EncodeRawCancel(1)).ok());
  ASSERT_TRUE(conn->Send(EncodeRawOpen(4, 4, 1, "echo")).ok());
  ASSERT_TRUE(conn->Send(EncodeRawData(4, AsBytes("y"))).ok());
  auto retried = ReadCompletion(*conn);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->stream_id, 4u);
  EXPECT_EQ(retried->code, StatusCode::kOk) << retried->detail;

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, DataPastGrantedWindowIsConnectionFatal) {
  // The flow-control window is enforcement, not etiquette: with grants
  // deferred (commitment cap full), a peer that keeps sending past its
  // granted credit would balloon the heap — the agent kills the connection
  // instead.
  NodeAgent::Options options;
  // 1.5 windows: stream 1 (one window) + stream 2 (half) fill the cap, so
  // every further grant for stream 1 stays deferred and its credit is pinned
  // at kMuxInitialWindow.
  options.max_conn_staged_bytes = kMuxInitialWindow + kMuxInitialWindow / 2;
  auto agent = NodeAgent::Start(0, options);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(1, 1, kMuxInitialWindow + kMuxMaxChunk, "echo"))
          .ok());
  ASSERT_TRUE(
      conn->Send(EncodeRawOpen(2, 2, kMuxInitialWindow / 2, "echo")).ok());
  // Exactly the granted window is fine...
  const Bytes chunk(kMuxMaxChunk, 0x7e);
  for (size_t sent = 0; sent < kMuxInitialWindow; sent += kMuxMaxChunk) {
    ASSERT_TRUE(conn->Send(EncodeRawData(1, chunk)).ok());
  }
  // ...one chunk past it is not: the agent tears the connection down. The
  // gauge is checked first so a regression fails the assert instead of
  // hanging a blocking read on a healthy connection.
  ASSERT_TRUE(conn->Send(EncodeRawData(1, chunk)).ok());
  bool gone = false;
  for (int attempt = 0; attempt < 300 && !gone; ++attempt) {
    gone = (*agent)->active_connections() == 0;
    if (!gone) PreciseSleep(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(gone) << "window violation did not kill the connection ("
                    << (*agent)->active_connections() << " live)";
  Bytes sink(4096);
  const auto n = conn->ReceiveSome(sink);
  EXPECT_TRUE(!n.ok() || *n == 0) << "wire still open after teardown";

  conn->Close();
  (*agent)->Shutdown();
}

// The agent's connection-fatal verdict as the peer sees it: EOF — no bytes
// first, no hang — within kFailureBound.
void ExpectDroppedWithinBound(osal::Connection& conn) {
  ASSERT_TRUE(conn.SetIoTimeouts(kFailureBound).ok());
  const Stopwatch timer;
  uint8_t probe = 0;
  const Result<size_t> n = conn.ReceiveSome(MutableByteSpan(&probe, 1));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u) << "the agent answered instead of dropping the connection";
  EXPECT_LT(timer.Elapsed(), kFailureBound);
}

TEST(MuxWireTest, OpenDeclaringBodyPastFrameCapTearsConnectionDown) {
  // A declared body past kMuxMaxBodyBytes is not a request the agent
  // can refuse politely (unlike a body past its staging cap): the open
  // frame is implausible, and the byte stream after it cannot be trusted.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("echo", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  auto conn = DialMux((*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(conn->Send(EncodeRawOpen(1, /*token=*/1,
                                       kMuxMaxBodyBytes + 1, "echo"))
                  .ok());
  ExpectDroppedWithinBound(*conn);
  EXPECT_EQ((*agent)->transfers_refused(), 0u);

  conn->Close();
  (*agent)->Shutdown();
}

TEST(MuxWireTest, NonMuxPreambleIsConnectionFatalEvenForRegisteredFunction) {
  // The agent speaks one wire. A peer that opens with a u16 name-length
  // routing preamble — naming a function that IS registered — followed by
  // a bare 16-byte frame header and body gets no service and no reply: the
  // connection is dropped.
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto pool = MakePool("sink", [](ByteSpan input) -> Result<Bytes> {
    return Bytes(input.begin(), input.end());
  });
  ASSERT_TRUE(pool.ok()) << pool.status();
  ASSERT_TRUE((*agent)->RegisterFunction(*pool).ok());

  const std::string name = "sink";
  const std::string body = "hello";
  Bytes wire(2 + name.size() + 16 + body.size());
  uint8_t* p = wire.data();
  StoreLE<uint16_t>(p, static_cast<uint16_t>(name.size()));
  std::memcpy(p + 2, name.data(), name.size());
  p += 2 + name.size();
  StoreLE<uint64_t>(p, body.size());
  StoreLE<uint64_t>(p + 8, /*token=*/1);
  std::memcpy(p + 16, body.data(), body.size());

  auto conn = osal::TcpConnect("127.0.0.1", (*agent)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(conn->Send(wire).ok());  // one write: the agent reads it whole
  ExpectDroppedWithinBound(*conn);
  EXPECT_EQ((*agent)->transfers_completed(), 0u);

  conn->Close();
  (*agent)->Shutdown();
}

// ---------------------------------------------------------------------------
// End to end through api::Runtime: completion frames beat the deadline
// ---------------------------------------------------------------------------

TEST(MuxWireTest, RemoteHandlerFailureBeatsRemoteDeadlineByCompletionFrame) {
  // The regression the completion frame exists for: with a 60 s backstop
  // configured, a remote handler failure must fail the edge in well under a
  // couple of seconds — the error rides the completion frame, it does not
  // wait out remote_deadline.
  api::Runtime::Options options;
  options.remote_deadline = std::chrono::seconds(60);
  api::Runtime rt("wf", options);

  auto a = Shim::Create(Spec("a"), Binary());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE((*a)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint front;
  front.shim = a->get();
  front.location = {"n1", ""};
  ASSERT_TRUE(rt.Register(front).ok());

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)
                  ->Deploy([](ByteSpan) -> Result<Bytes> {
                    return InternalError("handler rejected input");
                  })
                  .ok());
  Endpoint remote;
  remote.shim = b->get();
  remote.location = {"n2", ""};
  remote.port = (*agent)->port();
  ASSERT_TRUE(rt.Register(remote).ok());
  ASSERT_TRUE((*agent)->RegisterFunction(b->get(), rt.DeliverySink()).ok());

  const Stopwatch timer;
  auto invocation = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("doomed"));
  ASSERT_TRUE(invocation.ok()) << invocation.status();
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  const Nanos elapsed = timer.Elapsed();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
  EXPECT_NE(result.status().message().find("handler rejected input"),
            std::string::npos)
      << result.status();
  EXPECT_LT(elapsed, kFailureBound)
      << "handler failure waited on the remote_deadline backstop";

  (*agent)->Shutdown();
}

TEST(MuxWireTest, NonPositiveRemoteDeadlineMeansUnboundedNotImmediate) {
  // remote_deadline <= 0 disables the sweeper backstop — it must never read
  // as "expire immediately". Remote edges still resolve through their real
  // signals: a success via the delivery callback, a handler failure via the
  // completion frame, both typed and prompt.
  api::Runtime::Options options;
  options.remote_deadline = Nanos{0};
  api::Runtime rt("wf", options);

  auto a = Shim::Create(Spec("a"), Binary());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE((*a)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint front;
  front.shim = a->get();
  front.location = {"n1", ""};
  ASSERT_TRUE(rt.Register(front).ok());

  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok()) << agent.status();
  auto b = Shim::Create(Spec("b"), Binary());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE((*b)
                  ->Deploy([](ByteSpan input) -> Result<Bytes> {
                    if (AsStringView(input) == "poison") {
                      return InternalError("handler rejected input");
                    }
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  Endpoint remote;
  remote.shim = b->get();
  remote.location = {"n2", ""};
  remote.port = (*agent)->port();
  ASSERT_TRUE(rt.Register(remote).ok());
  ASSERT_TRUE((*agent)->RegisterFunction(b->get(), rt.DeliverySink()).ok());

  auto healthy = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("fine"));
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  const Result<rr::Buffer>& ok = (*healthy)->Wait();
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ToString(*ok), "fine");

  const Stopwatch timer;
  auto doomed = rt.Submit(api::ChainSpec{{"a", "b"}}, AsBytes("poison"));
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  const Result<rr::Buffer>& failed = (*doomed)->Wait();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << failed.status();
  EXPECT_LT(timer.Elapsed(), kFailureBound)
      << "disabled backstop delayed a completion-frame failure";

  (*agent)->Shutdown();
}

}  // namespace
}  // namespace rr::core
