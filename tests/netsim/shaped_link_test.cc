#include "netsim/shaped_link.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <thread>

#include "common/rng.h"
#include "http/server.h"

namespace rr::netsim {
namespace {

// An echo sink listening behind the link.
struct EchoServer {
  osal::TcpListener listener;
  std::thread thread;

  explicit EchoServer(osal::TcpListener l) : listener(std::move(l)) {}

  static Result<std::unique_ptr<EchoServer>> Start() {
    RR_ASSIGN_OR_RETURN(auto listener, osal::TcpListener::Bind(0));
    auto server = std::make_unique<EchoServer>(std::move(listener));
    server->thread = std::thread([raw = server.get()] {
      while (true) {
        auto conn = raw->listener.Accept();
        if (!conn.ok()) return;
        Bytes buffer(64 * 1024);
        while (true) {
          auto n = conn->ReceiveSome(buffer);
          if (!n.ok() || *n == 0) break;
          if (!conn->Send(ByteSpan(buffer.data(), *n)).ok()) break;
        }
      }
    });
    return server;
  }

  ~EchoServer() {
    ::shutdown(listener.fd(), SHUT_RDWR);
    if (thread.joinable()) thread.join();
  }
};

TEST(ShapedLinkTest, ForwardsDataIntact) {
  auto server = EchoServer::Start();
  ASSERT_TRUE(server.ok());
  auto link = ShapedLink::Start((*server)->listener.port(),
                                LinkConfig::Unshaped());
  ASSERT_TRUE(link.ok()) << link.status();

  auto conn = osal::TcpConnect("127.0.0.1", (*link)->port());
  ASSERT_TRUE(conn.ok());
  Rng rng(3);
  Bytes payload(512 * 1024);
  rng.Fill(payload);

  std::thread writer([&] { ASSERT_TRUE(conn->Send(payload).ok()); });
  Bytes echoed(payload.size());
  ASSERT_TRUE(conn->Receive(echoed).ok());
  writer.join();
  EXPECT_EQ(Fnv1a(echoed), Fnv1a(payload));
  // The counter may trail the delivered bytes while the link runs; Shutdown
  // joins the pumps, so it is final afterwards.
  (*link)->Shutdown();
  EXPECT_GE((*link)->bytes_forwarded(), 2 * payload.size());
}

TEST(ShapedLinkTest, EnforcesBandwidth) {
  auto server = EchoServer::Start();
  ASSERT_TRUE(server.ok());
  LinkConfig config;
  config.bandwidth_bytes_per_sec = 10e6;  // 10 MB/s
  config.one_way_delay = Nanos(0);
  auto link = ShapedLink::Start((*server)->listener.port(), config);
  ASSERT_TRUE(link.ok());

  auto conn = osal::TcpConnect("127.0.0.1", (*link)->port());
  ASSERT_TRUE(conn.ok());
  const size_t size = 5 * 1024 * 1024;  // 5 MB at 10 MB/s => >= ~350 ms
  Bytes payload(size, 0x42);

  const Stopwatch timer;
  std::thread writer([&] { ASSERT_TRUE(conn->Send(payload).ok()); });
  Bytes echoed(size);
  ASSERT_TRUE(conn->Receive(echoed).ok());
  writer.join();
  const double elapsed = timer.ElapsedSeconds();
  // One-way theoretical minimum is 0.5 s; with burst allowance, accept 0.35+.
  EXPECT_GE(elapsed, 0.35);
  EXPECT_LE(elapsed, 5.0);
}

TEST(ShapedLinkTest, AddsPropagationDelayOncePerDirection) {
  auto server = EchoServer::Start();
  ASSERT_TRUE(server.ok());
  LinkConfig config = LinkConfig::Unshaped();
  config.one_way_delay = std::chrono::milliseconds(30);
  auto link = ShapedLink::Start((*server)->listener.port(), config);
  ASSERT_TRUE(link.ok());

  auto conn = osal::TcpConnect("127.0.0.1", (*link)->port());
  ASSERT_TRUE(conn.ok());

  // Small ping: RTT must be ~2 * delay, not proportional to byte count.
  const Stopwatch ping_timer;
  ASSERT_TRUE(conn->Send(AsBytes("ping")).ok());
  Bytes pong(4);
  ASSERT_TRUE(conn->Receive(pong).ok());
  const double rtt = ping_timer.ElapsedSeconds();
  EXPECT_GE(rtt, 0.055);
  EXPECT_LE(rtt, 0.5);

  // Bulk transfer: delay is pipelined, so 64 chunks must NOT cost 64 delays.
  Bytes bulk(4 * 1024 * 1024, 0x11);
  const Stopwatch bulk_timer;
  std::thread writer([&] { ASSERT_TRUE(conn->Send(bulk).ok()); });
  Bytes echoed(bulk.size());
  ASSERT_TRUE(conn->Receive(echoed).ok());
  writer.join();
  EXPECT_LE(bulk_timer.ElapsedSeconds(), 2.0)
      << "propagation delay is being serialized per chunk";
}

TEST(ShapedLinkTest, MultipleConnectionsShareTheLink) {
  auto server = EchoServer::Start();
  ASSERT_TRUE(server.ok());
  auto link = ShapedLink::Start((*server)->listener.port(),
                                LinkConfig::Unshaped());
  ASSERT_TRUE(link.ok());

  constexpr int kConns = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      auto conn = osal::TcpConnect("127.0.0.1", (*link)->port());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      const Bytes payload(10000, static_cast<uint8_t>(t));
      if (!conn->Send(payload).ok()) {
        failures.fetch_add(1);
        return;
      }
      Bytes echoed(payload.size());
      if (!conn->Receive(echoed).ok() || echoed != payload) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShapedLinkTest, HttpThroughLink) {
  // End-to-end: HTTP client -> shaped link -> HTTP server (how the RunC
  // baseline reaches the remote node in Fig. 8).
  auto server = http::Server::Start(0, [](const http::Request& request) {
    return http::Response{200, "OK", {}, request.body};
  });
  ASSERT_TRUE(server.ok());
  auto link = ShapedLink::Start((*server)->port(), LinkConfig::Unshaped());
  ASSERT_TRUE(link.ok());

  http::Request request;
  request.method = "POST";
  request.body = ToBytes(std::string(100000, 'z'));
  auto response = http::Fetch("127.0.0.1", (*link)->port(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->body, request.body);
}

TEST(ShapedLinkTest, TheoreticalTransferMatchesConfig) {
  LinkConfig config;
  config.bandwidth_bytes_per_sec = 12.5e6;
  config.one_way_delay = std::chrono::microseconds(500);
  EXPECT_NEAR(TheoreticalTransferSeconds(config, 12'500'000), 1.0005, 1e-6);
}

}  // namespace
}  // namespace rr::netsim
