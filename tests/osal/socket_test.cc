#include "osal/socket.h"

#include <gtest/gtest.h>

#include <thread>

namespace rr::osal {
namespace {

TEST(TcpTest, LoopbackEcho) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ASSERT_GT(listener->port(), 0);

  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    Bytes buf(5);
    ASSERT_TRUE(conn->Receive(buf).ok());
    ASSERT_TRUE(conn->Send(buf).ok());
  });

  auto client = TcpConnect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok()) << client.status();
  client->SetNoDelay(true);
  ASSERT_TRUE(client->Send(AsBytes("hello")).ok());
  Bytes echoed(5);
  ASSERT_TRUE(client->Receive(echoed).ok());
  EXPECT_EQ(ToString(echoed), "hello");
  server.join();
}

TEST(TcpTest, ConnectRefusedGivesUnavailable) {
  // Bind then close a listener to find a (momentarily) free port.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  { auto drop = std::move(*listener); (void)drop; }
  auto conn = TcpConnect("127.0.0.1", port);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

TEST(ConnectedPairTest, BidirectionalTransfer) {
  auto pair = ConnectedPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  ASSERT_TRUE(a.Send(AsBytes("ping")).ok());
  Bytes buf(4);
  ASSERT_TRUE(b.Receive(buf).ok());
  EXPECT_EQ(ToString(buf), "ping");
  ASSERT_TRUE(b.Send(AsBytes("pong")).ok());
  ASSERT_TRUE(a.Receive(buf).ok());
  EXPECT_EQ(ToString(buf), "pong");
}

TEST(ConnectedPairTest, ShutdownWriteSignalsEof) {
  auto pair = ConnectedPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  ASSERT_TRUE(a.Send(AsBytes("end")).ok());
  ASSERT_TRUE(a.ShutdownWrite().ok());
  Bytes out;
  ASSERT_TRUE(ReadToEnd(b.fd(), out).ok());
  EXPECT_EQ(ToString(out), "end");
}

}  // namespace
}  // namespace rr::osal
