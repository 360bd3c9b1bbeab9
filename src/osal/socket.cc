#include "osal/socket.h"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <vector>

#include <cerrno>
#include <cstring>

namespace rr::osal {

namespace {

// A peer that resets mid-transfer must surface as EPIPE, not kill the
// process. sendmsg takes MSG_NOSIGNAL per call, but write(2) (WriteAll) has
// no per-call opt-out, so the first connection opts the process out of
// SIGPIPE once. (Only the disposition for this one signal changes, and only
// from the default-terminate; an application handler installed first is
// left alone.)
void IgnoreSigpipeOnce() {
  static const bool ignored = [] {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      ::signal(SIGPIPE, SIG_IGN);
    }
    return true;
  }();
  (void)ignored;
}

}  // namespace

Status Connection::SendParts(const ByteSpan* parts, size_t count) {
  std::vector<iovec> iov;
  iov.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const ByteSpan part = parts[i];
    if (part.empty()) continue;
    iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
  }
  IovCursor cursor(iov.data(), iov.size());
  while (!cursor.done()) {
    const msghdr msg = cursor.Message();
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Blocking fd: EAGAIN can only be an armed SO_SNDTIMEO expiring —
        // the same deadline mapping WriteAll applies.
        return DeadlineExceededError("sendmsg stalled past the I/O timeout");
      }
      return ErrnoToStatus(errno, "sendmsg");
    }
    cursor.Advance(static_cast<size_t>(n));
  }
  return Status::Ok();
}

Result<size_t> Connection::ReceiveSome(MutableByteSpan out) {
  while (true) {
    const ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "read");
    }
    return static_cast<size_t>(n);
  }
}

void Connection::SetNoDelay(bool enabled) {
  const int flag = enabled ? 1 : 0;
  (void)::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
}

Status Connection::SetIoTimeouts(Nanos timeout) {
  timeval tv{};
  if (timeout > Nanos{0}) {
    const auto usec =
        std::chrono::duration_cast<std::chrono::microseconds>(timeout);
    tv.tv_sec = static_cast<time_t>(usec.count() / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(usec.count() % 1000000);
    // Sub-microsecond timeouts round to the smallest armed value rather than
    // the "disarmed" zero.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoToStatus(errno, "setsockopt(SO_RCVTIMEO)");
  }
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoToStatus(errno, "setsockopt(SO_SNDTIMEO)");
  }
  return Status::Ok();
}

void Connection::ShutdownBoth() { ::shutdown(fd_.get(), SHUT_RDWR); }

Status Connection::ShutdownWrite() {
  if (::shutdown(fd_.get(), SHUT_WR) != 0) {
    return ErrnoToStatus(errno, "shutdown(SHUT_WR)");
  }
  return Status::Ok();
}

Result<TcpListener> TcpListener::Bind(uint16_t port, BindAddress address) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_INET)");

  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(
      address == BindAddress::kAny ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoToStatus(errno, "bind");
  }
  // Deep backlog: the gateway bench opens thousands of connections in a
  // burst and loopback SYN retries would skew its latency tail.
  if (::listen(fd.get(), 1024) != 0) {
    return ErrnoToStatus(errno, "listen");
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoToStatus(errno, "getsockname");
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<Connection> TcpListener::TryAccept() {
  while (true) {
    const int conn = ::accept4(fd_.get(), nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (conn >= 0) return Connection(UniqueFd(conn));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Connection();
    // Transient per-connection failures (peer reset before accept, fd
    // exhaustion) surface as errors for the caller to count, not crash on.
    return ErrnoToStatus(errno, "accept4");
  }
}

Result<Connection> TcpListener::Accept() {
  IgnoreSigpipeOnce();
  while (true) {
    const int conn = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "accept4");
    }
    return Connection(UniqueFd(conn));
  }
}

Result<Connection> TcpConnect(const std::string& host, uint16_t port) {
  IgnoreSigpipeOnce();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoToStatus(errno, "socket(AF_INET)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad IPv4 address: " + host);
  }
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return ErrnoToStatus(errno, "connect " + host + ":" + std::to_string(port));
  }
  return Connection(std::move(fd));
}

Result<std::pair<Connection, Connection>> ConnectedPair() {
  IgnoreSigpipeOnce();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return ErrnoToStatus(errno, "socketpair");
  }
  return std::make_pair(Connection(UniqueFd(fds[0])), Connection(UniqueFd(fds[1])));
}

}  // namespace rr::osal
