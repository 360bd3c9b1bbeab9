// Blocking TCP and UNIX-domain stream sockets.
//
// Kernel-space data transfer in Roadrunner (§4.2) rides on AF_UNIX sockets
// between shims; network transfer (§4.3) rides on TCP. Both are wrapped here
// with a uniform Connection interface.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <initializer_list>
#include <string>

#include "osal/fd.h"
#include "osal/poll.h"

namespace rr::osal {

// A connected stream socket.
class Connection {
 public:
  Connection() = default;
  explicit Connection(UniqueFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  Status Send(ByteSpan data) { return WriteAll(fd_.get(), data); }
  Status Receive(MutableByteSpan out) { return ReadExact(fd_.get(), out); }

  // Gathered send (writev): transmits the concatenation of `parts` without
  // assembling an intermediate buffer. The pointer/count form serves dynamic
  // segment lists (e.g. a multi-chunk payload buffer).
  Status SendParts(std::initializer_list<ByteSpan> parts) {
    return SendParts(parts.begin(), parts.size());
  }
  Status SendParts(const ByteSpan* parts, size_t count);

  // Single read(2), returning the number of bytes read (0 at EOF).
  Result<size_t> ReceiveSome(MutableByteSpan out);

  // Disables Nagle's algorithm (TCP only; no-op otherwise).
  void SetNoDelay(bool enabled);

  // Arms SO_RCVTIMEO and SO_SNDTIMEO: a blocking read or send that makes no
  // progress for `timeout` fails with kDeadlineExceeded (via the EAGAIN
  // mapping in ReadExact/WriteAll). This is an *idle* bound — a peer
  // trickling bytes resets it. Non-positive timeout disarms.
  Status SetIoTimeouts(Nanos timeout);

  // Shuts down the write side, signalling EOF to the peer.
  Status ShutdownWrite();

  // Shuts down both directions without closing the descriptor: a thread
  // blocked sending or receiving on this connection fails immediately
  // (EPIPE / EOF) instead of hanging on a wire its owner has abandoned.
  void ShutdownBoth();

  void Close() { fd_.Reset(); }
  UniqueFd TakeFd() { return std::move(fd_); }

 private:
  UniqueFd fd_;
};

// TCP listener. Binds loopback by default; kAny opens the listener to every
// interface (the gateway's public face — everything else stays loopback).
// Port 0 picks an ephemeral port.
enum class BindAddress { kLoopback, kAny };

class TcpListener {
 public:
  static Result<TcpListener> Bind(uint16_t port,
                                  BindAddress address = BindAddress::kLoopback);

  uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  Result<Connection> Accept();

  // Non-blocking accept for event loops (the listener fd must be
  // non-blocking): an invalid Connection means no connection is pending.
  // Accepted connections come back with O_NONBLOCK already set.
  Result<Connection> TryAccept();

 private:
  TcpListener(UniqueFd fd, uint16_t port) : fd_(std::move(fd)), port_(port) {}

  UniqueFd fd_;
  uint16_t port_ = 0;
};

Result<Connection> TcpConnect(const std::string& host, uint16_t port);

// Connected AF_UNIX stream pair — the in-process stand-in for two co-located
// shims when tests do not need separate processes.
Result<std::pair<Connection, Connection>> ConnectedPair();

// The not-yet-moved tail of a gather (send) or scatter (receive) list,
// advanced across partial sendmsg/recvmsg calls. Borrows the iovec array,
// whose entries it trims in place.
class IovCursor {
 public:
  IovCursor(iovec* iov, size_t count) : iov_(iov), count_(count) {}

  bool done() const { return count_ == 0; }

  // A msghdr over the remaining entries, for sendmsg/recvmsg.
  msghdr Message() const {
    msghdr msg{};
    msg.msg_iov = iov_;
    msg.msg_iovlen = count_;
    return msg;
  }

  // Consumes `moved` bytes from the front.
  void Advance(size_t moved) {
    while (count_ > 0 && moved >= iov_->iov_len) {
      moved -= iov_->iov_len;
      ++iov_;
      --count_;
    }
    if (moved > 0) {
      iov_->iov_base = static_cast<uint8_t*>(iov_->iov_base) + moved;
      iov_->iov_len -= moved;
    }
  }

 private:
  iovec* iov_;
  size_t count_;
};

}  // namespace rr::osal
