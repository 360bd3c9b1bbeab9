#include "core/kernel_channel.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <vector>

#include "obs/metrics.h"

namespace rr::core {
namespace {

bool WouldBlock(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

int PollTimeoutMs(Nanos timeout) {
  if (timeout <= Nanos{0}) return -1;
  const int64_t ms =
      std::chrono::ceil<std::chrono::milliseconds>(timeout).count();
  return static_cast<int>(std::min<int64_t>(ms, INT_MAX));
}

}  // namespace

KernelChannelPump::KernelChannelPump(
    std::pair<osal::Connection, osal::Connection> ends, Nanos idle_timeout,
    TransferMode mode)
    : send_end_(std::move(ends.first)),
      recv_end_(std::move(ends.second)),
      poll_timeout_ms_(PollTimeoutMs(idle_timeout)),
      mode_(mode),
      bytes_sent_(ChannelBytes(mode, "sent")),
      bytes_received_(ChannelBytes(mode, "received")) {}

Status KernelChannelPump::Transfer(const rr::BufferView& source,
                                   MutableByteSpan dest) {
  if (!wire_ok()) return UnavailableError(Describe("is shut down"));
  if (source.size() != dest.size()) {
    return InvalidArgumentError(Describe("frame: source carries ") +
                                std::to_string(source.size()) +
                                " bytes for a " + std::to_string(dest.size()) +
                                "-byte destination");
  }
  bool sent_any = false;
  const Status status = Pump(source, dest, &sent_any);
  if (!status.ok()) {
    // Bytes of this frame may still sit in the socket: the next frame would
    // be parsed from the middle of this one. Only a clean refusal (nothing
    // sent) keeps the wire.
    if (sent_any) Shutdown();
    return status;
  }
  bytes_sent_.Inc(dest.size());
  bytes_received_.Inc(dest.size());
  return Status::Ok();
}

Status KernelChannelPump::Pump(const rr::BufferView& source,
                               MutableByteSpan dest, bool* sent_any) {
  uint8_t out_header[8];
  StoreLE<uint64_t>(out_header, dest.size());
  std::vector<iovec> out;
  out.reserve(source.segment_count() + 1);
  out.push_back({out_header, sizeof(out_header)});
  for (size_t i = 0; i < source.segment_count(); ++i) {
    const ByteSpan segment = source.segment(i);
    if (segment.empty()) continue;
    out.push_back({const_cast<uint8_t*>(segment.data()), segment.size()});
  }
  uint8_t in_header[8];
  iovec in[2] = {{in_header, sizeof(in_header)}, {dest.data(), dest.size()}};
  osal::IovCursor sending(out.data(), out.size());
  osal::IovCursor receiving(in, dest.empty() ? 1 : 2);

  uint64_t received = 0;
  while (!receiving.done()) {
    bool progressed = false;
    if (!sending.done()) {
      const msghdr msg = sending.Message();
      const ssize_t n =
          ::sendmsg(send_end_.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sending.Advance(static_cast<size_t>(n));
        *sent_any = true;
        progressed = true;
      } else if (const int err = errno; n < 0 && !WouldBlock(err)) {
        return ErrnoToStatus(err, Describe("sendmsg"));
      }
    }
    msghdr msg = receiving.Message();
    const ssize_t n = ::recvmsg(recv_end_.fd(), &msg, MSG_DONTWAIT);
    if (n > 0) {
      const bool header_done = received >= sizeof(in_header);
      receiving.Advance(static_cast<size_t>(n));
      received += static_cast<uint64_t>(n);
      if (!header_done && received >= sizeof(in_header) &&
          LoadLE<uint64_t>(in_header) != dest.size()) {
        return DataLossError(Describe("frame header announces ") +
                             std::to_string(LoadLE<uint64_t>(in_header)) +
                             " bytes, expected " + std::to_string(dest.size()));
      }
      progressed = true;
    } else if (n == 0) {
      return DataLossError(Describe("closed after ") +
                           std::to_string(received) + " of " +
                           std::to_string(dest.size() + sizeof(in_header)) +
                           " frame bytes");
    } else if (const int err = errno; !WouldBlock(err)) {
      return ErrnoToStatus(err, Describe("recvmsg"));
    }
    if (progressed) continue;
    pollfd fds[2] = {{recv_end_.fd(), POLLIN, 0},
                     {send_end_.fd(), POLLOUT, 0}};
    const int ready = ::poll(fds, sending.done() ? 1 : 2, poll_timeout_ms_);
    if (ready == 0) {
      return DeadlineExceededError(Describe("made no progress for ") +
                                   std::to_string(poll_timeout_ms_) + " ms");
    }
    if (ready < 0 && errno != EINTR) return ErrnoToStatus(errno, "poll");
  }
  return Status::Ok();
}

std::string KernelChannelPump::Describe(std::string_view what) const {
  return std::string(TransferModeName(mode_)) + " channel " + std::string(what);
}

void KernelChannelPump::Shutdown() {
  wire_ok_.store(false, std::memory_order_relaxed);
  send_end_.ShutdownBoth();
  recv_end_.ShutdownBoth();
}

}  // namespace rr::core
