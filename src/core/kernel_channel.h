// Kernel-space data transfer (§4.2, Fig. 4b): co-located functions in
// separate sandboxes exchange data through a UNIX domain socket between
// their shims — kernel-buffered, serialization-free frames, no network.
#pragma once

#include <atomic>
#include <string>
#include <utility>

#include "common/buffer.h"
#include "core/endpoint.h"
#include "osal/socket.h"

namespace rr::obs {
class Counter;
}  // namespace rr::obs

namespace rr::core {

// Both ends of one in-process socket pair, driven by the calling thread:
// every runtime hop that crosses a socket inside the process — the
// kernel-space hop over an AF_UNIX pair, and the network transport's
// loopback hop over a 127.0.0.1 TCP pair. Transfer alternates non-blocking
// sendmsg (gathered from the source segments — guest pages or shared
// chunks) and recvmsg (scattered straight into the destination span —
// guest pages), so a frame larger than the socket buffers needs no second
// thread and no staging buffer on either side. A frame is an 8-byte length,
// checked on receipt, then the body.
//
// Transfers must be serialized by the caller. Shutdown and wire_ok are safe
// from any thread.
class KernelChannelPump {
 public:
  // `idle_timeout` bounds the wait when neither end can make progress: a
  // poll over both descriptors that sees no readiness for that long fails
  // the transfer with kDeadlineExceeded. Non-positive = unbounded. `mode` is
  // the transfer mode the pair serves: reported by mode() and used as the
  // `mode` label of the pump's rr_channel_bytes_total series.
  KernelChannelPump(std::pair<osal::Connection, osal::Connection> ends,
                    Nanos idle_timeout, TransferMode mode);

  TransferMode mode() const { return mode_; }

  // Moves `source` through the kernel into `dest` (sizes must match). A
  // failure before the first byte leaves the wire in sync; a failure after
  // it kills the wire (wire_ok() turns false, later transfers fail with
  // kUnavailable) because the stream position is then unknown.
  Status Transfer(const rr::BufferView& source, MutableByteSpan dest);

  bool wire_ok() const { return wire_ok_.load(std::memory_order_relaxed); }

  // Shuts down both sockets (idempotent): a transfer in progress fails with
  // EPIPE/EOF, and every later one with kUnavailable.
  void Shutdown();

 private:
  Status Pump(const rr::BufferView& source, MutableByteSpan dest,
              bool* sent_any);
  // Prefixes an error message with the pair's mode ("network channel ...").
  std::string Describe(std::string_view what) const;

  osal::Connection send_end_;
  osal::Connection recv_end_;
  const int poll_timeout_ms_;  // -1 = unbounded
  const TransferMode mode_;
  obs::Counter& bytes_sent_;
  obs::Counter& bytes_received_;
  std::atomic<bool> wire_ok_{true};
};

}  // namespace rr::core
