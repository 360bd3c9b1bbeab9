// Kernel-space data transfer (§4.2, Fig. 4b): co-located functions in
// separate sandboxes exchange data through a UNIX domain socket between
// their shims — kernel-buffered, serialization-free frames, no network.
#pragma once

#include <atomic>
#include <string>
#include <utility>

#include "core/endpoint.h"
#include "core/shim.h"
#include "osal/socket.h"
#include "serde/framing.h"

namespace rr::obs {
class Counter;
}  // namespace rr::obs

namespace rr::core {

// Sender half, held by the source function's shim.
class KernelChannelSender {
 public:
  static Result<KernelChannelSender> Connect(const std::string& socket_path);
  static KernelChannelSender FromConnection(osal::Connection conn) {
    return KernelChannelSender(std::move(conn));
  }

  // Sends the source function's output region as one frame (steps 1-3 of
  // Fig. 4b). kShimStaging reads the region into a shim buffer first (the
  // paper's read_output path); kDirectGuest writes straight from the
  // linear-memory view.
  Status Send(Shim& source, const MemoryRegion& region,
              CopyMode mode = CopyMode::kShimStaging);

  // Raw-bytes variant used when the payload is already host-resident.
  Status SendBytes(ByteSpan data);

  // Arms SO_RCVTIMEO/SO_SNDTIMEO on the socket: a transfer whose peer makes
  // no progress for `timeout` fails with kDeadlineExceeded instead of
  // wedging the worker. Non-positive disarms.
  Status SetWireDeadline(Nanos timeout) { return conn_.SetIoTimeouts(timeout); }

  uint64_t bytes_sent() const { return bytes_sent_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  explicit KernelChannelSender(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_sent_ = 0;
  TransferTiming timing_;
};

// Receiver half, held by the target function's shim.
class KernelChannelReceiver {
 public:
  static KernelChannelReceiver FromConnection(osal::Connection conn) {
    return KernelChannelReceiver(std::move(conn));
  }

  // Steps 4-6 of Fig. 4b: read the frame length, allocate_memory in the
  // target function, and deliver the payload into its linear memory.
  // kShimStaging receives into a shim buffer then write_memory_host copies
  // it in; kDirectGuest reads from the kernel straight into the guest pages.
  // A placement failure consumes the frame body before it returns (bounded
  // by the wire deadline), so the next receive starts at a frame boundary.
  Result<MemoryRegion> ReceiveInto(Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging);

  // Receive + run the target function.
  Result<InvokeOutcome> ReceiveAndInvoke(Shim& target,
                                         CopyMode mode = CopyMode::kShimStaging);

  // As on the sender: bounds a stalled peer with kDeadlineExceeded.
  Status SetWireDeadline(Nanos timeout) { return conn_.SetIoTimeouts(timeout); }

  uint64_t bytes_received() const { return bytes_received_; }
  const TransferTiming& last_timing() const { return timing_; }

 private:
  explicit KernelChannelReceiver(osal::Connection conn) : conn_(std::move(conn)) {}

  osal::Connection conn_;
  uint64_t bytes_received_ = 0;
  TransferTiming timing_;
};

// Listener the target shim binds; Accept yields a receiver.
class KernelChannelListener {
 public:
  static Result<KernelChannelListener> Bind(const std::string& socket_path);

  Result<KernelChannelReceiver> Accept();

  const std::string& path() const { return listener_.path(); }

 private:
  explicit KernelChannelListener(osal::UnixListener listener)
      : listener_(std::move(listener)) {}

  osal::UnixListener listener_;
};

// In-process pair for tests and single-process benchmarks (the two shims
// still talk through a real AF_UNIX kernel buffer).
Result<std::pair<KernelChannelSender, KernelChannelReceiver>>
MakeKernelChannelPair();

// Both ends of one in-process socket pair, driven by the calling thread:
// every runtime hop that crosses a socket inside the process — the
// kernel-space hop over an AF_UNIX pair, and the network transport's
// loopback hop over a 127.0.0.1 TCP pair. Transfer alternates non-blocking
// sendmsg (gathered from the source segments — guest pages or shared
// chunks) and recvmsg (scattered straight into the destination span —
// guest pages), so a frame larger than the socket buffers needs no second
// thread and no staging buffer on either side. The wire format is the
// kernel channel's frame: an 8-byte length, checked on receipt, then the
// body.
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
