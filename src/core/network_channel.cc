#include "core/network_channel.h"

#include <algorithm>

#include "obs/metrics.h"
#include "serde/framing.h"

namespace rr::core {

namespace {

obs::Counter& WireBytesSent() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_bytes_sent_total", "Payload bytes sent over network channels");
  return *counter;
}

obs::Counter& WireBytesReceived() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_bytes_received_total",
      "Payload bytes received over network channels");
  return *counter;
}

obs::Counter& WireFramesSent() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_frames_sent_total", "Frames sent over network channels");
  return *counter;
}

obs::Counter& WireErrorAcks() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_error_acks_total",
      "Non-OK delivery acks sent by channel receivers");
  return *counter;
}

obs::Counter& WireDeadlineExpiries() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_deadline_expiries_total",
      "Transfers that hit their per-transfer deadline");
  return *counter;
}

obs::Counter& WireChannelKills() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_wire_channel_kills_total",
      "Sender channels shut down after a transfer ended without a decoded "
      "ack (desync)");
  return *counter;
}

// Error-path counters only increment when something goes wrong; registering
// the families eagerly makes every scrape expose them at zero, so absence
// of errors and absence of instrumentation are distinguishable.
const bool g_wire_metrics_registered = [] {
  WireBytesSent();
  WireBytesReceived();
  WireFramesSent();
  WireErrorAcks();
  WireDeadlineExpiries();
  WireChannelKills();
  return true;
}();

// Terminates every network transfer: receiver -> sender, a status-bearing
// ack frame confirming the payload durably landed (or why it did not):
// [u8 magic][u8 status code][u16 LE detail length][detail bytes]. Detail
// strings are diagnostics, not payload: truncated hard so a misbehaving
// receiver cannot balloon the ack.
constexpr uint8_t kAckMagic = 0xA6;
constexpr size_t kAckHeaderBytes = 4;
constexpr size_t kMaxAckDetail = 512;

constexpr uint8_t kMaxWireStatusCode =
    static_cast<uint8_t>(StatusCode::kTokenMismatch);

}  // namespace

Result<VirtualDataHose> VirtualDataHose::Create(size_t pipe_capacity) {
  RR_ASSIGN_OR_RETURN(osal::Pipe pipe, osal::Pipe::Create(pipe_capacity));
  return VirtualDataHose(std::move(pipe));
}

Status VirtualDataHose::SendThrough(int socket_fd, ByteSpan data,
                                    TimePoint deadline) {
  bytes_moved_ += data.size();
  if (use_splice_) {
    return osal::HoseSend(pipe_, socket_fd, data, deadline);
  }
  return osal::WriteAllDeadline(socket_fd, data, deadline);
}

Status VirtualDataHose::ReceiveThrough(int socket_fd, MutableByteSpan out,
                                       TimePoint deadline) {
  bytes_moved_ += out.size();
  if (use_splice_) {
    return osal::HoseReceive(pipe_, socket_fd, out, deadline);
  }
  return osal::ReadExactDeadline(socket_fd, out, deadline);
}

Result<NetworkChannelSender> NetworkChannelSender::Connect(
    const std::string& host, uint16_t port) {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, osal::TcpConnect(host, port));
  return FromConnection(std::move(conn));
}

Result<NetworkChannelSender> NetworkChannelSender::FromConnection(
    osal::Connection conn) {
  conn.SetNoDelay(true);
  RR_ASSIGN_OR_RETURN(VirtualDataHose hose, VirtualDataHose::Create());
  return NetworkChannelSender(std::move(conn), std::move(hose));
}

Status NetworkChannelSender::Send(Shim& source, const MemoryRegion& region,
                                  CopyMode mode) {
  timing_ = {};
  if (mode == CopyMode::kDirectGuest) {
    RR_ASSIGN_OR_RETURN(const ByteSpan view, source.OutputView(region));
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(SendBytes(view));
    timing_.transfer = transfer_timer.Elapsed();
    return Status::Ok();
  }
  // Paper path: shim reads the data out of the VM (Wasm VM I/O), then maps
  // the shim buffer's pages into the hose.
  Bytes staged(region.length);
  const Stopwatch io_timer;
  RR_RETURN_IF_ERROR(source.sandbox().ReadMemoryHost(region.address, staged));
  timing_.wasm_io = io_timer.Elapsed();
  const Stopwatch transfer_timer;
  RR_RETURN_IF_ERROR(SendBytes(staged));
  timing_.transfer = transfer_timer.Elapsed();
  return Status::Ok();
}

Status NetworkChannelSender::SendBytes(ByteSpan data) {
  // Frame header first (16 bytes: the length, then a zero word), then the
  // body through the hose, which references the pages, never copies them.
  // The sender must not reuse the pages until the receiver confirms
  // delivery: the protocol ends with the receiver's status-bearing ack
  // frame. (SIOCOUTQ draining is NOT sufficient — on loopback the receive
  // queue's skbs still reference the spliced pages until the peer's
  // read(2).) Every blocking wait is bounded by the transfer deadline.
  const TimePoint deadline = osal::DeadlineAfter(transfer_deadline_);
  uint8_t header[16] = {};
  StoreLE<uint64_t>(header, data.size());
  Status status = conn_.Send(ByteSpan(header, sizeof(header)), deadline);
  if (status.ok()) status = hose_.SendThrough(conn_.fd(), data, deadline);
  bool ack_decoded = false;
  if (status.ok()) status = ReadAck(deadline, &ack_decoded);
  if (status.code() == StatusCode::kDeadlineExceeded) {
    WireDeadlineExpiries().Inc();
  }
  if (!status.ok() && !ack_decoded) {
    // The transfer died without a decoded ack: the wire is dead, or — after
    // a deadline expiry with the frame (partially) on the wire — the ack
    // stream is indeterminate, and a LATER transfer on this channel would
    // consume THIS transfer's stale ack and be mis-attributed. Kill the
    // channel so subsequent sends fail typed instead of desyncing; the
    // owner establishes a fresh one. A decoded error ack proves the channel
    // is synchronized — it stays usable.
    wire_ok_ = false;
    conn_.ShutdownBoth();
    WireChannelKills().Inc();
  }
  RR_RETURN_IF_ERROR(status);
  WireBytesSent().Inc(data.size());
  WireFramesSent().Inc();
  return Status::Ok();
}

Status NetworkChannelSender::ReadAck(TimePoint deadline, bool* ack_decoded) {
  uint8_t header[kAckHeaderBytes];
  RR_RETURN_IF_ERROR(
      conn_.Receive(MutableByteSpan(header, kAckHeaderBytes), deadline));
  if (header[0] != kAckMagic || header[1] > kMaxWireStatusCode) {
    return DataLossError("network channel: bad delivery ack");
  }
  const StatusCode code = static_cast<StatusCode>(header[1]);
  const uint16_t detail_length = LoadLE<uint16_t>(header + 2);
  if (detail_length > kMaxAckDetail) {
    return DataLossError("network channel: implausible ack detail length");
  }
  std::string detail;
  if (detail_length > 0) {
    detail.resize(detail_length);
    RR_RETURN_IF_ERROR(conn_.Receive(
        MutableByteSpan(reinterpret_cast<uint8_t*>(detail.data()),
                        detail.size()),
        deadline));
  }
  *ack_decoded = true;
  if (code == StatusCode::kOk) return Status::Ok();
  return Status(code, "remote delivery failed: " + detail);
}

Result<NetworkChannelReceiver> NetworkChannelReceiver::FromConnection(
    osal::Connection conn) {
  conn.SetNoDelay(true);
  RR_ASSIGN_OR_RETURN(VirtualDataHose hose, VirtualDataHose::Create());
  return NetworkChannelReceiver(std::move(conn), std::move(hose));
}

Status NetworkChannelReceiver::SendAck(const Status& status,
                                       TimePoint deadline) {
  if (!status.ok()) WireErrorAcks().Inc();
  const std::string& message = status.message();
  const size_t detail_length = std::min(message.size(), kMaxAckDetail);
  uint8_t header[kAckHeaderBytes];
  header[0] = kAckMagic;
  header[1] = static_cast<uint8_t>(status.code());
  StoreLE<uint16_t>(header + 2, static_cast<uint16_t>(detail_length));
  const ByteSpan parts[] = {
      ByteSpan(header, kAckHeaderBytes),
      ByteSpan(reinterpret_cast<const uint8_t*>(message.data()),
               detail_length)};
  return conn_.SendParts(parts, 2, deadline);
}

Status NetworkChannelReceiver::DrainBody(uint64_t length, TimePoint deadline) {
  uint8_t scratch[64 * 1024];
  uint64_t drained = 0;
  while (drained < length) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(sizeof(scratch), length - drained));
    RR_RETURN_IF_ERROR(conn_.Receive(MutableByteSpan(scratch, want), deadline));
    drained += want;
  }
  return Status::Ok();
}

Result<MemoryRegion> NetworkChannelReceiver::ReceiveInto(
    Shim& target, CopyMode mode, const RegionPlacer* place) {
  timing_ = {};
  // Header: the length, then a word the receiver ignores. The default
  // unbounded deadline lets an idle channel wait for its next frame.
  uint8_t header[16];
  RR_RETURN_IF_ERROR(conn_.Receive(MutableByteSpan(header, sizeof(header)),
                                   osal::DeadlineAfter(transfer_deadline_)));
  const uint64_t length = LoadLE<uint64_t>(header);
  if (length > serde::kMaxFrameBytes || length > UINT32_MAX) {
    return DataLossError("network channel: implausible frame length");
  }
  const TimePoint deadline = osal::DeadlineAfter(transfer_deadline_);
  const auto place_region = [&]() -> Result<MemoryRegion> {
    if (place != nullptr) return (*place)(static_cast<uint32_t>(length));
    return target.PrepareInput(static_cast<uint32_t>(length));
  };
  // Fails the frame while keeping the channel in sync: the `undrained` body
  // bytes still on the wire are drained and `failure` returns to the sender
  // as a typed error ack. If the drain or ack itself fails, the channel is
  // dead and the next receive reports it.
  const auto reject = [&](uint64_t undrained, const Status& failure) {
    if (DrainBody(undrained, deadline).ok()) (void)SendAck(failure, deadline);
    return failure;
  };

  if (mode == CopyMode::kDirectGuest) {
    // allocate_memory(length) in the target, then splice the payload from
    // the socket into its linear-memory slice directly. Placement precedes
    // the body here, so a placement failure drains the wire before acking.
    const Stopwatch alloc_timer;
    auto region = place_region();
    if (!region.ok()) return reject(length, region.status());
    RegionGuard guard(place == nullptr ? &target : nullptr, *region);
    auto dest = target.InputSpan(*region);
    if (!dest.ok()) return reject(length, dest.status());
    timing_.wasm_io = alloc_timer.Elapsed();
    const Stopwatch transfer_timer;
    // A mid-body failure desyncs the channel (an unknown count of payload
    // bytes was consumed): no ack — the guard releases the region and the
    // caller tears the wire down; the sender fails on its own deadline/EOF.
    RR_RETURN_IF_ERROR(hose_.ReceiveThrough(conn_.fd(), *dest, deadline));
    RR_RETURN_IF_ERROR(SendAck(Status::Ok(), deadline));
    timing_.transfer = transfer_timer.Elapsed();
    WireBytesReceived().Inc(length);
    guard.Dismiss();
    return *region;
  }

  // Paper path (Algorithm 1 target): splice into the hose, land in a shim
  // buffer (transfer), then allocate + write_memory_host into the VM. The
  // ack follows the write, so a placement or write failure reaches the
  // sender typed, and the staged body leaves nothing to drain.
  Bytes staged(length);
  const Stopwatch transfer_timer;
  RR_RETURN_IF_ERROR(hose_.ReceiveThrough(conn_.fd(), staged, deadline));
  timing_.transfer = transfer_timer.Elapsed();
  const Stopwatch io_timer;
  auto region = place_region();
  if (!region.ok()) return reject(0, region.status());
  RegionGuard guard(place == nullptr ? &target : nullptr, *region);
  const Status written = target.data().write_memory_host(staged, region->address);
  if (!written.ok()) return reject(0, written);
  RR_RETURN_IF_ERROR(SendAck(Status::Ok(), deadline));
  timing_.wasm_io = io_timer.Elapsed();
  WireBytesReceived().Inc(length);
  guard.Dismiss();
  return *region;
}

Result<NetworkChannelListener> NetworkChannelListener::Bind(uint16_t port) {
  RR_ASSIGN_OR_RETURN(osal::TcpListener listener, osal::TcpListener::Bind(port));
  return NetworkChannelListener(std::move(listener));
}

Result<NetworkChannelReceiver> NetworkChannelListener::Accept() {
  RR_ASSIGN_OR_RETURN(osal::Connection conn, listener_.Accept());
  return NetworkChannelReceiver::FromConnection(std::move(conn));
}

}  // namespace rr::core
