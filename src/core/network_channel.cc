#include "core/network_channel.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
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
      "Sender channels killed by ShutdownWire (eviction or desync)");
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
                                  CopyMode mode, uint64_t token) {
  timing_ = {};
  if (mode == CopyMode::kDirectGuest) {
    RR_ASSIGN_OR_RETURN(const ByteSpan view, source.OutputView(region));
    const Stopwatch transfer_timer;
    RR_RETURN_IF_ERROR(SendBytes(view, token));
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
  RR_RETURN_IF_ERROR(SendBytes(staged, token));
  timing_.transfer = transfer_timer.Elapsed();
  return Status::Ok();
}

Status NetworkChannelSender::SendBytes(ByteSpan data, uint64_t token) {
  return SendBuffer(rr::BufferView(data), token);
}

Status NetworkChannelSender::SendBuffer(const rr::BufferView& payload,
                                        uint64_t token) {
  // Frame header first (16 bytes: length + correlation token), then the body
  // through the hose, chunk by chunk — the hose references each chunk's
  // pages, never copies or reassembles them. The sender must not reuse the
  // pages until the receiver confirms delivery: the protocol ends with the
  // receiver's status-bearing ack frame. (SIOCOUTQ draining is NOT
  // sufficient — on loopback the receive queue's skbs still reference the
  // spliced pages until the peer's read(2).) Every blocking wait is bounded
  // by the transfer deadline.
  const TimePoint deadline = osal::DeadlineAfter(transfer_deadline_);
  Status status = [&]() -> Status {
    // Header: 16 fixed bytes, plus the trace-context extension when the
    // sending thread is inside a span and tracing is on. The flag rides the
    // length field's (guaranteed-zero) high bit, so receivers that predate
    // the extension — and frames from senders with tracing off — stay wire
    // compatible.
    uint8_t header[32];
    size_t header_len = 16;
    uint64_t length_field = payload.size();
    if (obs::TracingEnabled()) {
      const obs::SpanContext ctx = obs::CurrentSpanContext();
      if (ctx.valid()) {
        length_field |= kFrameTraceFlag;
        StoreLE<uint64_t>(header + 16, ctx.trace_id);
        StoreLE<uint64_t>(header + 24, ctx.span_id);
        header_len = 32;
      }
    }
    StoreLE<uint64_t>(header, length_field);
    StoreLE<uint64_t>(header + 8, token);
    RR_RETURN_IF_ERROR(conn_.Send(ByteSpan(header, header_len), deadline));
    for (size_t i = 0; i < payload.segment_count(); ++i) {
      RR_RETURN_IF_ERROR(
          hose_.SendThrough(conn_.fd(), payload.segment(i), deadline));
    }
    return Status::Ok();
  }();
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
    // channel so subsequent sends fail typed instead of desyncing; callers
    // (hop eviction / reconnection) establish a fresh one. A decoded error
    // ack proves the channel is synchronized — it stays usable.
    ShutdownWire();
  }
  RR_RETURN_IF_ERROR(status);
  bytes_sent_ += payload.size();
  WireBytesSent().Inc(payload.size());
  WireFramesSent().Inc();
  return Status::Ok();
}

void NetworkChannelSender::ShutdownWire() {
  wire_ok_.store(false, std::memory_order_relaxed);
  conn_.ShutdownBoth();
  WireChannelKills().Inc();
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

Result<FrameInfo> NetworkChannelReceiver::ReceiveHeader(TimePoint deadline) {
  uint8_t header[16];
  RR_RETURN_IF_ERROR(conn_.Receive(MutableByteSpan(header, 16), deadline));
  FrameInfo frame;
  const uint64_t length_field = LoadLE<uint64_t>(header);
  frame.length = length_field & ~kFrameTraceFlag;
  frame.token = LoadLE<uint64_t>(header + 8);
  if (frame.length > serde::kMaxFrameBytes || frame.length > UINT32_MAX) {
    return DataLossError("network channel: implausible frame length");
  }
  if (length_field & kFrameTraceFlag) {
    // Trace-context extension. A zero trace id is tolerated (the frame just
    // carries no usable context); a read failure is a desync like any other
    // truncated header.
    uint8_t extension[16];
    RR_RETURN_IF_ERROR(
        conn_.Receive(MutableByteSpan(extension, 16), deadline));
    frame.trace_id = LoadLE<uint64_t>(extension);
    frame.parent_span = LoadLE<uint64_t>(extension + 8);
  }
  return frame;
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

Status NetworkChannelReceiver::DrainAndReject(uint64_t body_length,
                                              const Status& reason,
                                              TimePoint deadline,
                                              bool* rejected_in_sync) {
  RR_RETURN_IF_ERROR(DrainBody(body_length, deadline));
  RR_RETURN_IF_ERROR(SendAck(reason, deadline));
  if (rejected_in_sync != nullptr) *rejected_in_sync = true;
  return Status::Ok();
}

Result<MemoryRegion> NetworkChannelReceiver::ReceiveBody(
    const FrameInfo& frame, Shim& target, CopyMode mode,
    const RegionPlacer* place, bool* rejected_in_sync) {
  timing_ = {};
  if (rejected_in_sync != nullptr) *rejected_in_sync = false;
  const TimePoint deadline = osal::DeadlineAfter(transfer_deadline_);
  const uint64_t length = frame.length;
  const auto place_region = [&]() -> Result<MemoryRegion> {
    if (place != nullptr) return (*place)(static_cast<uint32_t>(length));
    return target.PrepareInput(static_cast<uint32_t>(length));
  };
  // Fails the frame while keeping the channel in sync: the body (still
  // entirely on the wire at the call sites below) is drained and `failure`
  // returns to the sender as a typed error ack. If the drain or ack itself
  // fails, the channel is dead and rejected_in_sync stays false.
  const auto reject_in_sync = [&](const Status& failure) -> Status {
    (void)DrainAndReject(length, failure, deadline, rejected_in_sync);
    return failure;
  };

  if (mode == CopyMode::kDirectGuest) {
    // allocate_memory(length) in the target, then splice the payload from
    // the socket into its linear-memory slice directly. Placement precedes
    // the body here, so a placement failure drains the wire before acking.
    const Stopwatch alloc_timer;
    auto region = place_region();
    if (!region.ok()) return reject_in_sync(region.status());
    RegionGuard guard(place == nullptr ? &target : nullptr, *region);
    auto dest = target.InputSpan(*region);
    if (!dest.ok()) return reject_in_sync(dest.status());
    timing_.wasm_io = alloc_timer.Elapsed();
    const Stopwatch transfer_timer;
    // A mid-body failure desyncs the channel (an unknown count of payload
    // bytes was consumed): no ack — the guard releases the region and the
    // caller tears the wire down; the sender fails on its own deadline/EOF.
    RR_RETURN_IF_ERROR(hose_.ReceiveThrough(conn_.fd(), *dest, deadline));
    RR_RETURN_IF_ERROR(SendAck(Status::Ok(), deadline));
    timing_.transfer = transfer_timer.Elapsed();
    bytes_received_ += length;
    WireBytesReceived().Inc(length);
    guard.Dismiss();
    return *region;
  }

  // Paper path (Algorithm 1 target): splice into the hose, land in a shim
  // buffer (transfer), then allocate + write_memory_host into the VM. The
  // ack moves AFTER the payload durably landed — a placement or write
  // failure now reaches the sender as a typed error instead of a recorded
  // success, and the staged body keeps the channel in sync for the next
  // frame.
  Bytes staged(length);
  const Stopwatch transfer_timer;
  RR_RETURN_IF_ERROR(hose_.ReceiveThrough(conn_.fd(), staged, deadline));
  timing_.transfer = transfer_timer.Elapsed();
  const Stopwatch io_timer;
  auto region = place_region();
  if (!region.ok()) {
    // Body already staged (drain length 0): the refusal is just the ack.
    (void)DrainAndReject(0, region.status(), deadline, rejected_in_sync);
    return region.status();
  }
  RegionGuard guard(place == nullptr ? &target : nullptr, *region);
  const Status written = target.data().write_memory_host(staged, region->address);
  if (!written.ok()) {
    (void)DrainAndReject(0, written, deadline, rejected_in_sync);
    return written;
  }
  RR_RETURN_IF_ERROR(SendAck(Status::Ok(), deadline));
  timing_.wasm_io = io_timer.Elapsed();
  bytes_received_ += length;
  WireBytesReceived().Inc(length);
  guard.Dismiss();
  return *region;
}

Result<MemoryRegion> NetworkChannelReceiver::ReceiveInto(Shim& target,
                                                         CopyMode mode,
                                                         uint64_t* token,
                                                         const RegionPlacer* place) {
  RR_ASSIGN_OR_RETURN(
      const FrameInfo frame,
      ReceiveHeader(osal::DeadlineAfter(transfer_deadline_)));
  if (token != nullptr) *token = frame.token;
  return ReceiveBody(frame, target, mode, place);
}

Result<InvokeOutcome> NetworkChannelReceiver::ReceiveAndInvoke(Shim& target,
                                                               CopyMode mode,
                                                               uint64_t* token) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion region,
                      ReceiveInto(target, mode, token));
  RegionGuard guard(&target, region);
  auto outcome = target.InvokeOnRegion(region);
  // A successful invoke consumes the input region; a failed one leaves it
  // allocated in the target's sandbox — the guard reclaims it.
  if (outcome.ok()) guard.Dismiss();
  return outcome;
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
