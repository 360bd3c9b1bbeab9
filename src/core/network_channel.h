// Network data transfer (§4.3, Fig. 5, Algorithm 1): remote functions
// exchange data through a *virtual data hose* — a pipe populated from the
// function's memory with vmsplice(2) and drained into a TCP socket with
// splice(2), so payload bytes are never copied between user and kernel
// space on the send path.
//
//   source shim: read_memory_host -> vmsplice -> pipe -> splice -> socket
//   target shim: socket -> splice -> pipe -> read -> write into Wasm VM
//
// A fixed 16-byte header precedes the payload: the frame length, then a
// word the sender writes as 0 and the receiver ignores (the layout raw-frame
// peers already speak). Roadrunner serializes O(metadata), never the body.
// This is the paper-figure benchmarks' hose (workload/drivers.cc); the
// runtime's in-process hops pump KernelChannelPump frames instead
// (kernel_channel.h), and NodeAgent ingresses speak the multiplexed wire
// (mux_protocol.h).
//
// Failure semantics (the hardened wire plane):
//
//  * Every transfer ends with a STATUS-BEARING ACK FRAME from the receiver:
//    [u8 magic 0xA6][u8 status code][u16 LE detail length][detail bytes].
//    The ack is sent only after the payload has durably landed in the target
//    (region placed AND written); a receiver-side failure — region
//    placement, write_memory_host — travels back as its typed StatusCode
//    plus a truncated detail string, so the sender fails with the remote
//    error instead of recording success or hanging.
//  * Every blocking wait — header, body chunk, ack — is bounded by a
//    per-transfer deadline (set_transfer_deadline). A peer that dies or
//    stalls mid-transfer surfaces as kDeadlineExceeded/kDataLoss within the
//    bound. A send that ends without a decoded ack (a deadline expiry, say)
//    shuts the sender's wire down: a late ack must never be read as the
//    next transfer's.
//  * A receiver that must fail a frame WITHOUT desyncing the channel drains
//    the body first (the placement-failure paths), so one bad transfer
//    does not kill the connection for the transfers behind it. Only
//    an unrecoverable mid-body error (partial splice, implausible header)
//    tears the channel down.
//  * No error path leaks a placed guest region: receive-side placement is
//    guarded by core::RegionGuard until ownership transfers.
#pragma once

#include <string>

#include "core/region_guard.h"
#include "core/shim.h"
#include "osal/pipe.h"
#include "osal/socket.h"
#include "osal/splice.h"

namespace rr::core {

// The virtual data hose: a pipe plus the splice plumbing, with a plain
// read/write fallback when the syscalls are unavailable.
class VirtualDataHose {
 public:
  static Result<VirtualDataHose> Create(size_t pipe_capacity = 1 << 20);

  // data (already in host-visible pages, e.g. a linear-memory view) -> fd.
  // Socket-side waits are bounded by `deadline` (kNoDeadline = unbounded).
  Status SendThrough(int socket_fd, ByteSpan data,
                     TimePoint deadline = osal::kNoDeadline);

  // fd -> destination span (guest memory slice).
  Status ReceiveThrough(int socket_fd, MutableByteSpan out,
                        TimePoint deadline = osal::kNoDeadline);

  bool using_splice() const { return use_splice_; }
  uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  explicit VirtualDataHose(osal::Pipe pipe)
      : pipe_(std::move(pipe)), use_splice_(osal::SpliceSupported()) {}

  osal::Pipe pipe_;
  bool use_splice_;
  uint64_t bytes_moved_ = 0;
};

class NetworkChannelSender {
 public:
  static Result<NetworkChannelSender> Connect(const std::string& host,
                                              uint16_t port);

  // Wraps an already-connected socket.
  static Result<NetworkChannelSender> FromConnection(osal::Connection conn);

  // Algorithm 1, source side: read_memory_host on the region, then
  // vmsplice+splice through the hose. kShimStaging stages the region in a
  // shim buffer first (the paper's implementation); kDirectGuest vmsplices
  // the linear-memory pages themselves. Blocks until the receiver's ack
  // frame arrives; a non-OK ack returns the receiver's typed Status (with
  // its detail), an ack that never comes returns kDeadlineExceeded once the
  // transfer deadline expires, and a peer that died mid-transfer returns
  // kDataLoss.
  Status Send(Shim& source, const MemoryRegion& region,
              CopyMode mode = CopyMode::kShimStaging);

  // Host-resident bytes: one frame hosed straight from `data`'s pages, with
  // Send's ack contract.
  Status SendBytes(ByteSpan data);

  // Bounds every blocking wait of one transfer (header, body, ack). Zero or
  // negative = unbounded (the default).
  void set_transfer_deadline(Nanos timeout) { transfer_deadline_ = timeout; }

  // False once a transfer died without a decoded ack: the wire is dead, or
  // its ack stream is indeterminate, so the sender shut it down and every
  // later Send fails typed. A decoded error ack (a typed in-sync refusal)
  // leaves the channel usable.
  bool wire_ok() const { return wire_ok_; }

  const TransferTiming& last_timing() const { return timing_; }

 private:
  NetworkChannelSender(osal::Connection conn, VirtualDataHose hose)
      : conn_(std::move(conn)), hose_(std::move(hose)) {}

  // Reads and decodes the receiver's ack frame. `*ack_decoded` is set true
  // once a well-formed ack was consumed (whatever status it carries) — the
  // channel is then provably still synchronized; on false the ack stream is
  // dead or indeterminate and the channel must not be reused.
  Status ReadAck(TimePoint deadline, bool* ack_decoded);

  osal::Connection conn_;
  VirtualDataHose hose_;
  Nanos transfer_deadline_{0};
  bool wire_ok_ = true;
  TransferTiming timing_;
};

class NetworkChannelReceiver {
 public:
  static Result<NetworkChannelReceiver> FromConnection(osal::Connection conn);

  // Algorithm 1, target side: read the frame header, allocate_memory(length)
  // in the target, splice the body from the socket through the hose into
  // its linear memory, and ack. The ack frame is sent only after the
  // payload durably landed (region placed and written). A placement or
  // write failure drains the body and sends an error ack carrying the typed
  // status, so the channel stays in sync for the next frame; a failed
  // header, body or ack read/write leaves the channel desynced, and the
  // caller must tear it down. A non-null `place` overrides the allocation:
  // the payload lands in the region it returns, which the receiver never
  // releases. No failure leaks a placed region.
  Result<MemoryRegion> ReceiveInto(Shim& target,
                                   CopyMode mode = CopyMode::kShimStaging,
                                   const RegionPlacer* place = nullptr);

  // Bounds every blocking wait of one transfer: the header, then the body
  // and ack. Zero or negative = unbounded.
  void set_transfer_deadline(Nanos timeout) { transfer_deadline_ = timeout; }

  const TransferTiming& last_timing() const { return timing_; }

 private:
  NetworkChannelReceiver(osal::Connection conn, VirtualDataHose hose)
      : conn_(std::move(conn)), hose_(std::move(hose)) {}

  // Sends the status-bearing ack frame (detail truncated to the wire cap).
  Status SendAck(const Status& status, TimePoint deadline);

  // Reads and discards `length` body bytes so an error ack can follow on a
  // still-synchronized channel.
  Status DrainBody(uint64_t length, TimePoint deadline);

  osal::Connection conn_;
  VirtualDataHose hose_;
  Nanos transfer_deadline_{0};
  TransferTiming timing_;
};

class NetworkChannelListener {
 public:
  static Result<NetworkChannelListener> Bind(uint16_t port);

  uint16_t port() const { return listener_.port(); }

  Result<NetworkChannelReceiver> Accept();

 private:
  explicit NetworkChannelListener(osal::TcpListener listener)
      : listener_(std::move(listener)) {}

  osal::TcpListener listener_;
};

}  // namespace rr::core
