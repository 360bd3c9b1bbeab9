#include "core/transport.h"

#include "common/mutex.h"
#include "core/kernel_channel.h"
#include "core/region_guard.h"
#include "core/user_channel.h"
#include "obs/metrics.h"
#include "osal/socket.h"

namespace rr::core {

namespace {

// Locks both instances' memory planes for the duration of a guest-direct
// transfer: the source instance may already be mid-invocation for another
// run (its pool re-leased it after the producing invocation returned), and
// the target is the caller's leased instance, whose memory a payload
// consumer of an OLDER region may touch concurrently. MutexPairLock's
// deadlock-avoidance handles opposing pairs (a->b vs b->a) and the
// degenerate self-hop (same instance both sides) locks once.
class PairLock {
 public:
  PairLock(Shim& source, Shim& target)
      : both_(source.exec_mutex(), target.exec_mutex()) {}

 private:
  MutexPairLock both_;
};

// Pins a fan-in gather slice as a transfer's destination: the payload length
// must match the slice the executor carved out of the merged region.
Result<MemoryRegion> CheckSlice(const MemoryRegion& into, uint64_t length) {
  if (length != into.length) {
    return InternalError("fan-in slice length mismatch: frame carries " +
                         std::to_string(length) + " bytes for a " +
                         std::to_string(into.length) + "-byte slice");
  }
  return into;
}

// --- user space -------------------------------------------------------------
// Channel construction is two pointer assignments; the hop holds no wire
// state at all. Exclusivity of both linear memories comes from the pool
// layer: the caller leased `target`, and a guest-resident payload's source
// instance is pinned by the payload.
class UserSpaceHop : public Hop {
 public:
  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               const MemoryRegion* into) override {
    if (payload.guest_resident()) {
      // Classic §4.1 path: the single user-space copy between the two
      // linear memories, straight from the producer's registered region.
      Shim& source = *payload.guest_shim();
      PairLock lock(source, target);
      RR_ASSIGN_OR_RETURN(UserSpaceChannel channel,
                          UserSpaceChannel::Create(&source, &target));
      return channel.Transfer(*payload.guest_region(), into);
    }
    // Host-resident payload (a fan-out's shared chunk): the hand-off was a
    // refcount bump; the only byte movement left is the unavoidable
    // guest-boundary write into the target, gathered over the chunks.
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer, payload.Materialize());
    MutexLock lock(target.exec_mutex());
    MemoryRegion dest;
    RegionGuard guard;
    if (into != nullptr) {
      dest = *into;  // caller-owned fan-in slice: never released here
    } else {
      RR_ASSIGN_OR_RETURN(
          dest, target.PrepareInput(static_cast<uint32_t>(buffer.size())));
      guard = RegionGuard(&target, dest);
    }
    RR_RETURN_IF_ERROR(target.WriteInput(dest, buffer));
    guard.Dismiss();
    bytes_sent_.Inc(buffer.size());
    return dest;
  }

  TransferMode mode() const override { return TransferMode::kUserSpace; }

 private:
  // The series UserSpaceChannel::Transfer counts the guest-direct path in.
  obs::Counter& bytes_sent_ = ChannelBytes(TransferMode::kUserSpace, "sent");
};

// --- kernel space -----------------------------------------------------------
// The calling worker drives both ends of the hop's socket pair itself
// (KernelChannelPump): the frame moves from the producer's linear memory —
// or a fan-out's shared chunks — through the kernel straight into the
// target's linear memory, with no transfer thread and no host staging
// buffer. The destination is placed before the first byte is sent, so a
// placement failure never touches the wire. The kernel hop pumps an AF_UNIX
// pair; the network loopback hop is this same hop over a 127.0.0.1 TCP pair.
class KernelHop : public Hop {
 public:
  KernelHop(std::pair<osal::Connection, osal::Connection> ends,
            Nanos idle_timeout, TransferMode mode)
      : pump_(std::move(ends), idle_timeout, mode) {}

  TransferMode mode() const override { return pump_.mode(); }
  bool healthy() const override { return pump_.wire_ok(); }

  // Deliberately lock-free: eviction closes hops that may have a transfer
  // blocked on mutex_, so Close must not queue behind it. shutdown(2) is
  // safe against concurrent I/O on the descriptors; the blocked transfer
  // fails with the dead pair.
  void Close() override { pump_.Shutdown(); }

  Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                               const MemoryRegion* into) override {
    MutexLock hop_lock(mutex_);
    if (payload.guest_resident()) {
      // Sent straight from the producer's registered region, as the
      // user-space hop copies it: the payload is never materialized.
      Shim& source = *payload.guest_shim();
      PairLock lock(source, target);
      RR_ASSIGN_OR_RETURN(const ByteSpan view,
                          source.OutputView(*payload.guest_region()));
      return Deliver(view, target, into);
    }
    // Host-resident (a fan-out's shared chunk): Materialize is a refcount
    // bump, and the pump gathers the chunks as they are.
    RR_ASSIGN_OR_RETURN(const rr::Buffer buffer, payload.Materialize());
    MutexLock target_lock(target.exec_mutex());
    return Deliver(buffer, target, into);
  }

 private:
  // Places the destination in `target` (whose exec mutex the caller holds),
  // then pumps the frame into it.
  Result<MemoryRegion> Deliver(const rr::BufferView& source, Shim& target,
                               const MemoryRegion* into) {
    MemoryRegion dest;
    RegionGuard guard;
    if (into != nullptr) {
      // Caller-owned fan-in slice: never released here.
      RR_ASSIGN_OR_RETURN(dest, CheckSlice(*into, source.size()));
    } else {
      if (source.size() > UINT32_MAX) {
        return InvalidArgumentError("payload exceeds 32-bit guest memory");
      }
      RR_ASSIGN_OR_RETURN(
          dest, target.PrepareInput(static_cast<uint32_t>(source.size())));
      guard = RegionGuard(&target, dest);
    }
    RR_ASSIGN_OR_RETURN(const MutableByteSpan span, target.InputSpan(dest));
    RR_RETURN_IF_ERROR(pump_.Transfer(source, span));
    guard.Dismiss();
    return dest;
  }

  Mutex mutex_;  // serializes concurrent transfers over this pair's wire
  KernelChannelPump pump_;
};

}  // namespace

Result<std::unique_ptr<Hop>> ConnectHop(TransferMode mode,
                                        const Endpoint& source,
                                        const Endpoint& target,
                                        const TransportOptions& options) {
  switch (mode) {
    case TransferMode::kUserSpace:
      // Validate the trust precondition once, at establishment. (No wire, no
      // deadline: the transfer is two in-process memory operations.)
      RR_RETURN_IF_ERROR(
          UserSpaceChannel::Create(source.shim, target.shim).status());
      return std::unique_ptr<Hop>(new UserSpaceHop());
    case TransferMode::kKernelSpace: {
      RR_ASSIGN_OR_RETURN(auto ends, osal::ConnectedPair());
      return std::unique_ptr<Hop>(new KernelHop(
          std::move(ends), options.transfer_deadline, TransferMode::kKernelSpace));
    }
    case TransferMode::kNetwork: {
      if (target.port != 0) {
        return FailedPreconditionError(
            "function " + target.shim->name() + " is served by the NodeAgent at " +
            target.host + ":" + std::to_string(target.port) +
            "; stream to its agent client instead of a local hop");
      }
      // The in-process stand-in for the remote node's shim port: a loopback
      // TCP pair, pumped like a kernel hop's AF_UNIX pair.
      RR_ASSIGN_OR_RETURN(osal::TcpListener listener, osal::TcpListener::Bind(0));
      RR_ASSIGN_OR_RETURN(osal::Connection send_end,
                          osal::TcpConnect("127.0.0.1", listener.port()));
      RR_ASSIGN_OR_RETURN(osal::Connection recv_end, listener.Accept());
      send_end.SetNoDelay(true);
      recv_end.SetNoDelay(true);
      return std::unique_ptr<Hop>(new KernelHop(
          {std::move(send_end), std::move(recv_end)}, options.transfer_deadline,
          TransferMode::kNetwork));
    }
  }
  return InvalidArgumentError("unknown transfer mode");
}

}  // namespace rr::core
