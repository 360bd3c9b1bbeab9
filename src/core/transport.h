// The polymorphic transport layer: one `Transport`/`Hop` interface over the
// three placement-selected transfer mechanisms (user space, kernel space,
// network — §3.2.3), so executors move data without ever switching on the
// mode and future backends (shared-memory ring, RDMA-sim, ...) plug into the
// HopTable without touching executor code.
//
// A Transport knows how to *establish* a channel for its mode; a Hop is one
// established, cached channel between a (source, target) pair. Hops speak
// the zero-copy payload plane (core/payload.h): a guest-resident payload is
// read in place from the producer's linear memory by every local hop (the
// single user-space copy, or one socket frame pumped guest to guest by the
// kernel hop and the network loopback hop), while a host-resident payload —
// the shared chunk an N-way fan-out hands to every successor — is read
// zero-copy from its ref-counted storage, with the socket hops performing
// vectored writes over the chunks.
//
// Hops are internally synchronized: concurrent workflow invocations may
// forward over the same hop (a hop's single wire is what they serialize
// on). Callers pass the *leased* target instance into Forward — the pool
// layer routes concurrent transfers into one function onto distinct
// instances, so they proceed in parallel; each instance's exec mutex is
// taken only around the memory-plane phase, synchronizing against payload
// readers of regions still resident in that instance.
#pragma once

#include <functional>
#include <memory>

#include "core/endpoint.h"
#include "core/payload.h"

namespace rr::core {

// Wire-behavior knobs a transport applies to the hops it establishes.
// Threaded HopTable -> Transport::Connect so api::Runtime::Options can set
// them once for every channel of a workflow.
struct TransportOptions {
  // Bound on one transfer's blocking waits. A dead or stalled peer surfaces
  // as kDeadlineExceeded within this bound instead of hanging the transfer.
  // Non-positive = unbounded. Per hop shape:
  //  * kernel hop and network loopback hop: an idle bound on the pump's
  //    poll, which waits this long only when neither end of the hop's socket
  //    pair can make progress — a frame of any size that keeps moving is
  //    never cut off.
  //  * agent-bound hops: a progress bound on the stream's body drain; the
  //    remote invocation itself is bounded by the caller's backstop.
  Nanos transfer_deadline = std::chrono::seconds(30);
};

// One cached duplex channel between a source and a target function.
class Hop {
 public:
  virtual ~Hop() = default;

  virtual TransferMode mode() const = 0;

  // Delivers `payload` into `target`'s linear memory without invoking it:
  // the caller invokes the target itself once every leg has landed (one leg
  // for a chain node, several for a fan-in). `target` is the instance the caller leased
  // from the target function's pool (the lease outlives the call). When
  // `into` is non-null it names a destination region of exactly
  // payload.size() bytes covered by an existing registration (one slice of a
  // fan-in gather region); otherwise the hop allocates a fresh input region.
  // Fails with kFailedPrecondition on invoke-coupled hops — agent-bound
  // hops whose far side fuses delivery and invocation (Algorithm 1's
  // receive+invoke runs in the remote NodeAgent); those DispatchAsync.
  virtual Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                                       const MemoryRegion* into = nullptr) = 0;

  // Receives the transfer's terminal status once the far side has spoken:
  // the remote *invocation* outcome, carried by the agent's completion
  // frame (a handler failure arrives here immediately). On success the
  // output itself still travels through the agent's delivery callback.
  using DispatchDoneFn = std::function<void(Status)>;

  // Invoke-coupled, completion-driven dispatch: sends the payload as one
  // stream stamped with the per-transfer correlation `token` (a segmented
  // fan-in payload travels as one stream, chunked over its segments) and
  // returns without waiting for the wire. Returns non-OK only when the
  // dispatch could not be initiated — `done` then never fires. On OK,
  // `done` fires exactly once (possibly before this call returns, and
  // possibly on a reactor thread — it must not block on the dispatching
  // thread's locks). The base implementation fails with
  // kFailedPrecondition: local hops complete synchronously through Forward.
  virtual Status DispatchAsync(const Payload& payload, uint64_t token,
                               DispatchDoneFn done);

  // False once the hop's underlying wire has died — torn down by Close, or
  // killed by a transfer that failed after its frame started to move. A
  // failed transfer on a healthy hop (a typed in-sync refusal, e.g. the
  // target could not place the payload) leaves healthy() true: callers must
  // NOT evict such hops, or they collapse the other transfers sharing the
  // channel.
  // Wireless (user-space) hops are always healthy.
  virtual bool healthy() const { return true; }

  // Kills the underlying wire (idempotent) without invalidating the object:
  // the HopTable calls this on eviction while other runs may still hold the
  // hop, so implementations must tolerate transfers in flight — those fail
  // with the dead channel and the object dies with its last shared owner.
  virtual void Close() {}
};

// A transport backend: establishes hops for one transfer mode.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransferMode mode() const = 0;

  // Establishes a channel between two registered endpoints. Called lazily on
  // a pair's first transfer; the returned hop is cached by the HopTable and
  // reused by every subsequent run. `options` carries the table's wire
  // options (deadlines) for the hop to apply.
  virtual Result<std::unique_ptr<Hop>> Connect(
      Endpoint& source, const Endpoint& target,
      const TransportOptions& options) = 0;
};

// The built-in backends (installed by HopTable's constructor).
std::unique_ptr<Transport> MakeUserSpaceTransport();
std::unique_ptr<Transport> MakeKernelTransport();
std::unique_ptr<Transport> MakeNetworkTransport();

}  // namespace rr::core
