// The local transport layer: one `Hop` interface over the placement-selected
// transfer mechanisms that deliver into a leased local instance (user space,
// kernel space, the in-process network loopback — §3.2.3), established by one
// function, ConnectHop, so executors move data without ever switching on the
// mode. A function behind a remote NodeAgent is not reached through a hop:
// the executor streams its frame to the agent's MuxClient, which the HopTable
// holds one of per agent address (core/hop_table.h).
//
// A Hop is one established, cached channel between a (source, target) pair.
// Hops speak the zero-copy payload plane (core/payload.h): a guest-resident
// payload is read in place from the producer's linear memory by every hop
// (the single user-space copy, or one socket frame pumped guest to guest by
// the kernel hop and the network loopback hop), while a host-resident
// payload — the shared chunk an N-way fan-out hands to every successor — is
// read zero-copy from its ref-counted storage, with the socket hops
// performing vectored writes over the chunks.
//
// Hops are internally synchronized: concurrent workflow invocations may
// forward over the same hop (a hop's single wire is what they serialize
// on). Callers pass the *leased* target instance into Forward — the pool
// layer routes concurrent transfers into one function onto distinct
// instances, so they proceed in parallel; each instance's exec mutex is
// taken only around the memory-plane phase, synchronizing against payload
// readers of regions still resident in that instance.
#pragma once

#include <memory>

#include "core/endpoint.h"
#include "core/payload.h"

namespace rr::core {

// Wire-behavior knobs applied to the hops ConnectHop establishes and to the
// streams the executor starts on agent clients. Threaded through the
// HopTable so api::Runtime::Options can set them once for every channel of a
// workflow.
struct TransportOptions {
  // Bound on one transfer's blocking waits. A dead or stalled peer surfaces
  // as kDeadlineExceeded within this bound instead of hanging the transfer.
  // Non-positive = unbounded. Per hop shape:
  //  * kernel hop and network loopback hop: an idle bound on the pump's
  //    poll, which waits this long only when neither end of the hop's socket
  //    pair can make progress — a frame of any size that keeps moving is
  //    never cut off.
  //  * agent streams: a progress bound on the stream's body drain; the
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
  virtual Result<MemoryRegion> Forward(const Payload& payload, Shim& target,
                                       const MemoryRegion* into = nullptr) = 0;

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

// Establishes the hop for one (source → target) pair in `mode` — the mode
// placement selects for the pair. Called lazily on a pair's first transfer;
// the HopTable caches the hop for every subsequent run. `options` carries
// the table's wire options (deadlines) for the hop to apply.
//  * user space: the trust check, then a hop with no wire state at all;
//  * kernel space: an AF_UNIX pair;
//  * network: a 127.0.0.1 TCP pair, the in-process stand-in for the remote
//    node's shim port. A target with an agent port is refused: its node's
//    NodeAgent receives and invokes, so it is reached through the agent's
//    client, never through a local hop.
Result<std::unique_ptr<Hop>> ConnectHop(TransferMode mode,
                                        const Endpoint& source,
                                        const Endpoint& target,
                                        const TransportOptions& options);

}  // namespace rr::core
