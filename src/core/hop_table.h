// HopTable: the per-pair cache of established local hops, plus one client
// per remote agent, shared by every executor that moves data between
// registered functions.
//
// Local hops (core/transport.h): placement selects the mode, ConnectHop
// establishes the Hop on a pair's first use, and the cached hop serves
// every subsequent run, so steady-state transfers never pay connection
// setup. Agent clients (core/mux_client.h): a function behind a remote
// NodeAgent is reached through one MuxClient per agent address — one
// connection carrying every transfer to that agent as a stream — all
// running on one lazily started `mux-client` reactor. The executor looks
// the client up per dispatch (AgentClient) and starts the stream itself.
// The table also hosts the failure-recovery plane's per-replica CIRCUIT
// BREAKERS (resilience/breaker.h), keyed by (target function, replica):
// AdmitDispatch gates a dispatch in microseconds when a replica has proven
// dead, RecordDispatchOutcome feeds the state machine, and the snapshot /
// retry-after accessors surface breaker state to /healthz and the gateway's
// 503 Retry-After. Breakers are disabled (threshold 0) until
// set_breaker_options arms them — api::Runtime threads its
// ResiliencePolicy here.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/endpoint.h"
#include "core/transport.h"
#include "resilience/breaker.h"

namespace rr::osal {
class Reactor;
}  // namespace rr::osal

namespace rr::core {

class MuxClient;

class HopTable {
 public:
  HopTable() = default;
  // Closes every agent client first — their in-flight streams fail with
  // kUnavailable and fire their callbacks — then stops the reactor they ran
  // on.
  ~HopTable();

  HopTable(const HopTable&) = delete;
  HopTable& operator=(const HopTable&) = delete;

  // Sets the wire options (per-transfer deadlines). Hops established from
  // now on apply them; already-established hops keep the options they
  // connected with — Evict the affected pairs to re-establish. Agent streams
  // read them at each dispatch. api::Runtime threads its Options here before
  // any hop exists.
  void set_wire_options(TransportOptions options);
  TransportOptions wire_options() const;

  // Returns the cached local hop for (source → target), establishing it with
  // ConnectHop in the placement-selected mode on first use. Establishment of
  // distinct pairs proceeds in parallel (per-slot mutex, not the table-wide
  // lock). The returned reference is shared: a concurrent Evict closes the
  // hop's wire but the object outlives every holder, so in-flight transfers
  // fail cleanly instead of touching freed memory. A target behind an agent
  // port on another node has no local hop (see ConnectHop): reach it through
  // AgentClient.
  Result<std::shared_ptr<Hop>> Get(const Endpoint& source,
                                   const Endpoint& target);

  // The shared client for the NodeAgent at `address`, created on first use
  // (the connection itself is dialed by its first stream), together with
  // the `mux-client` reactor every client runs on. Clients live until the
  // table dies: a dead connection fails its streams and the next stream
  // redials, so there is nothing to evict.
  Result<std::shared_ptr<MuxClient>> AgentClient(const AgentAddress& address);

  // --- circuit breakers (failure-recovery plane) ----------------------------

  // Arms (or reshapes) the breakers created from now on. Existing breakers
  // keep the options they were created with.
  void set_breaker_options(resilience::BreakerOptions options);

  // Gates one dispatch to (function, replica): Ok from a closed breaker or
  // an elapsed-cooldown probe, a typed kUnavailable (microseconds, never a
  // wire wait) while the replica is proven dead. Creates the breaker on
  // first use — before any failure can occur, so its state gauge scrapes as
  // closed from the first dispatch.
  Status AdmitDispatch(const std::string& function, size_t replica);

  // Feeds an admitted dispatch's terminal status to its breaker (wire-level
  // failures advance the trip streak; anything else resets it) and updates
  // the rr_breaker_state gauge.
  void RecordDispatchOutcome(const std::string& function, size_t replica,
                             const Status& status);

  struct BreakerInfo {
    std::string function;
    size_t replica = 0;
    resilience::BreakerState state = resilience::BreakerState::kClosed;
  };
  // Every breaker's current state (for /healthz).
  std::vector<BreakerInfo> BreakerSnapshot() const;

  // Time until the EARLIEST open breaker admits its half-open probe — the
  // gateway's Retry-After hint. nullopt when no breaker is open.
  std::optional<Nanos> OpenBreakerRetryAfter() const;

  // Drops (and Close()s) every cached hop whose source or target is `name`,
  // so no hop keeps a connection whose peer is being replaced (control
  // plane) or whose wire has died. Transfers still in flight on an evicted
  // hop fail with the closed wire and release their shared ownership; the
  // next Get establishes a fresh hop. Returns the number evicted.
  size_t Evict(const std::string& name);

  size_t size() const;

 private:
  // (source function, target function).
  using PairKey = std::pair<std::string, std::string>;

  // One cache slot per pair. The slot mutex serializes establishment so
  // concurrent first-use of distinct pairs connects in parallel instead of
  // serializing on the table lock. Shared ownership: an Evict racing an
  // establishment detaches the slot from the map and the straggler's hop
  // dies with its last user.
  struct Slot {
    Mutex mutex;
    std::shared_ptr<Hop> hop RR_GUARDED_BY(mutex);
  };

  // Returns the (function, replica) breaker, creating it under mutex_ on
  // first use with the current breaker options.
  resilience::CircuitBreaker& BreakerFor(const std::string& function,
                                         size_t replica);

  mutable Mutex mutex_;
  TransportOptions wire_options_ RR_GUARDED_BY(mutex_);
  resilience::BreakerOptions breaker_options_ RR_GUARDED_BY(mutex_){
      .failure_threshold = 0};
  std::map<PairKey, std::shared_ptr<Slot>> slots_ RR_GUARDED_BY(mutex_);
  // Breakers are created once and never erased (a replica's state must
  // outlive the runs that saw it fail); unique_ptr keeps them address-stable
  // under map rebalancing.
  std::map<std::pair<std::string, size_t>,
           std::unique_ptr<resilience::CircuitBreaker>>
      breakers_ RR_GUARDED_BY(mutex_);

  // Agent clients, keyed by (host, port). The table owns the reactor: a
  // client holds it only weakly (see MuxClient::reactor_), so the teardown
  // order — clients closed, then the reactor stopped — stays off the loop
  // thread.
  struct AddressLess {
    bool operator()(const AgentAddress& a, const AgentAddress& b) const {
      return std::tie(a.host, a.port) < std::tie(b.host, b.port);
    }
  };
  Mutex clients_mutex_;
  std::shared_ptr<osal::Reactor> client_reactor_ RR_GUARDED_BY(clients_mutex_);
  std::map<AgentAddress, std::shared_ptr<MuxClient>, AddressLess> clients_
      RR_GUARDED_BY(clients_mutex_);
};

}  // namespace rr::core
