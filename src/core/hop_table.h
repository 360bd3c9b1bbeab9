// HopTable: the per-pair cache of established hops, shared by every executor
// that moves data between registered functions.
//
// The table fronts the polymorphic Transport layer (core/transport.h):
// placement selects the mode, the mode's Transport establishes a Hop on a
// pair's first use, and executors speak only the Hop interface. Hops
// persist across runs, so steady-state transfers never pay connection
// setup, and additional backends register without executor changes.
// The table also hosts the failure-recovery plane's per-hop CIRCUIT
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
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/endpoint.h"
#include "core/transport.h"
#include "resilience/breaker.h"

namespace rr::core {

class HopTable {
 public:
  // Installs the three built-in transports (user / kernel / network).
  HopTable();

  // Sets the wire options (per-transfer deadlines) applied to hops
  // established from now on. Already-established hops keep the options they
  // connected with — Evict the affected pairs to re-establish. api::Runtime
  // threads its Options here before any hop exists.
  void set_wire_options(TransportOptions options);

  // Installs `transport` as the backend for its mode, replacing the built-in.
  // Safe while transfers are in flight: an establishment already running on
  // the old backend completes on it (shared ownership), and
  // already-established hops keep serving until evicted — callers that swap
  // a backend mid-flight should Evict the affected endpoints.
  Status RegisterTransport(std::unique_ptr<Transport> transport);

  // Returns the cached hop for (source → target), establishing it through
  // the placement-selected transport on first use. Establishment of distinct
  // pairs proceeds in parallel (per-slot mutex, not the table-wide lock).
  // The returned reference is shared: a concurrent Evict closes the hop's
  // wire but the object outlives every holder, so in-flight transfers fail
  // cleanly instead of touching freed memory. `replica` > 0 connects to the
  // target's failover address of that index instead of its primary
  // (host, port) — each replica gets its own cache slot and its own wire.
  Result<std::shared_ptr<Hop>> Get(Endpoint& source, const Endpoint& target,
                                   size_t replica = 0);

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
  // plane) or has proven dead (a remote delivery timeout). Transfers still
  // in flight on an evicted hop fail with the closed wire and release their
  // shared ownership; the next Get establishes a fresh hop. Returns the
  // number evicted.
  size_t Evict(const std::string& name);

  size_t size() const;

 private:
  // (source function, target function, target replica index).
  using PairKey = std::tuple<std::string, std::string, size_t>;

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
  std::map<TransferMode, std::shared_ptr<Transport>> transports_
      RR_GUARDED_BY(mutex_);
  std::map<PairKey, std::shared_ptr<Slot>> slots_ RR_GUARDED_BY(mutex_);
  // Breakers are created once and never erased (state must survive hop
  // eviction — eviction is exactly when a breaker matters); unique_ptr keeps
  // them address-stable under map rebalancing.
  std::map<std::pair<std::string, size_t>,
           std::unique_ptr<resilience::CircuitBreaker>>
      breakers_ RR_GUARDED_BY(mutex_);
};

}  // namespace rr::core
