// Placement-driven communication-mode selection.
//
// "Roadrunner optimizes communication regardless of the scheduler's
// decisions" (§2.2): the orchestrator places functions wherever it likes;
// given the resulting placement, the shim picks the cheapest mode —
// user space within one VM, kernel space within one host, network across
// hosts (§3.2.3, §7 Benefits and Trade-Offs).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/shim.h"
#include "core/shim_pool.h"

namespace rr::obs {
class Counter;
}  // namespace rr::obs

namespace rr::core {

enum class TransferMode { kUserSpace, kKernelSpace, kNetwork };

std::string_view TransferModeName(TransferMode mode);

// The rr_channel_bytes_total series every local channel and hop counts its
// payload bytes in: `mode` "user", "kernel" or "network", `direction` "sent"
// or "received". Each call is a registry lookup; keep the reference.
obs::Counter& ChannelBytes(TransferMode mode, const char* direction);

// Where a function instance lives, as the orchestrator reports it.
struct Location {
  std::string node;  // host identity
  std::string vm;    // Wasm VM identity within the node ("" = dedicated VM)

  bool SameVm(const Location& other) const {
    return node == other.node && !vm.empty() && vm == other.vm;
  }
  bool SameNode(const Location& other) const { return node == other.node; }
};

// Picks the cheapest mode the placement allows (Table of §7 trade-offs).
TransferMode SelectMode(const Location& source, const Location& target);

// One NodeAgent ingress address. Replica 0 of every endpoint is its
// (host, port) pair; additional replicas — other agents serving the same
// function — ride in Endpoint::failover.
struct AgentAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// A registered function: its instance pool plus placement and (for remote
// placements) the ingress address of its node. A non-zero port means the
// function is reached through its node's NodeAgent ingress; port 0 means
// transfers may establish an in-process loopback hop on demand.
//
// `shim` is the function's identity/prototype instance — name, spec, and
// trust checks read it. `pool` is the per-function instance pool every
// invocation leases from; registering a bare Endpoint{shim} (the pre-pool
// API) adopts the shim as a fixed pool of 1, which reproduces the old
// serialized behavior. Setting `pool` alone is enough: `shim` defaults to
// the pool's prototype.
struct Endpoint {
  Shim* shim = nullptr;
  std::shared_ptr<ShimPool> pool;
  Location location;
  std::string host = "127.0.0.1";  // network-mode ingress (replica 0)
  uint16_t port = 0;

  // Failover replicas: additional agent ingresses serving this function.
  // The executor's resilience engine dispatches to replica 0 first and
  // fails over in declaration order (wrapping) when a replica's breaker is
  // open or its retry attempts are spent.
  std::vector<AgentAddress> failover;

  size_t replica_count() const { return 1 + failover.size(); }
  AgentAddress replica_address(size_t index) const {
    return index == 0 ? AgentAddress{host, port} : failover[index - 1];
  }

  // Leases an instance for one node invocation (see ShimPool::Lease). A
  // pool-less endpoint adopts its shim per call (memoized, so every call
  // reaches the same pool), so endpoints built outside a WorkflowManager
  // keep working — without mutating the endpoint, which may be shared.
  Result<ShimLease> Lease();
};

}  // namespace rr::core
