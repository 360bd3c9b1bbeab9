// NodeAgent: the per-node ingress for network-mode transfers.
//
// The paper's deployment runs one shim per function; transfers from another
// node arrive at the node's address and must reach the right function's
// shim. NodeAgent owns that ingress: an event-driven plane speaking the
// multiplexed wire (mux_protocol.h). One epoll reactor thread per core-shard
// multiplexes every connection — no thread per connection, no blocking
// header park. Connections are round-robined across shards at accept; each
// shard's loop leases the target function's instance when a stream opens,
// places the stream's input region in that instance's linear memory, and
// receives the body straight into it. Completed streams go to a fixed
// invoke-worker pool (the only place Wasm runs), so ten thousand idle or
// trickling peers cost table entries, not threads.
//
// Every connection must open with the mux preamble; any other first bytes
// are connection-fatal. On a mux connection many streams run concurrently:
// interleaved chunk frames, per-stream flow-control windows, and completion
// frames that carry the *invocation* outcome back to the sender (a remote
// handler failure fails the sender's edge immediately instead of waiting out
// its delivery deadline). Connections idle past Options::idle_timeout with
// nothing in flight are swept; senders re-establish transparently on their
// next dispatch.
//
// Instance pools: each registered function is backed by a ShimPool; every
// stream leases its own instance from open until its invoke, so concurrent
// transfers into one function fan out across the pool. Leasing never waits:
// a stream that finds the pool empty waits in a bounded waiting room,
// buffering at most its initial window, and lands as soon as an instance
// returns. A stream that waits past the pool's acquire_timeout is refused
// with kResourceExhausted.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/shim.h"
#include "core/shim_pool.h"
#include "osal/socket.h"

namespace rr::core {

// True for accept(2) failures an ingress should ride out (fd exhaustion,
// aborted handshakes) rather than die on. Exposed for tests.
bool IsTransientAcceptError(const Status& status);

class NodeAgent {
 public:
  struct Options {
    // Bounds how long a connection may sit mid-frame, and a stream mid-body,
    // without progress before it is dropped. The sender-side transfer
    // deadline is the other half of the bound; together they guarantee a
    // wedged peer frees its receive state and the instance its stream holds.
    // Non-positive = unbounded.
    Nanos transfer_deadline = std::chrono::seconds(30);

    // Plane shape. 0 = pick from the CPUs this process may run on
    // (osal::UsableCpus). Shards are epoll loops (connections round-robin
    // across them); invoke workers are the only threads that run Wasm.
    // Total agent threads = shards + invoke_workers, independent of
    // connection or stream count.
    size_t shards = 0;
    size_t invoke_workers = 0;

    // Connections with no frame mid-receive, no stream open, and no invoke
    // in flight for this long are closed. Senders reconnect transparently
    // on their next dispatch. Non-positive = never swept.
    Nanos idle_timeout = std::chrono::seconds(60);

    // Admission caps, per connection (0 = the build default, in
    // parentheses). An open frame past either cap is refused with a typed
    // kResourceExhausted completion — stream-fatal, never connection-fatal.
    // `max_conn_staged_bytes` bounds COMMITTED body bytes: window credit
    // granted but unreceived, bytes received into leased regions or waiting
    // prefixes, and bytes in invoke — a hard memory bound (a region's pages
    // commit only as bytes land), enforced by treating data beyond a
    // stream's granted window as a flow-control violation (connection-fatal).
    size_t max_conn_streams = 0;       // (4096)
    size_t max_conn_staged_bytes = 0;  // (128 MiB)
  };

  // Called after a payload has been delivered and the function invoked
  // successfully, on the invoke worker, BEFORE the stream's completion frame
  // is queued: a sender that observes the completion knows the callback has
  // returned. Whatever the consumer does here (finishing a run, say) delays
  // that frame. The outcome's output region lives in `instance` — the pool
  // lease the agent acquired for this stream; the consumer keeps it until
  // the output is egressed or released (dropping it returns the instance to
  // the pool). `token` is the stream's correlation token: the consumer
  // matches the completion to the exact transfer that sent it (0 = sender
  // did not track the transfer).
  using DeliveryCallback =
      std::function<void(const std::string& function, InvokeOutcome outcome,
                         uint64_t token, ShimLease instance)>;

  // Binds the node ingress on 127.0.0.1:port (0 = ephemeral).
  static Result<std::unique_ptr<NodeAgent>> Start(uint16_t port);
  static Result<std::unique_ptr<NodeAgent>> Start(uint16_t port,
                                                  Options options);

  ~NodeAgent();

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  uint16_t port() const { return listener_.port(); }

  // Makes a local function reachable from remote nodes. The pool overload
  // shares ownership; the bare-shim overload adopts the shim as a pool of 1
  // (memoized — a WorkflowManager registration of the same shim shares it),
  // and the shim must outlive the agent's Shutdown: a stream holds its
  // instance from open until its invoke, unregistering or not.
  Status RegisterFunction(std::shared_ptr<ShimPool> pool,
                          DeliveryCallback on_delivery = {});
  Status RegisterFunction(Shim* shim, DeliveryCallback on_delivery = {});
  Status UnregisterFunction(const std::string& name);

  uint64_t transfers_completed() const { return transfers_completed_.load(); }

  // Streams refused with a typed kResourceExhausted completion frame: one
  // that waited for an instance past its pool's acquire_timeout, or an open
  // past the admission caps. Each one failed exactly one sender-side
  // transfer.
  uint64_t transfers_refused() const { return transfers_refused_.load(); }

  // Connections currently served. Observability for the idle-sweep tests.
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  void Shutdown();

 private:
  struct ReactorPlane;
  friend struct ReactorPlane;

  // Out-of-line: ReactorPlane is incomplete here.
  NodeAgent(osal::TcpListener listener, Options options);

  // One registered function. Shared by the registry and every stream that
  // resolved to it, so an open costs a refcount, not a callback copy.
  struct Entry {
    std::shared_ptr<ShimPool> pool;
    DeliveryCallback on_delivery;
    // Streams in the waiting room for this function, per shard: invoke
    // workers read it to decide which shards to wake when an instance
    // returns.
    std::vector<std::atomic<size_t>> waiting;
  };

  osal::TcpListener listener_;
  const Options options_;
  Mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>, std::less<>> functions_
      RR_GUARDED_BY(mutex_);
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> transfers_completed_{0};
  std::atomic<uint64_t> transfers_refused_{0};
  std::atomic<size_t> active_connections_{0};
  std::unique_ptr<ReactorPlane> reactor_plane_;
};

}  // namespace rr::core
