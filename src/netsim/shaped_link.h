// Software network emulation standing in for the paper's two-node testbed.
//
// §6.2: "we limit the available bandwidth to 100 Mbps using Linux traffic
// control (tc), and observe a stable round-trip latency of 1 ms between
// nodes". ShapedLink reproduces that link as a TCP relay: byte-accurate
// token-bucket bandwidth shaping plus a pipelined delay line (propagation
// delay is added once per packet *in flight*, not per chunk serially, so
// bulk transfers see bandwidth-dominated latency exactly like a real link).
//
// Topology:   client ──tcp──► ShapedLink ──tcp──► server
// Both hops are loopback; the shaping happens in the relay.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/token_bucket.h"
#include "osal/socket.h"

namespace rr::netsim {

struct LinkConfig {
  // 100 Mbit/s in bytes per second, as in the paper's testbed.
  double bandwidth_bytes_per_sec = 100e6 / 8;
  // One-way propagation delay; 0.5 ms each way = the paper's 1 ms RTT.
  Nanos one_way_delay = std::chrono::microseconds(500);
  // Relay read granularity (an MTU-sized burst would be unrealistically
  // small for loopback; 64 KiB approximates large-segment offload).
  size_t chunk_bytes = 64 * 1024;
  // Link buffer per direction; bounds memory and models router queueing.
  size_t buffer_bytes = 4 * 1024 * 1024;

  static LinkConfig Unshaped() {
    LinkConfig config;
    config.bandwidth_bytes_per_sec = 1e12;
    config.one_way_delay = Nanos(0);
    return config;
  }
};

// A TCP relay applying LinkConfig in both directions.
class ShapedLink {
 public:
  // Listens on an ephemeral loopback port; forwards every accepted
  // connection to target_port with shaping applied.
  static Result<std::unique_ptr<ShapedLink>> Start(uint16_t target_port,
                                                   LinkConfig config = {});

  ~ShapedLink();

  ShapedLink(const ShapedLink&) = delete;
  ShapedLink& operator=(const ShapedLink&) = delete;

  uint16_t port() const { return listener_.port(); }
  const LinkConfig& config() const { return config_; }

  // Bytes written to either side so far. A pump counts a chunk after
  // writing it, so while the link runs this may trail the bytes a peer has
  // already received; after Shutdown() it is final.
  uint64_t bytes_forwarded() const { return bytes_forwarded_.load(); }

  void Shutdown();

 private:
  ShapedLink(osal::TcpListener listener, uint16_t target_port, LinkConfig config)
      : listener_(std::move(listener)),
        target_port_(target_port),
        config_(config),
        uplink_bucket_(config.bandwidth_bytes_per_sec, config.chunk_bytes * 2),
        downlink_bucket_(config.bandwidth_bytes_per_sec, config.chunk_bytes * 2) {}

  void AcceptLoop();
  // Reads from `src`, shapes with `bucket`, and releases to `dst` after the
  // propagation delay (pipelined through a bounded queue).
  void Pump(int src_fd, int dst_fd, TokenBucket& bucket);

  osal::TcpListener listener_;
  uint16_t target_port_;
  LinkConfig config_;
  // One bucket per direction, shared by all connections: the link is the
  // bottleneck, not the flow.
  TokenBucket uplink_bucket_;
  TokenBucket downlink_bucket_;
  Mutex bucket_mutex_;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> bytes_forwarded_{0};
  std::thread accept_thread_;
  Mutex workers_mutex_;
  std::vector<std::thread> workers_ RR_GUARDED_BY(workers_mutex_);
  std::vector<std::pair<osal::Connection, osal::Connection>> live_pairs_
      RR_GUARDED_BY(workers_mutex_);
};

// Convenience: measured one-way latency floor of a link config for a payload
// of `bytes` (propagation + transmission time). Used by benches to sanity-
// check the emulation.
double TheoreticalTransferSeconds(const LinkConfig& config, uint64_t bytes);

}  // namespace rr::netsim
