// Chain drivers: one per evaluated system, each executing the paper's
// two-function workflow (a -> b, §6.1) and attributing latency to the
// components of Fig. 6a. Fan-out (a -> {b_1..b_N}) reuses the same drivers
// with fanout > 1, reproducing the scalability experiments (Figs. 9, 10).
//
// Systems:
//   RoadrunnerUser    — both functions as modules of one Wasm VM (Fig. 1b)
//   RoadrunnerKernel  — co-located sandboxes over AF_UNIX (Fig. 1c)
//   RoadrunnerNetwork — the targets behind a NodeAgent ingress, reached over
//                       the mux wire through the emulated link (Fig. 1d)
//   RunC              — native functions exchanging JSON over HTTP
//   WasmEdge          — Wasm functions serializing in-VM and exchanging JSON
//                       over WASI-mediated sockets
//
// Latency is measured "from the moment the source function sends data until
// the target function receives it" (§6): payload staging in the source and
// consumer compute in the target are outside the timed section.
//
// The three Roadrunner systems are one driver: the a -> {b_1..b_N} workflow
// as a DAG submitted through api::Runtime, with placement picking the mode,
// so the figures time the transfer paths the runtime ships. The timed
// section is the run's api::RunStats::transfer_phase (first edge start to
// last edge completion; a remote edge counts until its delivery, so it also
// carries each target's O(1) checksum handler). User and kernel placement
// report the phase whole as transfer. Network placement traces its runs and
// splits the phase: Wasm VM I/O is the mean of the run's agent `ingress:*`
// spans (the agent writing a received body into guest memory), transfer is
// the rest. Serialization is always zero.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "netsim/shaped_link.h"
#include "telemetry/metrics.h"

namespace rr::workload {

struct DriverOptions {
  // Route transfers through an emulated inter-node link. Empty = intra-node.
  std::optional<netsim::LinkConfig> link;
  // Number of target functions (fan-out degree).
  size_t fanout = 1;
  // WasmEdge baseline only: run the body escape/unescape as *interpreted*
  // bytecode (workload/guest_serde.h), reproducing the interpreter-mode
  // serialization cost regime behind the paper's Fig. 2b / Fig. 6 numbers.
  // Default off = AOT-grade serialization.
  bool interpreted_serialization = false;
};

class ChainDriver {
 public:
  virtual ~ChainDriver() = default;

  virtual std::string name() const = 0;

  // Executes one transfer of a `payload_bytes` body to every target.
  virtual Result<telemetry::RunMetrics> RunOnce(size_t payload_bytes) = 0;
};

Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerUserDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerKernelDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerNetworkDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeRunCDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeWasmEdgeDriver(DriverOptions options = {});

}  // namespace rr::workload
