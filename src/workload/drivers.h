// Chain drivers: one per evaluated system, each executing the paper's
// two-function workflow (a -> b, §6.1) and attributing latency to the
// components of Fig. 6a. Fan-out (a -> {b_1..b_N}) reuses the same drivers
// with fanout > 1, reproducing the scalability experiments (Figs. 9, 10).
//
// Systems:
//   RoadrunnerUser    — both functions as modules of one Wasm VM (Fig. 1b)
//   RoadrunnerKernel  — co-located sandboxes over AF_UNIX (Fig. 1c)
//   RoadrunnerNetwork — remote sandboxes over the virtual data hose through
//                       the emulated 100 Mbps link (Fig. 1d)
//   RunC              — native functions exchanging JSON over HTTP
//   WasmEdge          — Wasm functions serializing in-VM and exchanging JSON
//                       over WASI-mediated sockets
//
// Latency is measured "from the moment the source function sends data until
// the target function receives it" (§6): payload staging in the source and
// consumer compute in the target are outside the timed section.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/shim.h"
#include "netsim/shaped_link.h"
#include "telemetry/metrics.h"

namespace rr::workload {

struct DriverOptions {
  // Route transfers through an emulated inter-node link. Empty = intra-node.
  std::optional<netsim::LinkConfig> link;
  // Copy mode for the Roadrunner channels (paper default: shim staging).
  core::CopyMode copy_mode = core::CopyMode::kShimStaging;
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

// DAG-engine variants of the Roadrunner fan-out drivers (Figs. 9, 10): the
// a -> {b_1..b_N} experiment expressed as a real DAG and executed by
// dag::DagExecutor over a WorkflowManager registry — per-edge mode selection
// and the parallel hop scheduler replace the drivers' hand-rolled transfer
// loops. The network variant routes every edge through a NodeAgent ingress
// (optionally behind the emulated link). The timed section is the run's
// api::RunStats::transfer_phase (first edge start to last edge completion,
// a remote edge counted until its delivery), reported whole as `transfer`
// with no Wasm VM I/O split; `copy_mode` is fixed at the paper's shim
// staging.
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerDagUserDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerDagKernelDriver(DriverOptions options = {});
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerDagNetworkDriver(DriverOptions options = {});

}  // namespace rr::workload
