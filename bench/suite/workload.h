// The four rr-bench workloads: their shapes, the bench-owned function
// handlers, the reference that checks every output, and the system each
// one runs against (VM, pools, runtime, agent, gateway).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "common/buffer.h"
#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "dag/dag.h"
#include "gateway/gateway.h"
#include "runtime/wasm_sandbox.h"
#include "trace.h"

namespace rrbench {

enum class Transform { kMap, kDigest };

struct NodeDef {
  std::string name;
  Transform transform = Transform::kMap;
  rr::core::Location location;
  bool remote = false;  // served by the in-process NodeAgent on node n2
};

struct WorkloadDef {
  explicit WorkloadDef(rr::dag::Dag shape) : dag(std::move(shape)) {}

  std::string name;
  bool http = false;         // through the gateway, else Submit directly
  bool small = false;        // open-loop latency + closed-loop capacity
  double open_rps = 0;       // small workloads: frozen offered rate
  size_t outstanding = 0;    // closed loop: requests or connections
  size_t input_bytes = 0;
  size_t templates = 0;      // distinct seeded inputs, cycled by request id
  std::vector<NodeDef> nodes;  // in DAG insertion order
  rr::dag::Dag dag;
};

// The workload named `name`, or nullptr. Names: http_small, chain_large,
// remote_small, fanout_large.
const WorkloadDef* FindWorkload(const std::string& name);

Topology TopologyOf(const WorkloadDef& def);

// --- transforms ----------------------------------------------------------------
// map: the input with bytes [8,16) replaced by a hash of the function name
// and one byte per 4 KiB page flipped. digest: 40 bytes (request id, name
// hash, length, two content hashes over bytes [8,n)). Both keep the request
// id at [0,8). Handlers and the reference share them.
uint64_t NameHash(const std::string& name);
rr::Bytes ApplyTransform(Transform transform, uint64_t name_hash,
                         rr::ByteSpan input);

// --- seeded inputs and their reference outputs -------------------------------
struct Expected {
  rr::Bytes bytes;                  // request-id windows zeroed
  std::vector<size_t> id_offsets;   // where the request id must appear
};

class Inputs {
 public:
  Inputs(const WorkloadDef& def, uint64_t seed);

  // Request `id`'s payload: template id % templates with the id at [0,8).
  // Large inputs share the template's storage behind an 8-byte head chunk.
  rr::Buffer Payload(uint64_t id) const;
  // The HTTP body variant of the same bytes.
  void AppendBody(uint64_t id, std::string* out) const;

  const Expected& ExpectedFor(uint64_t id) const {
    return expected_[id % expected_.size()];
  }
  size_t input_bytes() const { return input_bytes_; }

 private:
  size_t input_bytes_;
  std::vector<rr::Buffer> templates_;  // one flat chunk each
  std::vector<Expected> expected_;
};

// True when `output` equals the reference with `id` in every id window.
bool Verify(const rr::BufferView& output, const Expected& expected,
            uint64_t id);

// --- the system under test ---------------------------------------------------
// The gateway route and the bearer token its auth stub accepts.
inline constexpr char kRoute[] = "bench";
inline constexpr char kToken[] = "rr-bench-token";

struct System {
  // Members destroyed bottom-up: gateway, agent, runtime, pools, VM.
  std::unique_ptr<rr::runtime::WasmVm> vm;
  std::vector<std::shared_ptr<rr::core::ShimPool>> pools;
  std::unique_ptr<rr::api::Runtime> runtime;
  std::unique_ptr<rr::core::NodeAgent> agent;
  std::unique_ptr<rr::gateway::Gateway> gateway;
  // Runtime::Submit with the workload's ChainSpec or DagSpec.
  std::function<rr::Result<std::shared_ptr<rr::api::Invocation>>(rr::Buffer)>
      submit;
};

// Builds the workload's system with every pool at 4 warm instances and
// runtime/agent options at their defaults. `corrupt` makes the last sink's
// handler flip one output byte (checks that verification fails the run).
rr::Result<std::unique_ptr<System>> StartSystem(const WorkloadDef& def,
                                                Recorder* recorder,
                                                bool corrupt);

}  // namespace rrbench
