#include "workload.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/endpoint.h"
#include "runtime/function.h"

namespace rrbench {

using rr::Bytes;
using rr::ByteSpan;
using rr::LoadLE;
using rr::StoreLE;

namespace {

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * kKiB;
constexpr size_t kPage = 4 * kKiB;
// The map handler's per-page byte sits past the 16-byte head, so the
// request-id window of a fan-in's second part (4 MiB in) stays intact.
constexpr size_t kPageMark = 64;

// Instances per function pool (warm set = cap: no lazy growth).
constexpr size_t kPoolInstances = 4;

const rr::core::Location kVm1{"n1", "vm1"};   // shared VM: user-space edges
const rr::core::Location kOwn{"n1", ""};      // own sandbox: kernel edges
const rr::core::Location kRemote{"n2", ""};   // behind the NodeAgent

// Offered rate of the small workloads' open-loop phase, frozen: about 40%
// of what the seed serves closed-loop with 4 connections/outstanding on a
// 4-core host, so the phase measures latency, not queueing.
constexpr double kSmallOpenRps = 8000;

WorkloadDef Chain(std::string name, bool http, bool small, size_t input_bytes,
                  size_t templates, size_t outstanding) {
  WorkloadDef def(*rr::dag::DagBuilder("chain").Chain({"a", "b", "c"}).Build());
  def.name = std::move(name);
  def.http = http;
  def.small = small;
  def.open_rps = small ? kSmallOpenRps : 0;
  def.outstanding = outstanding;
  def.input_bytes = input_bytes;
  def.templates = templates;
  def.nodes = {{"a", Transform::kMap, kVm1},
               {"b", Transform::kMap, kVm1},
               {"c", Transform::kMap, kOwn}};
  return def;
}

std::map<std::string, WorkloadDef> BuildWorkloads() {
  std::map<std::string, WorkloadDef> all;
  all.emplace("http_small", Chain("http_small", /*http=*/true,
                                  /*small=*/true, 512, 64, 4));
  all.emplace("chain_large", Chain("chain_large", /*http=*/false,
                                   /*small=*/false, 8 * kMiB, 4, 2));

  WorkloadDef remote(*rr::dag::DagBuilder("chain").Chain({"a", "b"}).Build());
  remote.name = "remote_small";
  remote.small = true;
  remote.open_rps = kSmallOpenRps;
  remote.outstanding = 4;
  remote.input_bytes = kKiB;
  remote.templates = 64;
  remote.nodes = {{"a", Transform::kMap, kOwn},
                  {"b", Transform::kMap, kRemote, /*remote=*/true}};
  all.emplace("remote_small", std::move(remote));

  WorkloadDef fanout(*rr::dag::DagBuilder("fanout")
                          .AddNode("a")
                          .FanOut("a", {"b1", "b2", "r"})
                          .FanIn({"b1", "b2"}, "d")
                          .Build());
  fanout.name = "fanout_large";
  fanout.outstanding = 2;
  fanout.input_bytes = 4 * kMiB;
  fanout.templates = 4;
  fanout.nodes = {{"a", Transform::kMap, kVm1},
                  {"b1", Transform::kMap, kVm1},
                  {"b2", Transform::kMap, kOwn},
                  {"r", Transform::kDigest, kRemote, /*remote=*/true},
                  {"d", Transform::kMap, kOwn}};
  all.emplace("fanout_large", std::move(fanout));
  return all;
}

const std::map<std::string, WorkloadDef>& Workloads() {
  static const auto* all = new std::map<std::string, WorkloadDef>(
      BuildWorkloads());
  return *all;
}

bool IsChain(const WorkloadDef& def) {
  return def.dag.edge_count() + 1 == def.dag.size() &&
         def.dag.sources().size() == 1 && def.dag.sinks().size() == 1;
}

// splitmix64: fast seeded bytes for the input templates.
uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Bytes DigestOf(uint64_t name_hash, ByteSpan input) {
  Bytes out(40, 0);
  std::memcpy(out.data(), input.data(), std::min<size_t>(8, input.size()));
  StoreLE<uint64_t>(out.data() + 8, name_hash);
  StoreLE<uint64_t>(out.data() + 16, input.size());
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash = name_hash;
  uint64_t sum = 0;
  size_t i = 8;
  for (; i + 8 <= input.size(); i += 8) {
    const uint64_t word = LoadLE<uint64_t>(input.data() + i);
    hash = (hash ^ word) * kPrime;
    sum += word;
  }
  for (; i < input.size(); ++i) {
    hash = (hash ^ input[i]) * kPrime;
    sum += input[i];
  }
  StoreLE<uint64_t>(out.data() + 24, hash);
  StoreLE<uint64_t>(out.data() + 32, sum);
  return out;
}

rr::runtime::NativeHandler MakeHandler(Transform transform, uint64_t name_hash,
                                       int node, Recorder* recorder,
                                       bool corrupt) {
  return [=](ByteSpan input) -> rr::Result<Bytes> {
    const uint64_t id = input.size() >= 8 ? LoadLE<uint64_t>(input.data()) : 0;
    recorder->Mark(id, NodeEnter(node));
    Bytes out = ApplyTransform(transform, name_hash, input);
    if (corrupt) out.back() ^= 0xff;
    recorder->Mark(id, NodeExit(node));
    return out;
  };
}

// Stamps the gateway boundaries. Placed first and last in the global chain:
// OnEnter brackets the built-in interceptors' enter phases, OnReturn their
// return phases.
class MarkInterceptor : public rr::gateway::Interceptor {
 public:
  MarkInterceptor(Recorder* recorder, bool first)
      : recorder_(recorder), first_(first) {}

  std::string_view name() const override {
    return first_ ? "bench-first" : "bench-last";
  }

  rr::Status OnEnter(rr::gateway::RequestContext& ctx) override {
    const Bytes& body = ctx.request.body;
    if (body.size() >= 8) {
      recorder_->Mark(LoadLE<uint64_t>(body.data()),
                      first_ ? kEnterFirst : kEnterLast);
    }
    return rr::Status::Ok();
  }

  void OnReturn(rr::gateway::RequestContext& ctx) override {
    const rr::Buffer& body = ctx.response.body;
    if (body.chunk_count() > 0 && body.chunk(0).size() >= 8) {
      recorder_->Mark(LoadLE<uint64_t>(body.chunk(0).data()),
                      first_ ? kReturnFirst : kReturnLast);
    }
  }

 private:
  Recorder* const recorder_;
  const bool first_;
};

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  const auto it = Workloads().find(name);
  return it != Workloads().end() ? &it->second : nullptr;
}

Topology TopologyOf(const WorkloadDef& def) {
  Topology topology;
  topology.http = def.http;
  topology.open_loop = def.small;
  for (size_t i = 0; i < def.dag.size(); ++i) {
    const rr::dag::DagNode& dag_node = def.dag.node(i);
    const NodeDef& node = def.nodes[i];
    Topology::Node out;
    out.name = node.name;
    out.remote = node.remote;
    for (size_t pred : dag_node.preds) out.preds.push_back(static_cast<int>(pred));
    if (out.preds.size() > 1) {
      out.edge = "fanin";
    } else if (out.preds.size() == 1) {
      switch (rr::core::SelectMode(def.nodes[dag_node.preds[0]].location,
                                   node.location)) {
        case rr::core::TransferMode::kUserSpace: out.edge = "user"; break;
        case rr::core::TransferMode::kKernelSpace: out.edge = "kernel"; break;
        case rr::core::TransferMode::kNetwork: out.edge = "remote"; break;
      }
    }
    topology.nodes.push_back(std::move(out));
  }
  for (size_t sink : def.dag.sinks()) topology.sinks.push_back(static_cast<int>(sink));
  return topology;
}

uint64_t NameHash(const std::string& name) { return rr::Fnv1a(rr::AsBytes(name)); }

Bytes ApplyTransform(Transform transform, uint64_t name_hash, ByteSpan input) {
  if (transform == Transform::kDigest) return DigestOf(name_hash, input);
  Bytes out(input.begin(), input.end());
  if (out.size() >= 16) StoreLE<uint64_t>(out.data() + 8, name_hash);
  const uint8_t tag = static_cast<uint8_t>(name_hash) | 1;
  for (size_t i = kPageMark; i < out.size(); i += kPage) out[i] ^= tag;
  return out;
}

Inputs::Inputs(const WorkloadDef& def, uint64_t seed)
    : input_bytes_(def.input_bytes) {
  uint64_t state = seed ^ NameHash(def.name);
  for (size_t k = 0; k < def.templates; ++k) {
    auto bytes = std::make_shared<Bytes>(def.input_bytes);
    for (size_t i = 0; i < bytes->size(); i += 8) {
      const uint64_t word = SplitMix(state);
      std::memcpy(bytes->data() + i, &word,
                  std::min<size_t>(8, bytes->size() - i));
    }
    std::memset(bytes->data(), 0, 8);  // the request-id window

    // The reference: run the DAG's transforms in topological order. A
    // fan-out hands every successor the same bytes, a fan-in concatenates
    // its predecessors in edge order, and the result concatenates the sinks
    // in declaration order.
    std::vector<Expected> outputs(def.dag.size());
    for (size_t index : def.dag.topo_order()) {
      const rr::dag::DagNode& node = def.dag.node(index);
      Expected in;
      if (node.preds.empty()) {
        in.bytes = *bytes;
        in.id_offsets = {0};
      }
      for (size_t pred : node.preds) {
        for (size_t offset : outputs[pred].id_offsets) {
          in.id_offsets.push_back(in.bytes.size() + offset);
        }
        rr::AppendBytes(in.bytes, outputs[pred].bytes);
      }
      const NodeDef& def_node = def.nodes[index];
      outputs[index].bytes = ApplyTransform(
          def_node.transform, NameHash(def_node.name), in.bytes);
      // digest hashes bytes [8,n): its output is id-free past [0,8), which
      // holds only while its input carries no id beyond [0,8).
      outputs[index].id_offsets =
          def_node.transform == Transform::kMap ? in.id_offsets
                                                : std::vector<size_t>{0};
    }
    Expected expected;
    for (size_t sink : def.dag.sinks()) {
      for (size_t offset : outputs[sink].id_offsets) {
        expected.id_offsets.push_back(expected.bytes.size() + offset);
      }
      rr::AppendBytes(expected.bytes, outputs[sink].bytes);
    }
    expected_.push_back(std::move(expected));
    templates_.push_back(rr::Buffer::Wrap(std::move(bytes)));
  }
}

rr::Buffer Inputs::Payload(uint64_t id) const {
  const rr::Buffer& source = templates_[id % templates_.size()];
  if (input_bytes_ <= 64 * kKiB) {
    Bytes bytes(source.Flat().begin(), source.Flat().end());
    StoreLE<uint64_t>(bytes.data(), id);
    return rr::Buffer::Adopt(std::move(bytes));
  }
  Bytes head(8);
  StoreLE<uint64_t>(head.data(), id);
  rr::Buffer payload = rr::Buffer::Adopt(std::move(head));
  payload.Append(source.Slice(8, input_bytes_ - 8));
  return payload;
}

void Inputs::AppendBody(uint64_t id, std::string* out) const {
  const ByteSpan bytes = templates_[id % templates_.size()].Flat();
  const size_t at = out->size();
  out->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  std::memcpy(out->data() + at, &id, 8);
}

bool Verify(const rr::BufferView& output, const Expected& expected,
            uint64_t id) {
  if (output.size() != expected.bytes.size()) return false;
  uint8_t id_bytes[8];
  StoreLE<uint64_t>(id_bytes, id);
  size_t pos = 0;
  for (size_t s = 0; s < output.segment_count(); ++s) {
    const ByteSpan segment = output.segment(s);
    size_t off = 0;
    while (off < segment.size()) {
      const size_t at = pos + off;
      // Compare up to the next id-window edge against the reference, or
      // the rest of the window against the id.
      size_t run = segment.size() - off;
      const uint8_t* want = expected.bytes.data() + at;
      for (size_t window : expected.id_offsets) {
        if (at >= window && at < window + 8) {
          want = id_bytes + (at - window);
          run = std::min(run, window + 8 - at);
        } else if (window > at) {
          run = std::min(run, window - at);
        }
      }
      if (std::memcmp(segment.data() + off, want, run) != 0) return false;
      off += run;
    }
    pos += segment.size();
  }
  return true;
}

rr::Result<std::unique_ptr<System>> StartSystem(const WorkloadDef& def,
                                                Recorder* recorder,
                                                bool corrupt) {
  auto system = std::make_unique<System>();
  system->vm = std::make_unique<rr::runtime::WasmVm>("rr-bench");
  system->runtime = std::make_unique<rr::api::Runtime>("rr-bench");
  const bool any_remote =
      std::any_of(def.nodes.begin(), def.nodes.end(),
                  [](const NodeDef& node) { return node.remote; });
  if (any_remote) {
    RR_ASSIGN_OR_RETURN(system->agent, rr::core::NodeAgent::Start(0));
  }

  const Bytes binary = rr::runtime::BuildFunctionModuleBinary();
  rr::runtime::PoolOptions pool_options;
  pool_options.min_warm = kPoolInstances;
  pool_options.max_instances = kPoolInstances;
  const size_t last_sink = def.dag.sinks().back();
  for (size_t i = 0; i < def.nodes.size(); ++i) {
    const NodeDef& node = def.nodes[i];
    rr::runtime::FunctionSpec spec;
    spec.name = node.name;
    spec.workflow = "rr-bench";
    std::shared_ptr<rr::core::ShimPool> pool;
    if (node.location.vm.empty()) {
      RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::Create(
                                    std::move(spec), binary, {}, pool_options));
    } else {
      RR_ASSIGN_OR_RETURN(pool, rr::core::ShimPool::CreateInVm(
                                    *system->vm, std::move(spec), binary, {},
                                    pool_options));
    }
    const int index = static_cast<int>(i);
    RR_RETURN_IF_ERROR(pool->Deploy(
        MakeHandler(node.transform, NameHash(node.name), index, recorder,
                    corrupt && i == last_sink)));
    rr::core::Endpoint endpoint;
    endpoint.pool = pool;
    endpoint.location = node.location;
    if (node.remote) {
      endpoint.port = system->agent->port();
      // Stamps when the remote output reaches the executor, then forwards.
      auto sink = system->runtime->DeliverySink();
      RR_RETURN_IF_ERROR(system->agent->RegisterFunction(
          pool, [sink, recorder, index](const std::string& function,
                                        rr::core::InvokeOutcome outcome,
                                        uint64_t token,
                                        rr::core::ShimLease instance) {
            if (recorder->active() && instance) {
              // The instance's region table is shared with payloads of
              // earlier invocations that release under exec_mutex.
              uint64_t id = 0;
              {
                rr::MutexLock lock(instance->exec_mutex());
                const auto view = instance->OutputView(outcome.output);
                if (view.ok() && view->size() >= 8) {
                  id = LoadLE<uint64_t>(view->data());
                }
              }
              if (id != 0) recorder->Mark(id, NodeDelivered(index));
            }
            sink(function, std::move(outcome), token, std::move(instance));
          }));
    }
    RR_RETURN_IF_ERROR(system->runtime->Register(std::move(endpoint)));
    system->pools.push_back(std::move(pool));
  }

  // Chains go through ChainSpec, the API a caller of a linear pipeline uses.
  rr::api::Runtime* runtime = system->runtime.get();
  rr::api::ChainSpec chain;
  if (IsChain(def)) {
    for (size_t index : def.dag.topo_order()) {
      chain.functions.push_back(def.dag.node(index).name);
    }
    system->submit = [runtime, chain](rr::Buffer input) {
      return runtime->Submit(chain, std::move(input));
    };
  } else {
    const rr::api::DagSpec spec{def.dag, std::nullopt};
    system->submit = [runtime, spec](rr::Buffer input) {
      return runtime->Submit(spec, std::move(input));
    };
  }
  if (!def.http) return system;

  // The full built-in chain, with limits set so nothing sheds.
  rr::gateway::AuthInterceptor::Options auth;
  auth.token_to_tenant = {{kToken, "bench"}};
  auth.allow_anonymous = false;
  rr::gateway::AdmissionInterceptor::Options admission;
  admission.max_inflight_runs = 4096;
  admission.max_avg_lease_wait_seconds = 1.0;
  admission.inflight = [runtime] { return runtime->in_flight(); };
  rr::gateway::Gateway::Options options;
  options.interceptors = {
      std::make_shared<MarkInterceptor>(recorder, /*first=*/true),
      std::make_shared<rr::gateway::RequestIdInterceptor>(),
      std::make_shared<rr::gateway::AuthInterceptor>(auth),
      std::make_shared<rr::gateway::BodyLimitInterceptor>(kMiB),
      std::make_shared<rr::gateway::RateLimitInterceptor>(1e6, 1'000'000),
      std::make_shared<rr::gateway::AdmissionInterceptor>(admission),
      std::make_shared<MarkInterceptor>(recorder, /*first=*/false)};
  RR_ASSIGN_OR_RETURN(system->gateway,
                      rr::gateway::Gateway::Start(runtime, options));
  RR_RETURN_IF_ERROR(system->gateway->AddRoute(kRoute, chain));
  return system;
}

}  // namespace rrbench
