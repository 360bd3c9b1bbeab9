// DAG pipeline: a diamond workflow (split -> {edge-detect, blur} -> compose)
// submitted through api::Runtime and executed by the DAG engine with
// per-edge mode selection.
//
// Placement puts `split` and `edge-detect` in one Wasm VM (user-space edge),
// `blur` in a dedicated sandbox on the same node (kernel-space edge), and
// `compose` on another node (network edges) — so one run exercises all three
// transfer modes, each hop picked from placement alone. With tracing on, it
// prints every edge's `edge:*` span beside the mode placement selects for it,
// and the run's transfer phase.
//
//   $ ./dag_pipeline
#include <cstdio>
#include <map>

#include "api/runtime.h"
#include "dag/dag.h"
#include "obs/trace.h"
#include "runtime/function.h"

using namespace rr;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "dag_pipeline failed: %s\n", status.ToString().c_str());
  return 1;
}

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "pipeline";
  return spec;
}

Result<std::unique_ptr<core::Shim>> Deploy(
    Result<std::unique_ptr<core::Shim>> shim, runtime::NativeHandler handler) {
  RR_RETURN_IF_ERROR(shim.status());
  RR_RETURN_IF_ERROR((*shim)->Deploy(std::move(handler)));
  return shim;
}

}  // namespace

int main() {
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  runtime::WasmVm vm("pipeline");

  // --- functions -----------------------------------------------------------
  auto split = Deploy(core::Shim::CreateInVm(vm, Spec("split"), binary),
                      [](ByteSpan input) -> Result<Bytes> {
                        std::string body(AsStringView(input));
                        return ToBytes("[" + body + "]");
                      });
  if (!split.ok()) return Fail(split.status());

  auto edges = Deploy(core::Shim::CreateInVm(vm, Spec("edge-detect"), binary),
                      [](ByteSpan input) -> Result<Bytes> {
                        return ToBytes("edges(" + std::string(AsStringView(input)) + ")");
                      });
  if (!edges.ok()) return Fail(edges.status());

  auto blur = Deploy(core::Shim::Create(Spec("blur"), binary),
                     [](ByteSpan input) -> Result<Bytes> {
                       return ToBytes("blur(" + std::string(AsStringView(input)) + ")");
                     });
  if (!blur.ok()) return Fail(blur.status());

  auto compose = Deploy(core::Shim::Create(Spec("compose"), binary),
                        [](ByteSpan input) -> Result<Bytes> {
                          return ToBytes("composite{" +
                                         std::string(AsStringView(input)) + "}");
                        });
  if (!compose.ok()) return Fail(compose.status());

  // --- placement-driven registry -------------------------------------------
  api::Runtime::Options options;
  options.tracing = true;
  api::Runtime rt("pipeline", options);
  std::map<std::string, core::Location> placement;
  const auto add = [&](core::Shim* shim, core::Location location) {
    placement[shim->name()] = location;
    core::Endpoint endpoint;
    endpoint.shim = shim;
    endpoint.location = std::move(location);
    return rt.Register(endpoint);
  };
  Status status = add(split->get(), {"node-1", "vm-1"});
  if (status.ok()) status = add(edges->get(), {"node-1", "vm-1"});
  if (status.ok()) status = add(blur->get(), {"node-1", ""});
  if (status.ok()) status = add(compose->get(), {"node-2", ""});
  if (!status.ok()) return Fail(status);

  // --- the DAG -------------------------------------------------------------
  auto dag = dag::DagBuilder("image-pipeline")
                 .AddNode("split")
                 .FanOut("split", {"edge-detect", "blur"})
                 .FanIn({"edge-detect", "blur"}, "compose")
                 .Build(dag::DagBuilder::Options{.require_single_source = true,
                                                 .require_single_sink = true});
  if (!dag.ok()) return Fail(dag.status());

  auto invocation = rt.Submit(api::DagSpec{*dag}, AsBytes("photo-0042"));
  if (!invocation.ok()) return Fail(invocation.status());
  const Result<rr::Buffer>& result = (*invocation)->Wait();
  if (!result.ok()) return Fail(result.status());

  std::printf("request : photo-0042\n");
  std::printf("response: %s\n", ToString(*result).c_str());
  std::printf("\nper-edge spans (transfer phase %.3f ms):\n",
              ToMillis((*invocation)->stats().transfer_phase));
  std::printf("  %-28s %-13s %12s\n", "span", "mode", "latency(us)");
  // Every span of the run carries its trace id; a local edge's span is named
  // "edge:<source>-><target>", and its mode follows from placement alone.
  for (const obs::SpanRecord& span : obs::Tracer::Get().Snapshot()) {
    if (span.trace_id != (*invocation)->trace_id() ||
        span.name.rfind("edge:", 0) != 0) {
      continue;
    }
    const size_t arrow = span.name.find("->");
    const core::TransferMode mode =
        core::SelectMode(placement[span.name.substr(5, arrow - 5)],
                         placement[span.name.substr(arrow + 2)]);
    std::printf("  %-28s %-13s %12.1f\n", span.name.c_str(),
                std::string(core::TransferModeName(mode)).c_str(),
                ToMillis(span.duration) * 1000.0);
  }
  return 0;
}
