// Figure 2: the motivating measurements.
//  (a) cold start + execution latency for "Hello World" (no WASI) and
//      "Resize Image" (WASI-mediated I/O), containers vs Wasm, with
//      artifact sizes (76.9 MB image vs 3.19 MB wasm binary, etc.)
//  (b) normalized transfer vs serialization latency share for growing
//      payloads, containers (RunC) vs Wasm (WasmEdge)
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"
#include "runtime/coldstart.h"
#include "runtime/function.h"
#include "runtime/native_sandbox.h"
#include "runtime/wasm_sandbox.h"
#include "workload/image.h"

using namespace rrbench;
using rr::runtime::ColdStartReport;

namespace {

rr::runtime::FunctionSpec Spec(const std::string& name) {
  rr::runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "motivation";
  return spec;
}

// "Hello World": no host interaction at all.
rr::Result<double> NativeHelloExecution(int reps) {
  RR_ASSIGN_OR_RETURN(auto sandbox, rr::runtime::NativeSandbox::Create(Spec("hello-c")));
  RR_RETURN_IF_ERROR(sandbox->Deploy(
      [](rr::ByteSpan) -> rr::Result<rr::Bytes> { return rr::ToBytes("hello"); }));
  const rr::Stopwatch timer;
  for (int i = 0; i < reps; ++i) {
    RR_ASSIGN_OR_RETURN(const rr::Bytes out, sandbox->Invoke({}));
    if (out.size() != 5) return rr::InternalError("bad hello output");
  }
  return timer.ElapsedSeconds() / reps;
}

rr::Result<double> WasmHelloExecution(int reps) {
  const rr::Bytes binary = rr::runtime::BuildFunctionModuleBinary();
  RR_ASSIGN_OR_RETURN(auto sandbox,
                      rr::runtime::WasmSandbox::Create(Spec("hello-wasm"), binary));
  RR_RETURN_IF_ERROR(sandbox->Deploy(
      [](rr::ByteSpan) -> rr::Result<rr::Bytes> { return rr::ToBytes("hello"); }));
  const rr::Stopwatch timer;
  for (int i = 0; i < reps; ++i) {
    RR_ASSIGN_OR_RETURN(const auto out, sandbox->Invoke({}));
    if (out.output_length != 5) return rr::InternalError("bad hello output");
    RR_RETURN_IF_ERROR(sandbox->DeallocateMemory(out.output_address));
  }
  return timer.ElapsedSeconds() / reps;
}

// "Resize Image": the function reads the frame, downscales it, and emits
// the thumbnail. The container version touches host memory directly; the
// Wasm version pays the WASI copies into and out of linear memory.
rr::Result<double> NativeResizeExecution(const rr::workload::Image& frame,
                                         int reps) {
  RR_ASSIGN_OR_RETURN(auto sandbox, rr::runtime::NativeSandbox::Create(Spec("resize-c")));
  RR_RETURN_IF_ERROR(sandbox->Deploy(
      [](rr::ByteSpan input) -> rr::Result<rr::Bytes> {
        RR_ASSIGN_OR_RETURN(const rr::workload::Image image,
                            rr::workload::DecodeImage(input));
        RR_ASSIGN_OR_RETURN(const rr::workload::Image small,
                            rr::workload::DownscaleHalf(image));
        return rr::workload::EncodeImage(small);
      }));
  const rr::Bytes encoded = rr::workload::EncodeImage(frame);
  const rr::Stopwatch timer;
  for (int i = 0; i < reps; ++i) {
    RR_ASSIGN_OR_RETURN(const rr::Bytes out, sandbox->Invoke(encoded));
    if (out.size() < 8) return rr::InternalError("bad resize output");
  }
  return timer.ElapsedSeconds() / reps;
}

rr::Result<double> WasmResizeExecution(const rr::workload::Image& frame,
                                       int reps) {
  const rr::Bytes binary = rr::runtime::BuildFunctionModuleBinary();
  RR_ASSIGN_OR_RETURN(auto sandbox,
                      rr::runtime::WasmSandbox::Create(Spec("resize-wasm"), binary));
  RR_RETURN_IF_ERROR(sandbox->Deploy(
      [](rr::ByteSpan input) -> rr::Result<rr::Bytes> {
        RR_ASSIGN_OR_RETURN(const rr::workload::Image image,
                            rr::workload::DecodeImage(input));
        RR_ASSIGN_OR_RETURN(const rr::workload::Image small,
                            rr::workload::DownscaleHalf(image));
        return rr::workload::EncodeImage(small);
      }));
  const rr::Bytes encoded = rr::workload::EncodeImage(frame);

  const rr::Stopwatch timer;
  for (int i = 0; i < reps; ++i) {
    // WASI path: the frame enters the VM through fd_read-style copies.
    const int32_t fd = sandbox->wasi().AttachBuffer(encoded);
    RR_ASSIGN_OR_RETURN(const uint32_t staging,
                        sandbox->AllocateMemory(
                            static_cast<uint32_t>(encoded.size())));
    RR_RETURN_IF_ERROR(sandbox->wasi().GuestReadExact(
        sandbox->instance(), fd, staging, static_cast<uint32_t>(encoded.size())));
    RR_ASSIGN_OR_RETURN(const auto out,
                        sandbox->InvokeInPlace(
                            staging, static_cast<uint32_t>(encoded.size())));
    // ...and the thumbnail leaves the same way.
    const int32_t out_fd = sandbox->wasi().AttachBuffer({});
    RR_RETURN_IF_ERROR(sandbox->wasi().GuestWriteAll(
        sandbox->instance(), out_fd, out.output_address, out.output_length));
    RR_RETURN_IF_ERROR(sandbox->wasi().CloseFd(fd));
    RR_RETURN_IF_ERROR(sandbox->wasi().CloseFd(out_fd));
    // A thumbnail that fits is written over the consumed frame: then the
    // staging block is the output block.
    if (out.output_address != staging) {
      RR_RETURN_IF_ERROR(sandbox->DeallocateMemory(staging));
    }
    RR_RETURN_IF_ERROR(sandbox->DeallocateMemory(out.output_address));
  }
  return timer.ElapsedSeconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  const int reps = config.repetitions();
  const char* scratch = "/tmp";

  std::printf("Figure 2 reproduction: motivation measurements (%d reps)\n", reps);

  // ------------------------------------------------------------------ (a)
  rr::telemetry::PrintBanner("Figure 2a: Cold start, execution latency, artifact size");
  rr::telemetry::Table table(
      {"Function", "Runtime", "Cold Start", "Execution", "Artifact"});

  const auto add_row = [&](const char* function, const char* runtime_name,
                           const rr::Result<ColdStartReport>& cold,
                           const rr::Result<double>& exec) -> int {
    if (!cold.ok() || !exec.ok()) {
      std::fprintf(stderr, "%s/%s failed: %s %s\n", function, runtime_name,
                   cold.status().ToString().c_str(),
                   exec.status().ToString().c_str());
      return 1;
    }
    table.AddRow({function, runtime_name,
                  rr::telemetry::FormatSeconds(cold->total_seconds()),
                  rr::telemetry::FormatSeconds(*exec),
                  rr::FormatSize(cold->artifact_bytes)});
    return 0;
  };

  const rr::workload::Image frame = rr::workload::MakeTestImage(1024, 768, 7);

  int failures = 0;
  failures += add_row(
      "Hello World", "Cont",
      rr::runtime::ColdStartContainer(rr::runtime::kHelloWorldImageBytes, scratch),
      NativeHelloExecution(reps * 10));
  failures += add_row(
      "Hello World", "Wasm",
      rr::runtime::ColdStartWasm(
          rr::runtime::BuildPaddedFunctionBinary(rr::runtime::kHelloWorldWasmBytes),
          scratch),
      WasmHelloExecution(reps * 10));
  failures += add_row(
      "Resize Image", "Cont",
      rr::runtime::ColdStartContainer(rr::runtime::kResizeImageImageBytes, scratch),
      NativeResizeExecution(frame, reps));
  failures += add_row(
      "Resize Image", "Wasm",
      rr::runtime::ColdStartWasm(
          rr::runtime::BuildPaddedFunctionBinary(rr::runtime::kResizeImageWasmBytes),
          scratch),
      WasmResizeExecution(frame, reps));
  if (failures != 0) return 1;
  std::fputs(table.Render().c_str(), stdout);

  // ------------------------------------------------------------------ (b)
  rr::telemetry::PrintBanner(
      "Figure 2b: Normalized I/O latency share, transfer vs serialization");
  const std::vector<size_t> sizes =
      config.full ? std::vector<size_t>{1u << 20, 60u << 20, 100u << 20}
                  : std::vector<size_t>{1u << 20, 4u << 20, 16u << 20};

  rr::telemetry::Table share(
      {"Input", "Runtime", "Transfer %", "Serialization %"});
  struct SystemDef {
    const char* label;
    rr::Result<std::unique_ptr<rr::workload::ChainDriver>> (*make)(
        rr::workload::DriverOptions);
  };
  const SystemDef systems[] = {{"Cont", rr::workload::MakeRunCDriver},
                               {"Wasm", rr::workload::MakeWasmEdgeDriver},
                               {"Wasm-int", rr::workload::MakeWasmEdgeDriver}};
  for (const size_t size : sizes) {
    for (const SystemDef& system : systems) {
      rr::workload::DriverOptions options;
      // Interpreter-mode serialization reproduces the paper's "up to 60% of
      // execution time" wasm serialization share.
      options.interpreted_serialization =
          std::string_view(system.label) == "Wasm-int";
      auto driver = system.make(options);
      if (!driver.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     driver.status().ToString().c_str());
        return 1;
      }
      auto mean = RunPoint(**driver, size, reps);
      if (!mean.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     mean.status().ToString().c_str());
        return 1;
      }
      const double total = mean->total_seconds();
      const double ser = mean->serialization_seconds();
      share.AddRow({FormatMiB(size), system.label,
                    rr::StrFormat("%.1f", (total - ser) / total * 100),
                    rr::StrFormat("%.1f", ser / total * 100)});
    }
  }
  std::fputs(share.Render().c_str(), stdout);
  if (config.csv) std::fputs(share.RenderCsv().c_str(), stdout);
  return 0;
}
