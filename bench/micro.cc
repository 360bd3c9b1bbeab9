// Micro/ablation benchmarks (google-benchmark) for the design choices
// DESIGN.md calls out:
//   1. serialization-free pointer passing vs JSON round-trip
//   2. the WASI guest<->host copy boundary cost
// plus runtime primitives (interpreter dispatch, guest allocator).
//   3. the zero-copy payload plane: fan-out width sweep reporting the
//      plane's bytes-copied per run (O(1) in width, not O(N))
#include <benchmark/benchmark.h>

#include "api/runtime.h"
#include "common/buffer.h"
#include "common/rng.h"
#include "dag/dag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/function.h"
#include "runtime/wasm_sandbox.h"
#include "serde/record.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/guest_alloc.h"
#include "wasm/instance.h"
#include "workload/payload.h"

namespace {

using namespace rr;

Bytes MakePayload(size_t size) {
  Bytes data(size);
  Rng rng(size);
  rng.Fill(data);
  return data;
}

// --- ablation 1: serialization-free vs JSON round trip ----------------------

void BM_JsonRoundTrip(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const serde::Record record = workload::MakeRecord(size);
  for (auto _ : state) {
    const std::string json = serde::SerializeRecord(record);
    auto decoded = serde::DeserializeRecord(json);
    if (!decoded.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded->body.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_JsonRoundTrip)->Range(64 << 10, 16 << 20);

void BM_PointerPassingCopy(benchmark::State& state) {
  // Roadrunner's equivalent: locate region + single memcpy, no encoding.
  const size_t size = static_cast<size_t>(state.range(0));
  const serde::Record record = workload::MakeRecord(size);
  Bytes destination(size);
  for (auto _ : state) {
    const Bytes header = serde::EncodeRecordHeader(record);
    benchmark::DoNotOptimize(header.data());
    std::memcpy(destination.data(), record.body.data(), size);
    benchmark::DoNotOptimize(destination.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_PointerPassingCopy)->Range(64 << 10, 16 << 20);

// --- ablation 2: the Wasm VM I/O boundary -----------------------------------

void BM_GuestBoundaryCopy(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  auto memory = wasm::LinearMemory::Create(
      {.min_pages = static_cast<uint32_t>(size / wasm::kWasmPageSize + 4)});
  if (!memory.ok()) {
    state.SkipWithError("memory reservation failed");
    return;
  }
  const Bytes payload = MakePayload(size);
  Bytes out(size);
  for (auto _ : state) {
    if (!(*memory)->Write(0, payload).ok()) state.SkipWithError("write failed");
    if (!(*memory)->Read(0, out).ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size * 2));
}
BENCHMARK(BM_GuestBoundaryCopy)->Range(64 << 10, 16 << 20);

// --- runtime primitives ------------------------------------------------------

void BM_InterpreterSumLoop(benchmark::State& state) {
  wasm::ModuleBuilder builder;
  wasm::CodeEmitter body;
  body.Block();
  body.Loop();
  body.LocalGet(2).LocalGet(0).Op(wasm::Opcode::kI32GeS).BrIf(1);
  body.LocalGet(1).LocalGet(2).I32Add().LocalSet(1);
  body.LocalGet(2).I32Const(1).I32Add().LocalSet(2);
  body.Br(0);
  body.End();
  body.End();
  body.LocalGet(1).End();
  const uint32_t f = builder.AddFunction(
      {{wasm::ValType::kI32}, {wasm::ValType::kI32}},
      {wasm::ValType::kI32, wasm::ValType::kI32}, body);
  builder.ExportFunction("sum", f);
  auto module = wasm::DecodeModule(builder.Encode());
  auto instance = wasm::Instance::Instantiate(std::move(*module), {});
  const int32_t n = static_cast<int32_t>(state.range(0));
  std::vector<wasm::Value> args = {wasm::Value::I32(n)};
  for (auto _ : state) {
    auto result = (*instance)->CallExport("sum", args);
    if (!result.ok()) state.SkipWithError("trap");
    benchmark::DoNotOptimize(result->front().i32);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InterpreterSumLoop)->Arg(1000)->Arg(100000);

void BM_GuestAllocator(benchmark::State& state) {
  auto memory = wasm::LinearMemory::Create({.min_pages = 64});
  if (!memory.ok()) {
    state.SkipWithError("memory reservation failed");
    return;
  }
  wasm::GuestAllocator alloc(memory->get(), 1024);
  Rng rng(99);
  std::vector<uint32_t> live;
  for (auto _ : state) {
    if (live.size() < 64 || rng.NextBelow(2) == 0) {
      auto addr = alloc.Allocate(1 + static_cast<uint32_t>(rng.NextBelow(2048)));
      if (!addr.ok()) state.SkipWithError("alloc failed");
      live.push_back(*addr);
    } else {
      const size_t victim = rng.NextBelow(live.size());
      if (!alloc.Deallocate(live[victim]).ok()) state.SkipWithError("free failed");
      live[victim] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestAllocator);

void BM_ShimDeliverInvoke(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  runtime::FunctionSpec spec;
  spec.name = "bm";
  spec.workflow = "bm";
  auto sandbox = runtime::WasmSandbox::Create(spec, binary);
  if (!sandbox.ok()) {
    state.SkipWithError("sandbox failed");
    return;
  }
  (void)(*sandbox)->Deploy([](ByteSpan input) -> Result<Bytes> {
    Bytes ack(8);
    StoreLE<uint64_t>(ack.data(), input.size());
    return ack;
  });
  const Bytes payload = MakePayload(size);
  for (auto _ : state) {
    auto result = (*sandbox)->Invoke(payload);
    if (!result.ok()) state.SkipWithError("invoke failed");
    (void)(*sandbox)->DeallocateMemory(result->output_address);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_ShimDeliverInvoke)->Range(64 << 10, 4 << 20);

// --- ablation 3: payload-plane copy complexity under fan-out ----------------
// One producer fans a 1 MiB output to N co-located (shared-VM) consumers
// through the real DAG engine. The interesting counter is bytes_copied/run:
// the plane egresses the payload into one shared chunk, so it stays ~1 MiB
// at every width instead of scaling with N.

void BM_DagFanoutBytesCopied(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  constexpr size_t kPayload = 1 << 20;

  runtime::FunctionSpec spec;
  spec.workflow = "bm";
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  api::Runtime rt("bm");
  runtime::WasmVm vm("bm");
  std::vector<std::unique_ptr<core::Shim>> shims;
  const auto add = [&](const std::string& name,
                       runtime::NativeHandler handler) -> Status {
    spec.name = name;
    RR_ASSIGN_OR_RETURN(auto shim, core::Shim::CreateInVm(vm, spec, binary));
    RR_RETURN_IF_ERROR(shim->Deploy(std::move(handler)));
    core::Endpoint endpoint;
    endpoint.shim = shim.get();
    endpoint.location = {"n1", "vm1"};
    RR_RETURN_IF_ERROR(rt.Register(endpoint));
    shims.push_back(std::move(shim));
    return Status::Ok();
  };

  dag::DagBuilder builder("fanout");
  builder.AddNode("src");
  Status setup = add("src", [](ByteSpan) -> Result<Bytes> {
    return Bytes(kPayload, 'p');
  });
  std::vector<std::string> names;
  for (size_t i = 0; setup.ok() && i < width; ++i) {
    names.push_back("b" + std::to_string(i));
    setup = add(names.back(), [](ByteSpan input) -> Result<Bytes> {
      Bytes ack(8);
      StoreLE<uint64_t>(ack.data(), input.size());
      return ack;
    });
  }
  auto dag = setup.ok() ? builder.FanOut("src", names).Build()
                        : Result<dag::Dag>(setup);
  if (!dag.ok()) {
    state.SkipWithError("setup failed");
    return;
  }

  const uint64_t copied_before = Buffer::TotalBytesCopied();
  const rr::Buffer input = rr::Buffer::FromString("go");
  for (auto _ : state) {
    auto invocation = rt.Submit(api::DagSpec{*dag}, input);
    if (!invocation.ok() || !(*invocation)->Wait().ok()) {
      state.SkipWithError("run failed");
      return;
    }
  }
  const uint64_t copied = Buffer::TotalBytesCopied() - copied_before;
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * kPayload * width));
  state.counters["bytes_copied/run"] = benchmark::Counter(
      static_cast<double>(copied) / static_cast<double>(state.iterations()));
  state.counters["copies_of_payload/run"] =
      benchmark::Counter(static_cast<double>(copied) /
                         static_cast<double>(state.iterations() * kPayload));
}
BENCHMARK(BM_DagFanoutBytesCopied)->RangeMultiplier(2)->Range(1, 16)
    ->Unit(benchmark::kMillisecond);

// --- ablation 4: observability overhead -------------------------------------
// The instrumentation rides the hot path everywhere (spans in the DAG
// engine, counters in every channel), so its disabled cost must be noise.
// Primitives first, then the end-to-end guard: the SAME instrumented 3-node
// chain, tracing off vs on — BENCH_observability.json records both and CI
// checks the disabled path stays within 2% of a run.

void BM_ObsSpanDisabled(benchmark::State& state) {
  // A plain Span opened while tracing is off: it builds its name and reads
  // the thread's context, but reads no clock and records nothing.
  obs::SetTracingEnabled(false);
  for (auto _ : state) {
    obs::Span span("bench", "probe");
    benchmark::DoNotOptimize(span.context());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsGuardedSpanDisabled(benchmark::State& state) {
  // The guarded form used on hot-path sites whose duration nobody consumes:
  // disabled cost is one relaxed atomic load, no clock read, no name built.
  obs::SetTracingEnabled(false);
  for (auto _ : state) {
    RR_TRACE_SPAN(span, "bench", "probe");
    benchmark::DoNotOptimize(span.has_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsGuardedSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::SetTracingEnabled(true);
  for (auto _ : state) {
    obs::Span span("bench", "probe");
    benchmark::DoNotOptimize(span.context().span_id);
  }
  obs::SetTracingEnabled(false);
  obs::Tracer::Get().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter* counter =
      obs::Registry::Get().counter("rr_bench_probe_total", "bench probe");
  for (auto _ : state) counter->Inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram* histogram = obs::Registry::Get().histogram(
      "rr_bench_probe_seconds", "bench probe");
  double value = 1e-6;
  for (auto _ : state) {
    histogram->Observe(value);
    value = value < 1.0 ? value * 1.5 : 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

// End-to-end: one run of an instrumented user-space 3-node chain.
// Arg(0) = tracing disabled (the every-deployment default), Arg(1) = full
// span recording. Identical code path otherwise.
void BM_ObsChainRun(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;

  runtime::FunctionSpec spec;
  spec.workflow = "bm-obs";
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  api::Runtime rt("bm-obs");
  runtime::WasmVm vm("bm-obs");
  std::vector<std::unique_ptr<core::Shim>> shims;
  const auto add = [&](const std::string& name) -> Status {
    spec.name = name;
    RR_ASSIGN_OR_RETURN(auto shim, core::Shim::CreateInVm(vm, spec, binary));
    RR_RETURN_IF_ERROR(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
      return Bytes(input.begin(), input.end());
    }));
    core::Endpoint endpoint;
    endpoint.shim = shim.get();
    endpoint.location = {"n1", "vm1"};
    RR_RETURN_IF_ERROR(rt.Register(endpoint));
    shims.push_back(std::move(shim));
    return Status::Ok();
  };
  Status setup = Status::Ok();
  for (const char* name : {"s0", "s1", "s2"}) {
    if (setup.ok()) setup = add(name);
  }
  if (!setup.ok()) {
    state.SkipWithError("setup failed");
    return;
  }

  obs::SetTracingEnabled(tracing);
  const api::ChainSpec chain{{"s0", "s1", "s2"}};
  const rr::Buffer input = rr::Buffer::FromString(std::string(4096, 'x'));
  for (auto _ : state) {
    auto invocation = rt.Submit(chain, input);
    if (!invocation.ok() || !(*invocation)->Wait().ok()) {
      state.SkipWithError("run failed");
      break;
    }
  }
  obs::SetTracingEnabled(false);
  obs::Tracer::Get().Clear();
  state.SetLabel(tracing ? "tracing=on" : "tracing=off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsChainRun)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN: `--json` maps onto google-
// benchmark's JSON reporter, so every bench binary in this repo shares one
// machine-readable flag (CI redirects it to a BENCH_*.json artifact).
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  static char json_format[] = "--benchmark_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      args.push_back(json_format);
    } else {
      args.push_back(argv[i]);
    }
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
