// Tests for the §9 future-work extensions: NodeAgent (remote ingress),
// StateStore (function state management), syscall batching, and dynamic
// runtime selection.
#include <gtest/gtest.h>

#include <thread>

#include "core/node_agent.h"
#include "core/state_store.h"
#include "runtime/function.h"
#include "runtime/selector.h"
#include "wasi/wasi.h"

namespace rr::core {
namespace {

runtime::FunctionSpec Spec(const std::string& name,
                           const std::string& workflow = "wf") {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = workflow;
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

std::unique_ptr<Shim> MakeShim(const std::string& name,
                               const std::string& workflow = "wf") {
  auto shim = Shim::Create(Spec(name, workflow), Binary());
  EXPECT_TRUE(shim.ok()) << shim.status();
  if (shim.ok()) {
    EXPECT_TRUE((*shim)
                    ->Deploy([](ByteSpan input) -> Result<Bytes> {
                      return Bytes(input.begin(), input.end());
                    })
                    .ok());
  }
  return shim.ok() ? std::move(*shim) : nullptr;
}

MemoryRegion Stage(Shim& shim, ByteSpan data) {
  auto addr = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(shim.data().write_memory_host(data, *addr).ok());
  return {*addr, static_cast<uint32_t>(data.size())};
}

// ---------------------------------------------------------------------------
// NodeAgent
// ---------------------------------------------------------------------------

TEST(NodeAgentTest, DuplicateRegistrationRejected) {
  auto agent = NodeAgent::Start(0);
  ASSERT_TRUE(agent.ok());
  auto target = MakeShim("fn");
  ASSERT_TRUE((*agent)->RegisterFunction(target.get()).ok());
  EXPECT_EQ((*agent)->RegisterFunction(target.get()).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*agent)->UnregisterFunction("fn").ok());
  EXPECT_TRUE((*agent)->RegisterFunction(target.get()).ok());
}

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

TEST(StateStoreTest, PutFromGuestGetIntoGuest) {
  StateStore store("wf");
  auto writer = MakeShim("writer");
  auto reader = MakeShim("reader");

  const MemoryRegion staged = Stage(*writer, AsBytes("short-term state"));
  ASSERT_TRUE(store.Put(*writer, "model-params", staged).ok());
  EXPECT_TRUE(store.Contains("model-params"));
  EXPECT_EQ(store.bytes_stored(), 16u);

  auto delivered = store.Get(*reader, "model-params");
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  auto view = reader->data().read_memory_host(delivered->address,
                                              delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(AsStringView(*view), "short-term state");
}

TEST(StateStoreTest, CrossWorkflowDenied) {
  StateStore store("wf");
  auto outsider = MakeShim("evil", "other-wf");
  const MemoryRegion staged = Stage(*outsider, AsBytes("x"));
  EXPECT_EQ(store.Put(*outsider, "k", staged).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(store.Get(*outsider, "k").status().code(),
            StatusCode::kPermissionDenied);
}

TEST(StateStoreTest, OverwriteAdjustsAccounting) {
  StateStore store("wf");
  ASSERT_TRUE(store.PutBytes("k", Bytes(100, 1)).ok());
  ASSERT_TRUE(store.PutBytes("k", Bytes(40, 2)).ok());
  EXPECT_EQ(store.bytes_stored(), 40u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(StateStoreTest, CapacityEnforced) {
  StateStore store("wf", "default", {.capacity_bytes = 100});
  ASSERT_TRUE(store.PutBytes("a", Bytes(60, 1)).ok());
  EXPECT_EQ(store.PutBytes("b", Bytes(60, 2)).code(),
            StatusCode::kResourceExhausted);
  // Replacing within budget still works.
  ASSERT_TRUE(store.PutBytes("a", Bytes(90, 3)).ok());
}

TEST(StateStoreTest, DeleteAndMissingKeys) {
  StateStore store("wf");
  EXPECT_EQ(store.GetBytes("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.PutBytes("k", Bytes(8, 9)).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_EQ(store.bytes_stored(), 0u);
  EXPECT_FALSE(store.Contains("k"));
}

TEST(StateStoreTest, EmptyKeyRejected) {
  StateStore store("wf");
  EXPECT_FALSE(store.PutBytes("", Bytes(1, 1)).ok());
}

TEST(StateStoreTest, StatePersistsAcrossInvocations) {
  // The §9 use case: a function accumulates state across invocations
  // without an external KVS.
  StateStore store("wf");
  auto counter_shim = Shim::Create(Spec("counter"), Binary());
  ASSERT_TRUE(counter_shim.ok());
  ASSERT_TRUE((*counter_shim)
                  ->Deploy([&store](ByteSpan) -> Result<Bytes> {
                    uint64_t count = 0;
                    if (auto prior = store.GetBytes("count"); prior.ok()) {
                      count = LoadLE<uint64_t>(prior->data());
                    }
                    ++count;
                    Bytes bytes(8);
                    StoreLE<uint64_t>(bytes.data(), count);
                    RR_RETURN_IF_ERROR(store.PutBytes("count", bytes));
                    return bytes;
                  })
                  .ok());
  for (int i = 1; i <= 3; ++i) {
    auto outcome = (*counter_shim)->DeliverAndInvoke(AsBytes("tick"));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    auto view = (*counter_shim)->OutputView(outcome->output);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(LoadLE<uint64_t>(view->data()), static_cast<uint64_t>(i));
    ASSERT_TRUE((*counter_shim)->ReleaseRegion(outcome->output).ok());
  }
}

// ---------------------------------------------------------------------------
// Syscall batching
// ---------------------------------------------------------------------------

TEST(SyscallBatchTest, OneSyscallForManyRegions) {
  auto shim = MakeShim("fn");
  wasi::WasiEnv& env = shim->sandbox().wasi();
  const int32_t fd = env.AttachBuffer({});

  // Stage 16 small regions in guest memory.
  std::vector<wasi::WasiEnv::GuestRegion> regions;
  std::string expected;
  for (int i = 0; i < 16; ++i) {
    const std::string chunk = "part" + std::to_string(i) + ";";
    const MemoryRegion region = Stage(*shim, AsBytes(chunk));
    regions.push_back({region.address, region.length});
    expected += chunk;
  }

  const uint64_t syscalls_before = env.syscall_count();
  ASSERT_TRUE(env.GuestWriteBatch(shim->sandbox().instance(), fd, regions).ok());
  EXPECT_EQ(env.syscall_count(), syscalls_before + 1);  // ONE transition

  auto written = env.TakeWritten(fd);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(ToString(*written), expected);
}

TEST(SyscallBatchTest, UnbatchedCostsOneSyscallEach) {
  auto shim = MakeShim("fn");
  wasi::WasiEnv& env = shim->sandbox().wasi();
  const int32_t fd = env.AttachBuffer({});
  const uint64_t syscalls_before = env.syscall_count();
  for (int i = 0; i < 16; ++i) {
    const MemoryRegion region = Stage(*shim, AsBytes("x"));
    ASSERT_TRUE(env.GuestWriteAll(shim->sandbox().instance(), fd,
                                  region.address, region.length)
                    .ok());
  }
  EXPECT_EQ(env.syscall_count(), syscalls_before + 16);
}

TEST(SyscallBatchTest, OutOfBoundsRegionFailsWholeBatch) {
  auto shim = MakeShim("fn");
  wasi::WasiEnv& env = shim->sandbox().wasi();
  const int32_t fd = env.AttachBuffer({});
  std::vector<wasi::WasiEnv::GuestRegion> regions = {
      {0xFFFFFF00u, 64}};  // far out of bounds
  EXPECT_FALSE(env.GuestWriteBatch(shim->sandbox().instance(), fd, regions).ok());
}

// ---------------------------------------------------------------------------
// Runtime selection
// ---------------------------------------------------------------------------

TEST(RuntimeSelectorTest, ColdSensitiveWorkloadPrefersWasm) {
  runtime::WorkloadProfile profile;
  profile.invocations_per_second = 0.001;  // nearly always cold
  profile.mean_execution_seconds = 0.005;
  profile.wasi_io_fraction = 0.2;
  const auto report = runtime::SelectRuntime(profile);
  EXPECT_EQ(report.selected, runtime::RuntimeKind::kWasm);
  EXPECT_LT(report.wasm_cost_seconds, report.container_cost_seconds);
}

TEST(RuntimeSelectorTest, HotIoHeavyWorkloadPrefersContainer) {
  runtime::WorkloadProfile profile;
  profile.invocations_per_second = 1000;  // always warm
  profile.keep_alive_seconds = 600;
  profile.mean_execution_seconds = 0.100;
  profile.wasi_io_fraction = 0.9;  // dominated by host I/O
  const auto report = runtime::SelectRuntime(profile);
  EXPECT_EQ(report.selected, runtime::RuntimeKind::kContainer);
}

TEST(RuntimeSelectorTest, PureComputeWarmWorkloadTiesTowardWasm) {
  runtime::WorkloadProfile profile;
  profile.invocations_per_second = 100;
  profile.wasi_io_fraction = 0.0;
  const auto report = runtime::SelectRuntime(profile);
  // Equal execution cost, wasm never worse: selector must pick wasm.
  EXPECT_EQ(report.selected, runtime::RuntimeKind::kWasm);
}

TEST(RuntimeSelectorTest, CostsAreMonotonicInIoFraction) {
  runtime::WorkloadProfile profile;
  profile.invocations_per_second = 10;
  double previous = 0;
  for (double io = 0.0; io <= 1.0; io += 0.25) {
    profile.wasi_io_fraction = io;
    const auto report = runtime::SelectRuntime(profile);
    EXPECT_GE(report.wasm_cost_seconds, previous);
    previous = report.wasm_cost_seconds;
  }
}

TEST(RuntimeSelectorTest, KindNames) {
  EXPECT_EQ(runtime::RuntimeKindName(runtime::RuntimeKind::kWasm), "wasm");
  EXPECT_EQ(runtime::RuntimeKindName(runtime::RuntimeKind::kContainer),
            "container");
}

}  // namespace
}  // namespace rr::core
