// Tests for the §9 future-work extensions this reproduction ships: NodeAgent
// (remote ingress) and syscall batching.
#include <gtest/gtest.h>

#include "core/node_agent.h"
#include "runtime/function.h"
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

}  // namespace
}  // namespace rr::core
