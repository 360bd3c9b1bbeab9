// Failure handling around the remote plane that the mux wire's own fault
// matrix (mux_wire_test.cc) does not cover: the agent's classification of
// accept errors, and a late (token-mismatched) completion, which must be
// rejected typed without leaking the orphaned output region.
#include <gtest/gtest.h>

#include <cerrno>

#include "core/node_agent.h"
#include "core/shim_pool.h"
#include "core/workflow.h"
#include "dag/executor.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  spec.tenant = "default";
  return spec;
}

const Bytes& Binary() {
  static const Bytes binary = runtime::BuildFunctionModuleBinary();
  return binary;
}

MemoryRegion Stage(Shim& shim, ByteSpan data) {
  auto addr = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(shim.data().write_memory_host(data, *addr).ok());
  return {*addr, static_cast<uint32_t>(data.size())};
}

// ---------------------------------------------------------------------------
// NodeAgent accept path (the agent's own fault matrix lives in
// mux_wire_test.cc)
// ---------------------------------------------------------------------------

TEST(WireFailureTest, TransientAcceptErrorsAreClassified) {
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(EMFILE, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ENFILE, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ECONNABORTED, "accept4")));
  EXPECT_TRUE(IsTransientAcceptError(ErrnoToStatus(ENOMEM, "accept4")));
  EXPECT_FALSE(IsTransientAcceptError(ErrnoToStatus(EINVAL, "accept4")));
  EXPECT_FALSE(IsTransientAcceptError(ErrnoToStatus(EBADF, "accept4")));
}

// ---------------------------------------------------------------------------
// Late completions (token mismatch after timeout)
// ---------------------------------------------------------------------------

TEST(WireFailureTest, LateCompletionIsRejectedAndOrphanedOutputReleased) {
  // A remote invoke whose transfer already timed out (or was never tracked)
  // delivers a completion matching no pending token: the executor must
  // reject it with kTokenMismatch and release the orphaned output region so
  // the remote instance's heap stays bounded.
  WorkflowManager manager("wf");
  dag::DagExecutor executor(&manager, /*workers=*/2);

  auto pool = ShimPool::Create(Spec("remote"), Binary());
  ASSERT_TRUE(pool.ok());
  auto lease = (*pool)->Lease();
  ASSERT_TRUE(lease.ok());
  const MemoryRegion orphan = Stage(**lease, AsBytes("orphaned output"));
  const size_t regions_before = (*lease)->data().registered_region_count();

  const Status status = executor.DeliverOutcome(
      "remote", InvokeOutcome{orphan}, /*token=*/0xDEAD, std::move(*lease));
  EXPECT_EQ(status.code(), StatusCode::kTokenMismatch) << status;

  auto probe = (*pool)->Lease();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ((*probe)->data().registered_region_count(), regions_before - 1);
}

}  // namespace
}  // namespace rr::core
