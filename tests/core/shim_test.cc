#include "core/shim.h"

#include <gtest/gtest.h>

#include "runtime/function.h"

namespace rr::core {
namespace {

runtime::FunctionSpec Spec(const std::string& name,
                           const std::string& workflow = "wf") {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = workflow;
  return spec;
}

std::unique_ptr<Shim> MakeShim(const std::string& name = "fn") {
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  auto shim = Shim::Create(Spec(name), binary);
  EXPECT_TRUE(shim.ok()) << shim.status();
  return shim.ok() ? std::move(*shim) : nullptr;
}

TEST(ShimTest, DeliverAndInvokeRoundTrip) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    std::string out = "echo:" + std::string(AsStringView(input));
                    return ToBytes(out);
                  })
                  .ok());
  auto outcome = shim->DeliverAndInvoke(AsBytes("hi"));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto view = shim->OutputView(outcome->output);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(AsStringView(*view), "echo:hi");
  EXPECT_EQ(shim->invocations(), 1u);
}

TEST(ShimTest, OutputRegionIsRegisteredAndStaged) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan) -> Result<Bytes> {
                    return ToBytes("output");
                  })
                  .ok());
  auto outcome = shim->DeliverAndInvoke(AsBytes("x"));
  ASSERT_TRUE(outcome.ok());
  // The staged-output handshake happened: shim sees it via TakeStagedOutput.
  auto staged = shim->data().TakeStagedOutput();
  ASSERT_TRUE(staged.has_value());
  EXPECT_EQ(staged->address, outcome->output.address);
}

TEST(ShimTest, InputRegionReleasedAfterInvoke) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan) -> Result<Bytes> {
                    return ToBytes("y");
                  })
                  .ok());
  const uint64_t live_before = shim->sandbox().allocator().live_allocations();
  auto outcome = shim->DeliverAndInvoke(AsBytes("abc"));
  ASSERT_TRUE(outcome.ok());
  // Only the output allocation remains live.
  EXPECT_EQ(shim->sandbox().allocator().live_allocations(), live_before + 1);
  ASSERT_TRUE(shim->ReleaseRegion(outcome->output).ok());
  EXPECT_EQ(shim->sandbox().allocator().live_allocations(), live_before);
}

TEST(ShimTest, TwoPhaseIngress) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.end());
                  })
                  .ok());
  auto region = shim->PrepareInput(5);
  ASSERT_TRUE(region.ok());
  auto span = shim->InputSpan(*region);
  ASSERT_TRUE(span.ok());
  std::memcpy(span->data(), "12345", 5);
  auto outcome = shim->InvokeOnRegion(*region);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto view = shim->OutputView(outcome->output);
  EXPECT_EQ(AsStringView(*view), "12345");
}

TEST(ShimTest, InputSpanRequiresRegisteredRegion) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  auto span = shim->InputSpan(MemoryRegion{512, 8});
  ASSERT_FALSE(span.ok());
  EXPECT_EQ(span.status().code(), StatusCode::kPermissionDenied);
}

TEST(ShimTest, EmptyInputSupported) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return ToBytes(std::to_string(input.size()));
                  })
                  .ok());
  auto outcome = shim->DeliverAndInvoke(ByteSpan{});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto view = shim->OutputView(outcome->output);
  EXPECT_EQ(AsStringView(*view), "0");
}

TEST(ShimTest, OutputViewSurvivesAGrowingInvocation) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return ToBytes("first:" + std::to_string(input.size()));
                  })
                  .ok());
  auto first = shim->DeliverAndInvoke(AsBytes("x"));
  ASSERT_TRUE(first.ok()) << first.status();
  auto kept = shim->OutputView(first->output);
  ASSERT_TRUE(kept.ok()) << kept.status();
  const uint32_t pages_before = shim->sandbox().instance().memory()->pages();

  // 4 MiB does not fit the module's initial 2 MiB, so the guest grows.
  const Bytes large(4 << 20, 0x5a);
  auto second = shim->DeliverAndInvoke(large);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_GT(shim->sandbox().instance().memory()->pages(), pages_before);

  auto again = shim->OutputView(first->output);
  ASSERT_TRUE(again.ok()) << again.status();
  // Read through the kept span only once it is known to still point into
  // the memory.
  ASSERT_EQ(again->data(), kept->data());
  EXPECT_EQ(AsStringView(*kept), "first:1");
}

TEST(ShimTest, CreateInVmSharesProcessButNotMemory) {
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  runtime::WasmVm vm("wf");
  auto a = Shim::CreateInVm(vm, Spec("a"), binary);
  auto b = Shim::CreateInVm(vm, Spec("b"), binary);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(vm.module_count(), 2u);
  // Different linear memories behind the shims.
  EXPECT_NE((*a)->sandbox().instance().memory(),
            (*b)->sandbox().instance().memory());
}

}  // namespace
}  // namespace rr::core
