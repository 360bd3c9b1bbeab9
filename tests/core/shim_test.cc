#include "core/shim.h"

#include <gtest/gtest.h>

#include <cstring>

#include "runtime/function.h"
#include "wasm/builder.h"

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

// The function module ABI with an interpreted `handle` that returns its
// input block as its output: (ptr + ptr_offset) << 32 | (len - len_cut).
Bytes InputReturningModule(int32_t ptr_offset, int32_t len_cut) {
  wasm::ModuleBuilder builder;
  builder.SetMemory({.min_pages = 32, .has_max = true, .max_pages = 32768});
  wasm::CodeEmitter stub;
  stub.Unreachable().End();
  const uint32_t alloc_fn = builder.AddFunction(
      {{wasm::ValType::kI32}, {wasm::ValType::kI32}}, {}, stub);
  const uint32_t dealloc_fn =
      builder.AddFunction({{wasm::ValType::kI32}, {}}, {}, stub);
  wasm::CodeEmitter handle;
  handle.LocalGet(0).I32Const(ptr_offset).I32Add();
  handle.Op(wasm::Opcode::kI64ExtendI32U).I64Const(32);
  handle.Op(wasm::Opcode::kI64Shl);
  handle.LocalGet(1).I32Const(len_cut).I32Sub();
  handle.Op(wasm::Opcode::kI64ExtendI32U).Op(wasm::Opcode::kI64Or).End();
  const uint32_t handle_fn = builder.AddFunction(
      {{wasm::ValType::kI32, wasm::ValType::kI32}, {wasm::ValType::kI64}}, {},
      handle);
  builder.ExportFunction(std::string(runtime::kExportAllocate), alloc_fn);
  builder.ExportFunction(std::string(runtime::kExportDeallocate), dealloc_fn);
  builder.ExportFunction(std::string(runtime::kExportHandle), handle_fn);
  builder.ExportMemory("memory");
  return builder.Encode();
}

std::unique_ptr<Shim> MakeInputReturningShim(int32_t ptr_offset,
                                             int32_t len_cut) {
  auto shim = Shim::Create(Spec("in-place"),
                           InputReturningModule(ptr_offset, len_cut));
  EXPECT_TRUE(shim.ok()) << shim.status();
  return shim.ok() ? std::move(*shim) : nullptr;
}

// Live guest allocations and registered regions of one shim.
struct Books {
  uint64_t allocations;
  size_t regions;
  bool operator==(const Books&) const = default;
};

Books BooksOf(Shim& shim) {
  return {shim.sandbox().allocator().live_allocations(),
          shim.data().registered_region_count()};
}

// The books with one more live output region.
Books OneMore(const Books& books) {
  return {books.allocations + 1, books.regions + 1};
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

TEST(ShimTest, InterpretedGuestReturningItsInputBlockKeepsIt) {
  auto shim = MakeInputReturningShim(/*ptr_offset=*/0, /*len_cut=*/2);
  ASSERT_NE(shim, nullptr);
  const Books before = BooksOf(*shim);
  auto input = shim->PrepareInput(8);
  ASSERT_TRUE(input.ok()) << input.status();
  auto span = shim->InputSpan(*input);
  ASSERT_TRUE(span.ok()) << span.status();
  std::memcpy(span->data(), "abcdefgh", 8);

  auto outcome = shim->InvokeOnRegion(*input);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->output, (MemoryRegion{input->address, 6}));
  // The block lives on as the output, registered at the output's length.
  EXPECT_EQ(BooksOf(*shim), OneMore(before));
  EXPECT_TRUE(shim->data().IsRegistered(input->address, 6));
  EXPECT_FALSE(shim->data().IsRegistered(input->address, 8));
  auto view = shim->OutputView(outcome->output);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(AsStringView(*view), "abcdef");

  ASSERT_TRUE(shim->ReleaseRegion(outcome->output).ok());
  EXPECT_EQ(BooksOf(*shim), before);
}

TEST(ShimTest, GuestOutputOverlappingItsInputIsRefusedAndLeaksNothing) {
  auto shim = MakeInputReturningShim(/*ptr_offset=*/8, /*len_cut=*/8);
  ASSERT_NE(shim, nullptr);
  const Books before = BooksOf(*shim);

  // Two-phase ingress: the refused invoke leaves the input to the caller.
  auto input = shim->PrepareInput(64);
  ASSERT_TRUE(input.ok()) << input.status();
  auto refused = shim->InvokeOnRegion(*input);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status();
  EXPECT_TRUE(shim->data().IsRegistered(input->address, input->length));
  ASSERT_TRUE(shim->ReleaseRegion(*input).ok());
  EXPECT_EQ(BooksOf(*shim), before);

  // DeliverAndInvoke placed the input itself, so it releases it.
  auto delivered = shim->DeliverAndInvoke(Bytes(64, 0x11));
  ASSERT_FALSE(delivered.ok());
  EXPECT_EQ(delivered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(BooksOf(*shim), before);
}

TEST(ShimTest, NativeOutputThatFitsIsWrittenOverItsInput) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return Bytes(input.begin(), input.begin() + 3);
                  })
                  .ok());
  const Books before = BooksOf(*shim);
  const uint64_t bytes_before = shim->sandbox().allocator().bytes_in_use();
  auto input = shim->PrepareInput(4096);
  ASSERT_TRUE(input.ok()) << input.status();
  auto span = shim->InputSpan(*input);
  ASSERT_TRUE(span.ok()) << span.status();
  std::memset(span->data(), 'q', span->size());

  auto outcome = shim->InvokeOnRegion(*input);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->output, (MemoryRegion{input->address, 3}));
  EXPECT_EQ(BooksOf(*shim), OneMore(before));
  // The block was trimmed: its 4 KiB tail went back to the free list.
  EXPECT_LT(shim->sandbox().allocator().bytes_in_use() - bytes_before, 64u);
  auto view = shim->OutputView(outcome->output);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(AsStringView(*view), "qqq");
  ASSERT_TRUE(shim->ReleaseRegion(outcome->output).ok());
  EXPECT_EQ(BooksOf(*shim), before);
}

TEST(ShimTest, NativeOutputLargerThanItsInputTakesAFreshBlock) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan input) -> Result<Bytes> {
                    return ToBytes("echo:" + std::string(AsStringView(input)));
                  })
                  .ok());
  const Books before = BooksOf(*shim);
  auto input = shim->PrepareInput(2);
  ASSERT_TRUE(input.ok()) << input.status();
  auto span = shim->InputSpan(*input);
  ASSERT_TRUE(span.ok()) << span.status();
  std::memcpy(span->data(), "hi", 2);

  auto outcome = shim->InvokeOnRegion(*input);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_NE(outcome->output.address, input->address);
  // The consumed input is freed; only the output stays.
  EXPECT_EQ(BooksOf(*shim), OneMore(before));
  EXPECT_FALSE(shim->data().IsRegistered(input->address, input->length));
  auto view = shim->OutputView(outcome->output);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(AsStringView(*view), "echo:hi");
}

TEST(ShimTest, FailedDeliverAndInvokeReleasesItsInput) {
  auto shim = MakeShim();
  ASSERT_NE(shim, nullptr);
  ASSERT_TRUE(shim->Deploy([](ByteSpan) -> Result<Bytes> {
                    return InvalidArgumentError("rejected");
                  })
                  .ok());
  const Books before = BooksOf(*shim);
  for (int i = 0; i < 3; ++i) {
    auto outcome = shim->DeliverAndInvoke(AsBytes("payload"));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(BooksOf(*shim), before);
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
