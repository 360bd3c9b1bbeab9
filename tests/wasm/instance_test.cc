// Instantiation tests: how the sandbox's memory cap combines with the limits
// a module declares.
#include "wasm/instance.h"

#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/decoder.h"

namespace rr::wasm {
namespace {

Result<std::unique_ptr<Instance>> InstantiateMemoryModule(
    Limits limits, std::optional<uint32_t> max_memory_pages) {
  ModuleBuilder builder;
  builder.SetMemory(limits);
  RR_ASSIGN_OR_RETURN(Module module, DecodeModule(builder.Encode()));
  InstanceConfig config;
  config.max_memory_pages = max_memory_pages;
  return Instance::Instantiate(std::move(module), ImportResolver{}, config);
}

TEST(InstanceTest, MemoryCapAppliesToAModuleWithNoDeclaredMaximum) {
  auto instance = InstantiateMemoryModule({.min_pages = 1}, 8);
  ASSERT_TRUE(instance.ok()) << instance.status();
  LinearMemory* memory = (*instance)->memory();
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->limits().max_pages, 8u);
  EXPECT_EQ(memory->Grow(7), 1);
  EXPECT_EQ(memory->Grow(1), -1);
  EXPECT_EQ(memory->pages(), 8u);
}

TEST(InstanceTest, MemoryCapNeverRaisesTheDeclaredLimits) {
  auto smaller =
      InstantiateMemoryModule({.min_pages = 1, .has_max = true, .max_pages = 4}, 8);
  ASSERT_TRUE(smaller.ok()) << smaller.status();
  EXPECT_EQ((*smaller)->memory()->limits().max_pages, 4u);

  auto too_small = InstantiateMemoryModule({.min_pages = 16}, 8);
  ASSERT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rr::wasm
