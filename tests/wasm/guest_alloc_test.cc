#include "wasm/guest_alloc.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace rr::wasm {
namespace {

std::unique_ptr<LinearMemory> MakeMemory(Limits limits) {
  auto memory = LinearMemory::Create(limits);
  EXPECT_TRUE(memory.ok()) << memory.status();
  return memory.ok() ? std::move(*memory) : nullptr;
}

class GuestAllocatorTest : public ::testing::Test {
 protected:
  GuestAllocatorTest()
      : memory_(MakeMemory({.min_pages = 1})), alloc_(memory_.get(), 1024) {}

  void SetUp() override { ASSERT_NE(memory_, nullptr); }

  std::unique_ptr<LinearMemory> memory_;
  GuestAllocator alloc_;
};

TEST_F(GuestAllocatorTest, AllocateReturnsUsableRegion) {
  auto addr = alloc_.Allocate(100);
  ASSERT_TRUE(addr.ok()) << addr.status();
  EXPECT_GE(*addr, alloc_.heap_base());
  // The whole payload must be writable guest memory.
  Bytes data(100, 0x5a);
  EXPECT_TRUE(memory_->Write(*addr, data).ok());
  EXPECT_EQ(alloc_.live_allocations(), 1u);
}

TEST_F(GuestAllocatorTest, AllocationsDoNotOverlap) {
  std::vector<std::pair<uint32_t, uint32_t>> blocks;
  for (uint32_t size : {16u, 100u, 8u, 333u, 64u}) {
    auto addr = alloc_.Allocate(size);
    ASSERT_TRUE(addr.ok());
    blocks.emplace_back(*addr, size);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t j = i + 1; j < blocks.size(); ++j) {
      const auto [a, alen] = blocks[i];
      const auto [b, blen] = blocks[j];
      EXPECT_TRUE(a + alen <= b || b + blen <= a)
          << "blocks overlap: [" << a << "," << a + alen << ") vs [" << b
          << "," << b + blen << ")";
    }
  }
}

TEST_F(GuestAllocatorTest, FreeAndReuse) {
  auto a = alloc_.Allocate(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  auto b = alloc_.Allocate(64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // first-fit reuses the freed block
  EXPECT_EQ(alloc_.live_allocations(), 1u);
}

TEST_F(GuestAllocatorTest, DoubleFreeDetected) {
  auto a = alloc_.Allocate(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  const Status second = alloc_.Deallocate(*a);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.message().find("double free"), std::string::npos);
}

TEST_F(GuestAllocatorTest, BogusAddressRejected) {
  EXPECT_FALSE(alloc_.Deallocate(4).ok());           // below heap
  auto a = alloc_.Allocate(64);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(alloc_.Deallocate(*a + 8).ok());      // interior pointer
}

TEST_F(GuestAllocatorTest, ZeroByteAllocationRejected) {
  EXPECT_FALSE(alloc_.Allocate(0).ok());
}

TEST_F(GuestAllocatorTest, CoalescingEnablesLargeReallocation) {
  // Allocate three adjacent blocks, free all, then allocate one block larger
  // than any single fragment: only possible if neighbours coalesced.
  auto a = alloc_.Allocate(1000);
  auto b = alloc_.Allocate(1000);
  auto c = alloc_.Allocate(1000);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint32_t pages_before = memory_->pages();
  ASSERT_TRUE(alloc_.Deallocate(*b).ok());
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  ASSERT_TRUE(alloc_.Deallocate(*c).ok());
  auto big = alloc_.Allocate(2800);
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(memory_->pages(), pages_before);  // reused, no growth
}

TEST_F(GuestAllocatorTest, GrowsMemoryWhenHeapExhausted) {
  const uint32_t pages_before = memory_->pages();
  auto big = alloc_.Allocate(3 * kWasmPageSize);
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_GT(memory_->pages(), pages_before);
  Bytes touch(3 * kWasmPageSize, 1);
  EXPECT_TRUE(memory_->Write(*big, touch).ok());
}

TEST_F(GuestAllocatorTest, ExhaustionReportedNotCrashed) {
  auto small = MakeMemory({.min_pages = 1, .has_max = true, .max_pages = 2});
  ASSERT_NE(small, nullptr);
  GuestAllocator alloc(small.get(), 0);
  auto huge = alloc.Allocate(10 * kWasmPageSize);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

// Property test: a randomized alloc/free workload maintains the invariants
// (no overlap, accounting correct, all frees succeed).
TEST(GuestAllocatorPropertyTest, RandomizedWorkloadKeepsInvariants) {
  auto memory = MakeMemory({.min_pages = 2});
  ASSERT_NE(memory, nullptr);
  GuestAllocator alloc(memory.get(), 256);
  Rng rng(2024);

  std::map<uint32_t, uint32_t> live;  // addr -> size
  uint64_t expected_live = 0;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = live.empty() || rng.NextBelow(100) < 60;
    if (do_alloc) {
      const uint32_t size = 1 + static_cast<uint32_t>(rng.NextBelow(4096));
      auto addr = alloc.Allocate(size);
      ASSERT_TRUE(addr.ok()) << addr.status();
      // Check no overlap with any live block.
      const auto next = live.lower_bound(*addr);
      if (next != live.end()) ASSERT_LE(*addr + size, next->first);
      if (next != live.begin()) {
        const auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, *addr);
      }
      live[*addr] = size;
      ++expected_live;
    } else {
      const size_t victim = rng.NextBelow(live.size());
      auto it = live.begin();
      std::advance(it, victim);
      ASSERT_TRUE(alloc.Deallocate(it->first).ok());
      live.erase(it);
      --expected_live;
    }
    ASSERT_EQ(alloc.live_allocations(), expected_live);
  }

  for (const auto& [addr, size] : live) {
    ASSERT_TRUE(alloc.Deallocate(addr).ok());
  }
  EXPECT_EQ(alloc.live_allocations(), 0u);
  EXPECT_EQ(alloc.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace rr::wasm
