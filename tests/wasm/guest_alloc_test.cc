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

TEST_F(GuestAllocatorTest, ShrinkReturnsTheTailToTheFreeList) {
  auto a = alloc_.Allocate(1000);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(alloc_.Shrink(*a, 100).ok());
  EXPECT_EQ(alloc_.bytes_in_use(), 104u);  // 100 rounded to the alignment
  EXPECT_EQ(alloc_.live_allocations(), 1u);
  // First fit finds the freed tail right behind the trimmed block.
  auto b = alloc_.Allocate(800);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*b, *a + 104 + 8);
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  ASSERT_TRUE(alloc_.Deallocate(*b).ok());
  EXPECT_EQ(alloc_.bytes_in_use(), 0u);
}

TEST_F(GuestAllocatorTest, ShrinkKeepsAnUnsplittableRemainder) {
  auto a = alloc_.Allocate(64);
  ASSERT_TRUE(a.ok()) << a.status();
  // 8 bytes cannot hold a header and a free-list link: the block keeps them.
  ASSERT_TRUE(alloc_.Shrink(*a, 56).ok());
  EXPECT_EQ(alloc_.bytes_in_use(), 64u);
  ASSERT_TRUE(alloc_.Shrink(*a, 64).ok());
  EXPECT_EQ(alloc_.bytes_in_use(), 64u);
  // 1 byte keeps the minimum payload and frees the other 56 (a 48-byte
  // free block behind its own header).
  ASSERT_TRUE(alloc_.Shrink(*a, 1).ok());
  EXPECT_EQ(alloc_.bytes_in_use(), 8u);
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  EXPECT_EQ(alloc_.live_allocations(), 0u);
}

TEST_F(GuestAllocatorTest, ShrinkCoalescesWithAFreeNeighbour) {
  auto a = alloc_.Allocate(1000);
  auto b = alloc_.Allocate(1000);
  auto barrier = alloc_.Allocate(8);  // keeps b apart from the heap's tail
  ASSERT_TRUE(a.ok() && b.ok() && barrier.ok());
  ASSERT_TRUE(alloc_.Deallocate(*b).ok());
  ASSERT_TRUE(alloc_.Shrink(*a, 100).ok());
  // a's 888-byte tail and b's 1000 bytes merged into one free block.
  const uint32_t pages_before = memory_->pages();
  auto merged = alloc_.Allocate(1800);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(*merged, *a + 104 + 8);
  EXPECT_EQ(memory_->pages(), pages_before);
}

TEST_F(GuestAllocatorTest, ShrinkRejectsWhatIsNotAnAllocatedBlock) {
  auto a = alloc_.Allocate(64);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_FALSE(alloc_.Shrink(4, 1).ok());       // below the heap
  EXPECT_FALSE(alloc_.Shrink(*a + 8, 1).ok());  // interior pointer
  EXPECT_FALSE(alloc_.Shrink(*a, 0).ok());      // nothing left
  EXPECT_FALSE(alloc_.Shrink(*a, 65).ok());     // larger than the block
  EXPECT_EQ(alloc_.bytes_in_use(), 64u);
  ASSERT_TRUE(alloc_.Deallocate(*a).ok());
  const Status freed = alloc_.Shrink(*a, 1);    // a free block
  ASSERT_FALSE(freed.ok());
  EXPECT_EQ(freed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc_.live_allocations(), 0u);
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

// Property test: shrinking live blocks mid-workload keeps blocks disjoint,
// bytes_in_use between the live sizes and their rounded blocks, and the heap
// whole: once everything is freed, one allocation spans it without growth.
TEST(GuestAllocatorPropertyTest, RandomizedShrinksKeepInvariants) {
  auto memory = MakeMemory({.min_pages = 2});
  ASSERT_NE(memory, nullptr);
  GuestAllocator alloc(memory.get(), 256);
  Rng rng(2029);

  std::map<uint32_t, uint32_t> live;  // addr -> size
  for (int step = 0; step < 3000; ++step) {
    const uint64_t roll = rng.NextBelow(100);
    if (live.empty() || roll < 50) {
      const uint32_t size = 1 + static_cast<uint32_t>(rng.NextBelow(4096));
      auto addr = alloc.Allocate(size);
      ASSERT_TRUE(addr.ok()) << addr.status();
      const auto next = live.lower_bound(*addr);
      if (next != live.end()) {
        ASSERT_LE(*addr + size, next->first);
      }
      if (next != live.begin()) {
        const auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, *addr);
      }
      live[*addr] = size;
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      if (roll < 80) {
        const uint32_t size =
            1 + static_cast<uint32_t>(rng.NextBelow(it->second));
        ASSERT_TRUE(alloc.Shrink(it->first, size).ok());
        it->second = size;
      } else {
        ASSERT_TRUE(alloc.Deallocate(it->first).ok());
        live.erase(it);
      }
    }
    uint64_t sizes = 0;
    for (const auto& [addr, size] : live) sizes += size;
    ASSERT_EQ(alloc.live_allocations(), live.size());
    ASSERT_GE(alloc.bytes_in_use(), sizes);
    // A block rounds its size up by under 8 and may keep an unsplittable
    // tail of under 16.
    ASSERT_LE(alloc.bytes_in_use(), sizes + 24 * live.size());
  }

  for (const auto& [addr, size] : live) {
    ASSERT_TRUE(alloc.Deallocate(addr).ok());
  }
  EXPECT_EQ(alloc.bytes_in_use(), 0u);
  const uint32_t pages = memory->pages();
  auto whole = alloc.Allocate(static_cast<uint32_t>(memory->byte_size()) -
                              alloc.heap_base() - 8);
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(memory->pages(), pages);
}

}  // namespace
}  // namespace rr::wasm
