// Guest heap allocator backing Table 1's `allocate_memory` / and
// `deallocate_memory` APIs.
//
// In the paper, these are functions exported by the Wasm module (compiled
// from Rust's allocator). Here the allocator's *state lives entirely inside
// guest linear memory* — block headers and free-list links are guest bytes —
// so the memory layout matches what a guest-side allocator would produce,
// while the bookkeeping logic runs in the host (an AOT-simulated export; see
// README "Substitutions").
//
// Layout: 8-byte headers [size:u32][tag:u32] precede every block. Free
// blocks form an address-ordered singly-linked list whose `next` pointer is
// stored in the first 4 bytes of the block's payload. Adjacent free blocks
// coalesce on deallocation. First-fit with block splitting.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "wasm/memory.h"

namespace rr::wasm {

class GuestAllocator {
 public:
  // Manages [heap_base, end-of-memory). heap_base is rounded up to 8 bytes.
  // The region below heap_base is left to the module's statics/stack.
  GuestAllocator(LinearMemory* memory, uint32_t heap_base);

  GuestAllocator(const GuestAllocator&) = delete;
  GuestAllocator& operator=(const GuestAllocator&) = delete;

  // Allocates `size` bytes of guest memory; returns the payload address.
  // Grows linear memory (in whole pages) when the free list has no fit.
  Result<uint32_t> Allocate(uint32_t size);

  // Frees a previously allocated block. Rejects addresses that were never
  // returned by Allocate (tag check) — the bounds/ownership validation the
  // paper's shim performs before memory operations (§3.1).
  Status Deallocate(uint32_t address);

  uint32_t heap_base() const { return heap_base_; }
  uint64_t bytes_in_use() const { return bytes_in_use_; }
  uint64_t live_allocations() const { return live_allocations_; }

 private:
  static constexpr uint32_t kHeaderSize = 8;
  static constexpr uint32_t kAlign = 8;
  static constexpr uint32_t kMinPayload = 8;  // room for the free-list link
  static constexpr uint32_t kAllocatedTag = 0xa110c8ed;
  static constexpr uint32_t kFreeTag = 0xf2eeb10c;
  static constexpr uint32_t kNull = 0;

  // Header accessors (operate on guest memory).
  Result<uint32_t> ReadSize(uint32_t header) const;
  Result<uint32_t> ReadTag(uint32_t header) const;
  Status WriteHeader(uint32_t header, uint32_t size, uint32_t tag);
  Result<uint32_t> ReadNext(uint32_t header) const;
  Status WriteNext(uint32_t header, uint32_t next);

  Status GrowHeap(uint32_t min_extra_bytes);
  Status InsertFree(uint32_t header);

  LinearMemory* memory_;
  uint32_t heap_base_;
  uint32_t heap_end_;        // exclusive; tracks how much memory we formatted
  uint32_t free_head_ = kNull;
  uint64_t bytes_in_use_ = 0;
  uint64_t live_allocations_ = 0;
};

}  // namespace rr::wasm
