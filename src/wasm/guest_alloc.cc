#include "wasm/guest_alloc.h"

#include <algorithm>
#include <string>

namespace rr::wasm {
namespace {

uint32_t AlignUp(uint32_t v, uint32_t alignment) {
  return (v + alignment - 1) & ~(alignment - 1);
}

}  // namespace

GuestAllocator::GuestAllocator(LinearMemory* memory, uint32_t heap_base)
    : memory_(memory),
      heap_base_(AlignUp(heap_base, kAlign)),
      heap_end_(heap_base_) {}

Result<uint32_t> GuestAllocator::ReadSize(uint32_t header) const {
  return memory_->Load<uint32_t>(header);
}

Result<uint32_t> GuestAllocator::ReadTag(uint32_t header) const {
  return memory_->Load<uint32_t>(header + 4);
}

Status GuestAllocator::WriteHeader(uint32_t header, uint32_t size, uint32_t tag) {
  RR_RETURN_IF_ERROR(memory_->Store<uint32_t>(header, size));
  return memory_->Store<uint32_t>(header + 4, tag);
}

Result<uint32_t> GuestAllocator::ReadNext(uint32_t header) const {
  return memory_->Load<uint32_t>(header + kHeaderSize);
}

Status GuestAllocator::WriteNext(uint32_t header, uint32_t next) {
  return memory_->Store<uint32_t>(header + kHeaderSize, next);
}

Status GuestAllocator::GrowHeap(uint32_t min_extra_bytes) {
  const uint32_t needed = AlignUp(min_extra_bytes, kWasmPageSize);
  uint32_t delta_pages = needed / kWasmPageSize;

  // Claim any memory that already exists past heap_end_ first.
  const uint64_t existing_slack = memory_->byte_size() - heap_end_;
  if (existing_slack >= min_extra_bytes) {
    delta_pages = 0;
  } else if (memory_->Grow(delta_pages) < 0) {
    return ResourceExhaustedError("guest heap: memory.grow refused");
  }

  const uint32_t block = heap_end_;
  const uint32_t new_end = static_cast<uint32_t>(memory_->byte_size());
  const uint32_t payload = new_end - block - kHeaderSize;
  heap_end_ = new_end;
  RR_RETURN_IF_ERROR(WriteHeader(block, payload, kFreeTag));
  return InsertFree(block);
}

Status GuestAllocator::InsertFree(uint32_t header) {
  // Address-ordered insert, coalescing with predecessor and successor.
  uint32_t prev = kNull;
  uint32_t current = free_head_;
  while (current != kNull && current < header) {
    prev = current;
    RR_ASSIGN_OR_RETURN(current, ReadNext(current));
  }

  RR_ASSIGN_OR_RETURN(uint32_t size, ReadSize(header));

  // Coalesce with successor.
  if (current != kNull && header + kHeaderSize + size == current) {
    RR_ASSIGN_OR_RETURN(const uint32_t next_size, ReadSize(current));
    RR_ASSIGN_OR_RETURN(const uint32_t next_next, ReadNext(current));
    size += kHeaderSize + next_size;
    current = next_next;
  }

  // Coalesce with predecessor.
  if (prev != kNull) {
    RR_ASSIGN_OR_RETURN(const uint32_t prev_size, ReadSize(prev));
    if (prev + kHeaderSize + prev_size == header) {
      const uint32_t merged = prev_size + kHeaderSize + size;
      RR_RETURN_IF_ERROR(WriteHeader(prev, merged, kFreeTag));
      return WriteNext(prev, current);
    }
  }

  RR_RETURN_IF_ERROR(WriteHeader(header, size, kFreeTag));
  RR_RETURN_IF_ERROR(WriteNext(header, current));
  if (prev == kNull) {
    free_head_ = header;
  } else {
    RR_RETURN_IF_ERROR(WriteNext(prev, header));
  }
  return Status::Ok();
}

Result<uint32_t> GuestAllocator::Allocate(uint32_t size) {
  if (size == 0) return InvalidArgumentError("guest allocation of 0 bytes");
  const uint32_t want = std::max(AlignUp(size, kAlign), kMinPayload);

  for (int attempt = 0; attempt < 2; ++attempt) {
    // First fit.
    uint32_t prev = kNull;
    uint32_t current = free_head_;
    while (current != kNull) {
      RR_ASSIGN_OR_RETURN(const uint32_t block_size, ReadSize(current));
      RR_ASSIGN_OR_RETURN(const uint32_t next, ReadNext(current));
      if (block_size >= want) {
        uint32_t remainder = block_size - want;
        uint32_t replacement = next;
        if (remainder >= kHeaderSize + kMinPayload) {
          // Split: tail becomes a new free block.
          const uint32_t tail = current + kHeaderSize + want;
          RR_RETURN_IF_ERROR(
              WriteHeader(tail, remainder - kHeaderSize, kFreeTag));
          RR_RETURN_IF_ERROR(WriteNext(tail, next));
          replacement = tail;
          RR_RETURN_IF_ERROR(WriteHeader(current, want, kAllocatedTag));
        } else {
          RR_RETURN_IF_ERROR(WriteHeader(current, block_size, kAllocatedTag));
        }
        if (prev == kNull) {
          free_head_ = replacement;
        } else {
          RR_RETURN_IF_ERROR(WriteNext(prev, replacement));
        }
        RR_ASSIGN_OR_RETURN(const uint32_t final_size, ReadSize(current));
        bytes_in_use_ += final_size;
        ++live_allocations_;
        return current + kHeaderSize;
      }
      prev = current;
      current = next;
    }
    RR_RETURN_IF_ERROR(GrowHeap(want + kHeaderSize));
  }
  return ResourceExhaustedError("guest heap exhausted");
}

Result<uint32_t> GuestAllocator::AllocatedHeader(uint32_t address,
                                                 const char* op) const {
  if (address < heap_base_ + kHeaderSize) {
    return InvalidArgumentError(std::string(op) + ": address below heap");
  }
  const uint32_t header = address - kHeaderSize;
  RR_ASSIGN_OR_RETURN(const uint32_t tag, ReadTag(header));
  if (tag != kAllocatedTag) {
    return InvalidArgumentError(
        std::string(op) + (tag == kFreeTag
                               ? ": guest block is free (double free?)"
                               : ": not an allocated block"));
  }
  return header;
}

Status GuestAllocator::Deallocate(uint32_t address) {
  RR_ASSIGN_OR_RETURN(const uint32_t header,
                      AllocatedHeader(address, "deallocate"));
  RR_ASSIGN_OR_RETURN(const uint32_t size, ReadSize(header));
  bytes_in_use_ -= size;
  --live_allocations_;
  return InsertFree(header);
}

Status GuestAllocator::Shrink(uint32_t address, uint32_t size) {
  RR_ASSIGN_OR_RETURN(const uint32_t header,
                      AllocatedHeader(address, "shrink"));
  RR_ASSIGN_OR_RETURN(const uint32_t block_size, ReadSize(header));
  if (size == 0 || size > block_size) {
    return InvalidArgumentError("shrink: " + std::to_string(size) +
                                " bytes does not fit a block of " +
                                std::to_string(block_size));
  }
  const uint32_t keep = std::max(AlignUp(size, kAlign), kMinPayload);
  const uint32_t remainder = block_size - keep;
  if (remainder < kHeaderSize + kMinPayload) return Status::Ok();
  const uint32_t tail = header + kHeaderSize + keep;
  RR_RETURN_IF_ERROR(WriteHeader(header, keep, kAllocatedTag));
  RR_RETURN_IF_ERROR(WriteHeader(tail, remainder - kHeaderSize, kFreeTag));
  bytes_in_use_ -= remainder;
  return InsertFree(tail);
}

}  // namespace rr::wasm
