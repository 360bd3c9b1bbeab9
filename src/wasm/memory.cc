#include "wasm/memory.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace rr::wasm {
namespace {

Status MappingError(const char* what, size_t bytes, int err) {
  return ResourceExhaustedError("linear memory: " + std::string(what) + " " +
                                std::to_string(bytes) +
                                " bytes: " + std::strerror(err));
}

}  // namespace

Result<std::unique_ptr<LinearMemory>> LinearMemory::Create(Limits limits) {
  if (!limits.has_max || limits.max_pages > kDefaultMaxPages) {
    limits.has_max = true;
    limits.max_pages = kDefaultMaxPages;
  }
  if (limits.min_pages > limits.max_pages) {
    return ResourceExhaustedError(
        "linear memory: minimum of " + std::to_string(limits.min_pages) +
        " pages exceeds the " + std::to_string(limits.max_pages) + "-page cap");
  }
  std::unique_ptr<LinearMemory> memory(new LinearMemory(limits));
  const size_t reserve = memory->reserved_bytes();
  if (reserve > 0) {
    void* mapping = mmap(nullptr, reserve, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mapping == MAP_FAILED) return MappingError("reserving", reserve, errno);
    memory->base_ = static_cast<uint8_t*>(mapping);
  }
  const size_t initial = memory->byte_size();
  if (initial > 0 &&
      mprotect(memory->base_, initial, PROT_READ | PROT_WRITE) != 0) {
    return MappingError("opening", initial, errno);
  }
  return memory;
}

LinearMemory::~LinearMemory() {
  if (base_ != nullptr) munmap(base_, reserved_bytes());
}

int32_t LinearMemory::Grow(uint32_t delta_pages) {
  const uint64_t target = static_cast<uint64_t>(pages_) + delta_pages;
  if (target > limits_.max_pages) return -1;
  const uint32_t old_pages = pages_;
  if (delta_pages == 0) return static_cast<int32_t>(old_pages);
  if (old_pages == limits_.min_pages) {
    // The first growth. Advisory: a kernel without THP refuses it, and the
    // memory works as before on base pages.
    const size_t declared = byte_size();
    (void)madvise(base_ + declared, reserved_bytes() - declared, MADV_HUGEPAGE);
  }
  if (mprotect(base_ + byte_size(),
               static_cast<size_t>(delta_pages) * kWasmPageSize,
               PROT_READ | PROT_WRITE) != 0) {
    return -1;
  }
  pages_ = static_cast<uint32_t>(target);
  return static_cast<int32_t>(old_pages);
}

Status LinearMemory::Read(uint64_t addr, MutableByteSpan out) const {
  if (!InBounds(addr, out.size())) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "host read [" + std::to_string(addr) + ", +" +
                            std::to_string(out.size()) + ")");
  }
  // memcpy requires non-null pointers even for n=0, and an empty span's
  // data() is null (zero-length payloads are legal on the data plane).
  if (!out.empty()) std::memcpy(out.data(), base_ + addr, out.size());
  host_bytes_read_.fetch_add(out.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status LinearMemory::Write(uint64_t addr, ByteSpan data) {
  if (!InBounds(addr, data.size())) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "host write [" + std::to_string(addr) + ", +" +
                            std::to_string(data.size()) + ")");
  }
  if (!data.empty()) std::memcpy(base_ + addr, data.data(), data.size());
  host_bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Result<ByteSpan> LinearMemory::Slice(uint64_t addr, uint64_t len) const {
  if (!InBounds(addr, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "slice [" + std::to_string(addr) + ", +" +
                            std::to_string(len) + ")");
  }
  return ByteSpan(base_ + addr, len);
}

Result<MutableByteSpan> LinearMemory::MutableSlice(uint64_t addr, uint64_t len) {
  if (!InBounds(addr, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "mutable slice [" + std::to_string(addr) + ", +" +
                            std::to_string(len) + ")");
  }
  return MutableByteSpan(base_ + addr, len);
}

// A zero-length op still traps past the end, but then touches no storage: a
// 0-page memory has none, and memmove/memset need non-null pointers.
Status LinearMemory::Copy(uint64_t dst, uint64_t src, uint64_t len) {
  if (!InBounds(dst, len) || !InBounds(src, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds, "memory.copy");
  }
  if (len > 0) std::memmove(base_ + dst, base_ + src, len);
  return Status::Ok();
}

Status LinearMemory::Fill(uint64_t dst, uint8_t value, uint64_t len) {
  if (!InBounds(dst, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds, "memory.fill");
  }
  if (len > 0) std::memset(base_ + dst, value, len);
  return Status::Ok();
}

}  // namespace rr::wasm
