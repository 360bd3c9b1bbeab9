// WebAssembly linear memory: a contiguous, byte-addressable, bounds-checked
// array that grows in 64 KiB pages (§2.1 "Linear Memory" in the paper).
//
// This is the object Roadrunner's shim reads from and writes into. All host
// access goes through the checked Read/Write/Slice APIs, which is how the
// shim "applies bounds checking before any read or write operation" (§3.1).
//
// Layout: one private anonymous mapping, reserved once at the memory's
// maximum size (limits().max_pages) with PROT_NONE and MAP_NORESERVE, the
// way production engines such as Wasmtime and V8 lay out linear memory.
// Only the current pages are read-write; Grow opens the next pages with
// mprotect. Fresh anonymous pages read zero and the kernel commits each one
// on first touch, so neither creation nor Grow zero-fills or copies
// anything, and an instance costs resident memory only for the guest pages
// it has touched.
//
// Memory that grows is where payloads land, so the first Grow advises
// transparent huge pages (madvise MADV_HUGEPAGE) over the reservation past
// the module's declared minimum: on a host whose THP mode is `madvise` or
// `always`, grown pages then fault in 2 MiB at a time. A memory that never
// grows keeps base pages and makes no such call.
//
// The base never moves: a span from Slice/MutableSlice stays valid across
// Grow for the memory's whole lifetime. Who may read or write a region's
// bytes is still decided above this class (the shim's region registry and
// its instance's exec_mutex). Every access is bounds-checked in software
// against the current size; the PROT_NONE tail of the reservation is
// defence in depth, not a replacement for those checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "wasm/types.h"

namespace rr::wasm {

class LinearMemory {
 public:
  // Reserves the memory's maximum (kDefaultMaxPages when `limits` declares
  // none or a larger one) and opens its `min_pages`. A reservation the host
  // cannot make is ResourceExhausted.
  static Result<std::unique_ptr<LinearMemory>> Create(Limits limits);

  ~LinearMemory();
  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;

  uint32_t pages() const { return pages_; }
  size_t byte_size() const { return static_cast<size_t>(pages_) * kWasmPageSize; }
  const Limits& limits() const { return limits_; }

  // memory.grow semantics: returns the previous page count, or -1 when the
  // request exceeds the limit or the host refuses the pages (the size is
  // then unchanged). The first growth advises huge pages (see above).
  int32_t Grow(uint32_t delta_pages);

  // True when [addr, addr+len) lies inside the current memory size.
  bool InBounds(uint64_t addr, uint64_t len) const {
    return addr + len <= byte_size() && addr + len >= addr;
  }

  // Guest-side typed access (used by the interpreter). Out-of-bounds access
  // is a trap, reported via Status.
  template <typename T>
  Result<T> Load(uint64_t addr) const {
    if (!InBounds(addr, sizeof(T))) {
      return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                          "load at " + std::to_string(addr));
    }
    return LoadLE<T>(base_ + addr);
  }

  template <typename T>
  Status Store(uint64_t addr, T value) {
    if (!InBounds(addr, sizeof(T))) {
      return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                          "store at " + std::to_string(addr));
    }
    StoreLE<T>(base_ + addr, value);
    return Status::Ok();
  }

  // Host-side bulk access (the shim's read_memory_host / write_memory_host
  // path). Copies across the sandbox boundary and is accounted as Wasm VM
  // I/O (the "penalty to access data in the Wasm VM" of Fig. 6a).
  Status Read(uint64_t addr, MutableByteSpan out) const;
  Status Write(uint64_t addr, ByteSpan data);

  // Cumulative bytes moved across the guest/host boundary via Read/Write.
  // Atomic: shims may read different regions from worker threads.
  uint64_t host_bytes_read() const {
    return host_bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t host_bytes_written() const {
    return host_bytes_written_.load(std::memory_order_relaxed);
  }

  // Zero-copy view into linear memory, valid for the memory's lifetime.
  Result<ByteSpan> Slice(uint64_t addr, uint64_t len) const;
  Result<MutableByteSpan> MutableSlice(uint64_t addr, uint64_t len);

  // memory.copy / memory.fill (bulk memory proposal).
  Status Copy(uint64_t dst, uint64_t src, uint64_t len);
  Status Fill(uint64_t dst, uint8_t value, uint64_t len);

 private:
  explicit LinearMemory(Limits limits)
      : limits_(limits), pages_(limits.min_pages) {}

  size_t reserved_bytes() const {
    return static_cast<size_t>(limits_.max_pages) * kWasmPageSize;
  }

  Limits limits_;
  uint32_t pages_ = 0;
  // Start of the reservation; null when the maximum is 0 pages.
  uint8_t* base_ = nullptr;
  mutable std::atomic<uint64_t> host_bytes_read_{0};
  std::atomic<uint64_t> host_bytes_written_{0};
};

}  // namespace rr::wasm
