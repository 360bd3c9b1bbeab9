// Roadrunner's data access model (§3.1, Table 1).
//
// DataAccess is the layer between a function's Wasm VM and its shim. It
// implements every API of Table 1 and enforces the security rules of §3.1:
// "Roadrunner restricts shim-to-Wasm access to pre-registered memory regions
// and applies bounds checking before any read or write operation."
//
//   Function-side (guest)                 Shim-side (host)
//   ---------------------                 ----------------
//   allocate_memory(len)                  read_memory_host(addr, len)
//   deallocate_memory(addr)               write_memory_host(data, addr)
//   read_memory_wasm(addr, len)
//   locate_memory_region(data)
//   send_to_host(addr, len)
#pragma once

#include <map>
#include <optional>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"
#include "runtime/wasm_sandbox.h"

namespace rr::core {

// A contiguous region of a function's linear memory.
struct MemoryRegion {
  uint32_t address = 0;
  uint32_t length = 0;

  bool operator==(const MemoryRegion&) const = default;
};

class DataAccess {
 public:
  explicit DataAccess(runtime::WasmSandbox* sandbox) : sandbox_(sandbox) {}

  DataAccess(const DataAccess&) = delete;
  DataAccess& operator=(const DataAccess&) = delete;

  // --- Table 1: function-side (Memory/Data Management, location=Function) --

  // Allocates linear memory in the Wasm VM and registers the region for shim
  // access.
  Result<uint32_t> allocate_memory(uint32_t len);

  // Deallocates and revokes shim access.
  Status deallocate_memory(uint32_t address);

  // Reads data from a specified address/length in the Wasm VM (a guest-side
  // copy of its own memory; used by functions to consume delivered input).
  Result<Bytes> read_memory_wasm(uint32_t address, uint32_t len);

  // Returns the memory pointer and length of `data`, which must alias the
  // function's linear memory (e.g. a handler-output view). Registers the
  // region so the shim may read it.
  Result<MemoryRegion> locate_memory_region(ByteSpan data);

  // Marks a registered region as the function's staged output ("transfers
  // data memory information to the host interface").
  Status send_to_host(uint32_t address, uint32_t len);

  // The shim's view of the staged output, if any. Consuming clears it.
  std::optional<MemoryRegion> TakeStagedOutput();

  // --- Table 1: shim-side (location=Shim) ----------------------------------

  // Reads from the Wasm VM memory. The region must be pre-registered and in
  // bounds; returns a zero-copy view. Its pointer stays valid for the
  // memory's lifetime, across growth; its bytes are the region's only while
  // the region stays registered.
  Result<ByteSpan> read_memory_host(uint32_t address, uint32_t len);

  // Writes data into the Wasm VM at a pre-registered destination. The
  // BufferView overload gather-writes a segmented payload (the zero-copy
  // plane's chunks) without assembling a contiguous host copy first.
  Status write_memory_host(ByteSpan data, uint32_t address);
  Status write_memory_host(const rr::BufferView& data, uint32_t address);

  // --- region registry ------------------------------------------------------
  // Registers an externally-created region (e.g. handler output located via
  // InvokeResult). Rejects regions outside the current memory bounds.
  Status RegisterRegion(MemoryRegion region);
  // Re-registers the region that starts at region.address at the shorter
  // region.length (an output the guest wrote over its input block).
  Status TrimRegion(MemoryRegion region);
  bool IsRegistered(uint32_t address, uint32_t len) const;
  size_t registered_region_count() const { return regions_.size(); }

  runtime::WasmSandbox& sandbox() { return *sandbox_; }

 private:
  // Finds the registered region fully containing [address, address+len).
  const MemoryRegion* FindCovering(uint32_t address, uint32_t len) const;

  runtime::WasmSandbox* sandbox_;
  // Keyed by start address; regions never overlap (allocator-backed).
  std::map<uint32_t, MemoryRegion> regions_;
  std::optional<MemoryRegion> staged_output_;
};

}  // namespace rr::core
