// WasmSandbox: one function module inside a Wasm VM, with the host-side
// memory-access surface of Table 1. WasmVm groups the modules of one
// workflow into a single VM/process for user-space data exchange (Fig. 4a).
#pragma once

#include <map>
#include <memory>
#include "common/mutex.h"
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "runtime/function.h"
#include "wasi/wasi.h"
#include "wasm/guest_alloc.h"
#include "wasm/instance.h"

namespace rr::runtime {

// Sandbox construction options set by the shim at VM creation time (§3.2.5).
// The module's declared minimum sizes its memory, and
// FunctionSpec::memory_limit_pages caps it.
struct SandboxOptions {
  bool enable_wasi = true;
  // Reserve the low region of memory for module statics; the guest heap
  // starts here.
  uint32_t heap_base = 64 * 1024;
};

class WasmSandbox {
 public:
  using Options = SandboxOptions;

  // Loads a .wasm binary (decoded and validated by the real pipeline),
  // registers WASI imports, and prepares the guest allocator.
  static Result<std::unique_ptr<WasmSandbox>> Create(FunctionSpec spec,
                                                     ByteSpan wasm_binary,
                                                     Options options = {});

  const FunctionSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // Installs the function's application logic behind the `handle` export
  // (the AOT simulation; see README "Substitutions"). The handler sees the
  // input bytes *inside guest memory* via a bounds-checked view and returns
  // output bytes that are placed back into guest memory through the
  // allocator.
  Status Deploy(NativeHandler handler);

  // --- Table 1: shim-side data access --------------------------------------
  // allocate_memory / deallocate_memory, invoked through the guest export.
  Result<uint32_t> AllocateMemory(uint32_t len);
  Status DeallocateMemory(uint32_t address);
  // read_memory_host / write_memory_host: copies across the VM boundary.
  Status ReadMemoryHost(uint32_t address, MutableByteSpan out);
  Status WriteMemoryHost(uint32_t address, ByteSpan data);
  // Zero-copy views for same-process transfer (user-space channel). Only the
  // owning shim may call these, and only for registered regions.
  Result<ByteSpan> SliceMemory(uint32_t address, uint32_t len) const;
  Result<MutableByteSpan> MutableSliceMemory(uint32_t address, uint32_t len);

  // --- invocation -----------------------------------------------------------
  // Places `input` into guest memory, calls `handle`, and returns the output
  // region (locate_memory_region of the result).
  struct InvokeResult {
    uint32_t output_address = 0;
    uint32_t output_length = 0;
  };
  Result<InvokeResult> Invoke(ByteSpan input);

  // Calls `handle` on data already resident in guest memory (used by the
  // channels after writing the payload in).
  Result<InvokeResult> InvokeInPlace(uint32_t address, uint32_t length);

  wasm::Instance& instance() { return *instance_; }
  wasi::WasiEnv& wasi() { return wasi_; }
  wasm::GuestAllocator& allocator() { return *allocator_; }

  // Cumulative guest<->host copy traffic (the Wasm VM I/O cost).
  uint64_t wasm_io_bytes() const {
    return instance_->memory()->host_bytes_read() +
           instance_->memory()->host_bytes_written();
  }

 private:
  WasmSandbox(FunctionSpec spec, Options options)
      : spec_(std::move(spec)), options_(options) {}

  FunctionSpec spec_;
  Options options_;
  std::unique_ptr<wasm::Instance> instance_;
  std::unique_ptr<wasm::GuestAllocator> allocator_;
  wasi::WasiEnv wasi_;
};

// A Wasm VM hosting the modules of one workflow ("multiple Wasm modules"
// sharing a process, Fig. 1b). The VM enforces the trust precondition: every
// module added must belong to the same workflow and tenant.
//
// The module table is internally synchronized: instance pools grow lazily
// (AddModule) while other modules of the VM are mid-invocation. The modules
// themselves are not — exclusivity of one module's use comes from its
// pool's lease.
class WasmVm {
 public:
  explicit WasmVm(std::string workflow, std::string tenant = "default")
      : workflow_(std::move(workflow)), tenant_(std::move(tenant)) {}

  // Creates a sandboxed module inside this VM.
  Result<WasmSandbox*> AddModule(FunctionSpec spec, ByteSpan wasm_binary,
                                 WasmSandbox::Options options = {});

  WasmSandbox* Find(const std::string& name);

  const std::string& workflow() const { return workflow_; }
  size_t module_count() const {
    MutexLock lock(mutex_);
    return modules_.size();
  }

 private:
  std::string workflow_;
  std::string tenant_;
  // The sandboxes themselves are stable once created; only the map mutates.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<WasmSandbox>> modules_
      RR_GUARDED_BY(mutex_);
};

}  // namespace rr::runtime
