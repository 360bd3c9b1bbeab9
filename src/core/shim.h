// The Roadrunner shim: a sidecar that owns one function's Wasm VM lifecycle
// and all of its ingress/egress (§3.2.2: "The shim runs as a sidecar
// alongside each function and manages the Wasm VM lifecycle, including
// memory configuration, binary loading, and runtime interaction. It handles
// all function ingress and egress").
#pragma once

#include <atomic>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "common/buffer.h"
#include "common/clock.h"
#include "core/data_access.h"
#include "runtime/function.h"
#include "runtime/wasm_sandbox.h"

namespace rr::core {

// Result of delivering data into a function: where its output lives.
struct InvokeOutcome {
  MemoryRegion output;
};

class Shim {
 public:
  // Creates a standalone shim: dedicated Wasm VM with one module (kernel /
  // network modes — Fig. 4b: "each function has its own dedicated shim").
  static Result<std::unique_ptr<Shim>> Create(
      runtime::FunctionSpec spec, ByteSpan wasm_binary,
      runtime::SandboxOptions options = {});

  // Creates a shim over a module co-located in an existing VM (user-space
  // mode — Fig. 4a: one VM, multiple modules, one managing shim process).
  static Result<std::unique_ptr<Shim>> CreateInVm(
      runtime::WasmVm& vm, runtime::FunctionSpec spec, ByteSpan wasm_binary,
      runtime::SandboxOptions options = {});

  const runtime::FunctionSpec& spec() const { return sandbox_->spec(); }
  const std::string& name() const { return sandbox_->name(); }

  // Installs the function's logic (binary loading happened at Create).
  Status Deploy(runtime::NativeHandler handler) {
    return sandbox_->Deploy(std::move(handler));
  }

  // --- ingress --------------------------------------------------------------
  // Copies `input` into freshly allocated guest memory, invokes the function,
  // and registers its output region. One guest-boundary copy in, zero out.
  // The BufferView overload gather-writes a segmented payload (shared chunks
  // of the zero-copy plane) without assembling a contiguous host copy first.
  // On failure the input region is released: nothing stays placed.
  Result<InvokeOutcome> DeliverAndInvoke(ByteSpan input);
  Result<InvokeOutcome> DeliverAndInvoke(const rr::BufferView& input);

  // Gather-writes `data` into `region` (lengths must match): the guest-side
  // half of a zero-copy delivery, one write_memory_host per segment.
  Status WriteInput(const MemoryRegion& region, const rr::BufferView& data);

  // Two-phase ingress for channels that want to write the payload directly
  // into guest memory (kernel/network receive paths): allocate, let the
  // caller fill the returned span, then InvokeOnRegion.
  Result<MemoryRegion> PrepareInput(uint32_t length);
  Result<MutableByteSpan> InputSpan(const MemoryRegion& region);
  // A successful invoke consumes `region`: the shim frees it, unless the
  // guest returned the input block as its output (written over the input and
  // trimmed), which stays allocated as the output region. Either way the
  // output's holder releases the output and nobody releases the input. A
  // failed invoke leaves `region` placed for the caller to release.
  Result<InvokeOutcome> InvokeOnRegion(const MemoryRegion& region);

  // Releases a placed input or a consumed output region.
  Status ReleaseRegion(const MemoryRegion& region) {
    return data_.deallocate_memory(region.address);
  }

  // --- egress ---------------------------------------------------------------
  // Zero-copy view of a function's registered output (read_memory_host).
  Result<ByteSpan> OutputView(const MemoryRegion& region) {
    return data_.read_memory_host(region.address, region.length);
  }

  DataAccess& data() { return data_; }
  runtime::WasmSandbox& sandbox() { return *sandbox_; }

  // The memory-plane guard of ONE pool instance. Historically this was a
  // function's global serialization point: the function owned a single VM,
  // so every invocation of every concurrent run queued here. With instance
  // pools (core/shim_pool.h) a shim is one of N leased instances — routing
  // makes the mutex uncontended for invocation work — and the mutex's
  // remaining job is the memory plane: a payload whose guest region still
  // lives in this instance synchronizes its reads/release against whatever
  // invocation the pool admitted next. Sites that need both ends of a hop
  // take the two mutexes with rr::MutexPairLock (never one-then-the-other),
  // so lock order cannot deadlock.
  Mutex& exec_mutex() { return exec_mutex_; }

  // Atomic rather than mutex-guarded: pool aggregation and tests read it
  // outside any instance lock.
  uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  Shim(std::unique_ptr<runtime::WasmSandbox> owned, runtime::WasmSandbox* module)
      : owned_sandbox_(std::move(owned)),
        sandbox_(module),
        data_(sandbox_) {}

  std::unique_ptr<runtime::WasmSandbox> owned_sandbox_;  // null in shared-VM mode
  runtime::WasmSandbox* sandbox_;
  DataAccess data_;
  Mutex exec_mutex_;
  std::atomic<uint64_t> invocations_{0};
};

}  // namespace rr::core
