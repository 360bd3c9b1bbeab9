// A WebAssembly module instance: linear memory + globals + executable code,
// isolated from the host except through registered imports and the checked
// memory interface. This is the "Wasm VM"-side object the Roadrunner shim
// drives (§3.2.5: "creates a dedicated Wasm VM ... loads the binary into the
// isolated memory space").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "wasm/compiled.h"
#include "wasm/host.h"
#include "wasm/memory.h"
#include "wasm/module.h"

namespace rr::wasm {

struct InstanceConfig {
  // Maximum interpreter call depth before trapping with kStackExhausted.
  uint32_t max_call_depth = 512;
  // Optional instruction budget; traps with kFuelExhausted when spent.
  std::optional<uint64_t> fuel;
  // Overrides the module's declared memory maximum (resource limit set by
  // the shim at VM creation, §3.2.5).
  std::optional<uint32_t> max_memory_pages;
};

// An AOT-simulated function body: native code that may only touch the
// sandbox through the Instance API. Mirrors WasmEdge's AOT mode, where a
// .wasm function runs as compiled native code but still operates on linear
// memory. See DESIGN.md ("Substitutions").
using NativeBody = std::function<Status(Instance& instance,
                                        std::span<const Value> args,
                                        std::span<Value> results)>;

class Instance {
 public:
  // Validates, compiles, links imports, reserves linear memory, applies data
  // segments. Fails closed on any unresolved import or validation error; a
  // memory the host cannot reserve is ResourceExhausted.
  static Result<std::unique_ptr<Instance>> Instantiate(
      Module module, const ImportResolver& imports, InstanceConfig config = {});

  const Module& module() const { return module_; }

  // Null when the module declares no memory.
  LinearMemory* memory() { return memory_.get(); }
  const LinearMemory* memory() const { return memory_.get(); }

  // Calls a function by combined index space (imports first).
  Result<std::vector<Value>> Call(uint32_t func_index, std::span<const Value> args);

  // Calls an exported function by name.
  Result<std::vector<Value>> CallExport(std::string_view name,
                                        std::span<const Value> args);

  bool HasExport(std::string_view name) const {
    return module_.FindExport(name, ExportKind::kFunction) != nullptr;
  }

  // Replaces a defined (exported) function's bytecode with a native body of
  // the same type — simulating an AOT-compiled function. The body still goes
  // through Call's type checks and may only reach memory via this Instance.
  Status RegisterNativeBody(std::string_view export_name, NativeBody body);

  Value global(uint32_t index) const { return globals_.at(index); }
  void set_global(uint32_t index, Value v) { globals_.at(index) = v; }

  // --- execution metering / accounting ------------------------------------
  uint64_t instructions_executed() const { return instructions_executed_; }
  uint64_t host_calls() const { return host_calls_; }
  std::optional<uint64_t> fuel_remaining() const { return fuel_; }
  void AddFuel(uint64_t amount) {
    if (fuel_.has_value()) *fuel_ += amount;
  }

 private:
  friend class Interpreter;

  Instance() = default;

  // Implemented in interpreter.cc.
  Status Invoke(uint32_t defined_index, std::span<const Value> args,
                std::span<Value> results);

  Module module_;
  InstanceConfig config_;
  std::vector<CompiledFunction> compiled_;       // parallel to module_.functions
  std::vector<HostFunction> imported_;           // parallel to module_.imports
  std::vector<NativeBody> native_bodies_;        // parallel to module_.functions
  std::unique_ptr<LinearMemory> memory_;
  std::vector<Value> globals_;

  uint32_t call_depth_ = 0;
  std::optional<uint64_t> fuel_;
  uint64_t instructions_executed_ = 0;
  uint64_t host_calls_ = 0;
};

}  // namespace rr::wasm
