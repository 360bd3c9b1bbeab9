#include "runtime/wasm_sandbox.h"

#include <algorithm>
#include <string>

#include "wasm/decoder.h"

namespace rr::runtime {

Result<std::unique_ptr<WasmSandbox>> WasmSandbox::Create(FunctionSpec spec,
                                                         ByteSpan wasm_binary,
                                                         Options options) {
  auto sandbox =
      std::unique_ptr<WasmSandbox>(new WasmSandbox(std::move(spec), options));

  RR_ASSIGN_OR_RETURN(wasm::Module module, wasm::DecodeModule(wasm_binary));
  if (!module.memory.has_value()) {
    return InvalidArgumentError("function module declares no memory");
  }

  wasm::ImportResolver imports;
  if (options.enable_wasi) sandbox->wasi_.RegisterImports(imports);

  wasm::InstanceConfig config;
  config.max_memory_pages = sandbox->spec_.memory_limit_pages;
  RR_ASSIGN_OR_RETURN(sandbox->instance_, wasm::Instance::Instantiate(
                                              std::move(module), imports, config));

  sandbox->allocator_ = std::make_unique<wasm::GuestAllocator>(
      sandbox->instance_->memory(), options.heap_base);

  // Wire the allocator behind the guest's exported allocate/deallocate, so
  // the shim always goes through the module's own export surface.
  RR_RETURN_IF_ERROR(sandbox->instance_->RegisterNativeBody(
      kExportAllocate,
      [raw = sandbox.get()](wasm::Instance&, std::span<const wasm::Value> args,
                            std::span<wasm::Value> results) -> Status {
        RR_ASSIGN_OR_RETURN(const uint32_t addr,
                            raw->allocator_->Allocate(args[0].AsU32()));
        results[0] = wasm::Value::I32(static_cast<int32_t>(addr));
        return Status::Ok();
      }));
  RR_RETURN_IF_ERROR(sandbox->instance_->RegisterNativeBody(
      kExportDeallocate,
      [raw = sandbox.get()](wasm::Instance&, std::span<const wasm::Value> args,
                            std::span<wasm::Value>) -> Status {
        return raw->allocator_->Deallocate(args[0].AsU32());
      }));
  return sandbox;
}

Status WasmSandbox::Deploy(NativeHandler handler) {
  return instance_->RegisterNativeBody(
      kExportHandle,
      [this, handler = std::move(handler)](
          wasm::Instance& instance, std::span<const wasm::Value> args,
          std::span<wasm::Value> results) -> Status {
        const uint32_t in_ptr = args[0].AsU32();
        const uint32_t in_len = args[1].AsU32();
        // The handler reads its input directly from linear memory — an AOT
        // function's loads, not a host copy.
        RR_ASSIGN_OR_RETURN(const ByteSpan input,
                            instance.memory()->Slice(in_ptr, in_len));
        RR_ASSIGN_OR_RETURN(Bytes output, handler(input));
        const uint32_t out_len = static_cast<uint32_t>(output.size());

        // The handler has consumed its input, so an output that fits is
        // written over the input block, trimmed to the output's length: the
        // invocation touches no fresh guest pages. A larger output (or an
        // input that is not a whole allocator block) takes a fresh block.
        // Either way the bytes land through the module's own allocator and
        // guest-visible stores.
        const uint32_t block = std::max<uint32_t>(1, out_len);
        uint32_t out_ptr = in_ptr;
        if (out_len > in_len || !allocator_->Shrink(in_ptr, block).ok()) {
          RR_ASSIGN_OR_RETURN(out_ptr, allocator_->Allocate(block));
        }
        RR_ASSIGN_OR_RETURN(MutableByteSpan dest,
                            instance.memory()->MutableSlice(out_ptr, out_len));
        std::copy(output.begin(), output.end(), dest.begin());
        results[0] = wasm::Value::I64(PackRegion(out_ptr, out_len));
        return Status::Ok();
      });
}

Result<uint32_t> WasmSandbox::AllocateMemory(uint32_t len) {
  std::vector<wasm::Value> args = {wasm::Value::I32(static_cast<int32_t>(len))};
  RR_ASSIGN_OR_RETURN(const std::vector<wasm::Value> results,
                      instance_->CallExport(kExportAllocate, args));
  return results[0].AsU32();
}

Status WasmSandbox::DeallocateMemory(uint32_t address) {
  std::vector<wasm::Value> args = {
      wasm::Value::I32(static_cast<int32_t>(address))};
  auto results = instance_->CallExport(kExportDeallocate, args);
  return results.ok() ? Status::Ok() : results.status();
}

Status WasmSandbox::ReadMemoryHost(uint32_t address, MutableByteSpan out) {
  return instance_->memory()->Read(address, out);
}

Status WasmSandbox::WriteMemoryHost(uint32_t address, ByteSpan data) {
  return instance_->memory()->Write(address, data);
}

Result<ByteSpan> WasmSandbox::SliceMemory(uint32_t address, uint32_t len) const {
  return instance_->memory()->Slice(address, len);
}

Result<MutableByteSpan> WasmSandbox::MutableSliceMemory(uint32_t address,
                                                        uint32_t len) {
  return instance_->memory()->MutableSlice(address, len);
}

Result<WasmSandbox::InvokeResult> WasmSandbox::Invoke(ByteSpan input) {
  RR_ASSIGN_OR_RETURN(
      const uint32_t in_ptr,
      AllocateMemory(std::max<uint32_t>(1, static_cast<uint32_t>(input.size()))));
  RR_RETURN_IF_ERROR(WriteMemoryHost(in_ptr, input));
  auto result = InvokeInPlace(in_ptr, static_cast<uint32_t>(input.size()));
  // The call consumed the input block; it lives on only as an output the
  // guest wrote over it.
  if (!result.ok() || result->output_address != in_ptr) {
    (void)DeallocateMemory(in_ptr);
  }
  return result;
}

Result<WasmSandbox::InvokeResult> WasmSandbox::InvokeInPlace(uint32_t address,
                                                             uint32_t length) {
  std::vector<wasm::Value> args = {
      wasm::Value::I32(static_cast<int32_t>(address)),
      wasm::Value::I32(static_cast<int32_t>(length))};
  RR_ASSIGN_OR_RETURN(const std::vector<wasm::Value> results,
                      instance_->CallExport(kExportHandle, args));
  const auto [out_ptr, out_len] = UnpackRegion(results[0].i64);
  // An output is a fresh block, or the input block itself trimmed to the
  // output; anything else sharing the input's bytes is out of contract. An
  // empty region counts as its first byte: blocks hold at least one.
  const bool in_place = out_ptr == address && out_len <= length;
  const uint64_t out_end = uint64_t{out_ptr} + std::max<uint32_t>(1, out_len);
  const uint64_t in_end = uint64_t{address} + std::max<uint32_t>(1, length);
  if (!in_place && out_ptr < in_end && address < out_end) {
    return FailedPreconditionError(
        "guest output [" + std::to_string(out_ptr) + ", +" +
        std::to_string(out_len) + ") overlaps its input [" +
        std::to_string(address) + ", +" + std::to_string(length) + ")");
  }
  return InvokeResult{out_ptr, out_len};
}

Result<WasmSandbox*> WasmVm::AddModule(FunctionSpec spec, ByteSpan wasm_binary,
                                       WasmSandbox::Options options) {
  if (spec.workflow != workflow_ || spec.tenant != tenant_) {
    return PermissionDeniedError(
        "module " + spec.name + " belongs to workflow '" + spec.workflow +
        "'/tenant '" + spec.tenant + "', VM hosts '" + workflow_ + "'/'" +
        tenant_ + "'");
  }
  {
    MutexLock lock(mutex_);
    if (modules_.count(spec.name) != 0) {
      return AlreadyExistsError("module already loaded: " + spec.name);
    }
  }
  const std::string name = spec.name;
  RR_ASSIGN_OR_RETURN(auto sandbox,
                      WasmSandbox::Create(std::move(spec), wasm_binary, options));
  WasmSandbox* raw = sandbox.get();
  MutexLock lock(mutex_);
  if (!modules_.emplace(name, std::move(sandbox)).second) {
    return AlreadyExistsError("module already loaded: " + name);
  }
  return raw;
}

WasmSandbox* WasmVm::Find(const std::string& name) {
  MutexLock lock(mutex_);
  const auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.get();
}

}  // namespace rr::runtime
