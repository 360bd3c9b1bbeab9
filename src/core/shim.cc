#include "core/shim.h"

#include "core/region_guard.h"

namespace rr::core {

Result<std::unique_ptr<Shim>> Shim::Create(runtime::FunctionSpec spec,
                                           ByteSpan wasm_binary,
                                           runtime::WasmSandbox::Options options) {
  RR_ASSIGN_OR_RETURN(auto sandbox,
                      runtime::WasmSandbox::Create(std::move(spec), wasm_binary,
                                                   options));
  runtime::WasmSandbox* raw = sandbox.get();
  return std::unique_ptr<Shim>(new Shim(std::move(sandbox), raw));
}

Result<std::unique_ptr<Shim>> Shim::CreateInVm(
    runtime::WasmVm& vm, runtime::FunctionSpec spec, ByteSpan wasm_binary,
    runtime::WasmSandbox::Options options) {
  RR_ASSIGN_OR_RETURN(runtime::WasmSandbox* const module,
                      vm.AddModule(std::move(spec), wasm_binary, options));
  return std::unique_ptr<Shim>(new Shim(nullptr, module));
}

Result<InvokeOutcome> Shim::DeliverAndInvoke(ByteSpan input) {
  return DeliverAndInvoke(rr::BufferView(input));
}

Result<InvokeOutcome> Shim::DeliverAndInvoke(const rr::BufferView& input) {
  if (input.size() > UINT32_MAX) {
    return ResourceExhaustedError("input exceeds 32-bit guest memory");
  }
  RR_ASSIGN_OR_RETURN(const MemoryRegion in_region,
                      PrepareInput(static_cast<uint32_t>(input.size())));
  // A failed write or invoke leaves the input placed: release it.
  RegionGuard guard(this, in_region);
  RR_RETURN_IF_ERROR(WriteInput(in_region, input));
  RR_ASSIGN_OR_RETURN(const InvokeOutcome outcome, InvokeOnRegion(in_region));
  guard.Dismiss();
  return outcome;
}

Status Shim::WriteInput(const MemoryRegion& region, const rr::BufferView& data) {
  if (data.size() != region.length) {
    return InvalidArgumentError("payload length does not match input region");
  }
  return data_.write_memory_host(data, region.address);
}

Result<MemoryRegion> Shim::PrepareInput(uint32_t length) {
  RR_ASSIGN_OR_RETURN(const uint32_t address,
                      data_.allocate_memory(std::max<uint32_t>(1, length)));
  return MemoryRegion{address, length};
}

Result<MutableByteSpan> Shim::InputSpan(const MemoryRegion& region) {
  if (!data_.IsRegistered(region.address, region.length)) {
    return PermissionDeniedError("input region not registered");
  }
  return sandbox_->MutableSliceMemory(region.address, region.length);
}

Result<InvokeOutcome> Shim::InvokeOnRegion(const MemoryRegion& region) {
  invocations_.fetch_add(1, std::memory_order_relaxed);
  RR_ASSIGN_OR_RETURN(const runtime::WasmSandbox::InvokeResult result,
                      sandbox_->InvokeInPlace(region.address, region.length));
  // Register the output for shim egress (the locate_memory_region +
  // send_to_host handshake). An output written over the consumed input is
  // the input block itself: it stays allocated, now registered at the
  // output's length. A fresh output leaves the input to be released.
  const MemoryRegion output{result.output_address, result.output_length};
  if (output.address == region.address) {
    RR_RETURN_IF_ERROR(data_.TrimRegion(output));
  } else {
    RR_RETURN_IF_ERROR(data_.RegisterRegion(output));
    RR_RETURN_IF_ERROR(data_.deallocate_memory(region.address));
  }
  RR_RETURN_IF_ERROR(data_.send_to_host(output.address, output.length));
  return InvokeOutcome{output};
}

}  // namespace rr::core
