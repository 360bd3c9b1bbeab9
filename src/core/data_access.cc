#include "core/data_access.h"

namespace rr::core {

Result<uint32_t> DataAccess::allocate_memory(uint32_t len) {
  RR_ASSIGN_OR_RETURN(const uint32_t address, sandbox_->AllocateMemory(len));
  regions_[address] = MemoryRegion{address, len};
  return address;
}

Status DataAccess::deallocate_memory(uint32_t address) {
  const auto it = regions_.find(address);
  if (it == regions_.end()) {
    return PermissionDeniedError("deallocate of unregistered region at " +
                                 std::to_string(address));
  }
  if (staged_output_.has_value() && staged_output_->address == address) {
    staged_output_.reset();
  }
  regions_.erase(it);
  return sandbox_->DeallocateMemory(address);
}

Result<Bytes> DataAccess::read_memory_wasm(uint32_t address, uint32_t len) {
  if (!IsRegistered(address, len)) {
    return PermissionDeniedError("read_memory_wasm outside registered regions");
  }
  Bytes out(len);
  RR_RETURN_IF_ERROR(sandbox_->ReadMemoryHost(address, out));
  return out;
}

Result<MemoryRegion> DataAccess::locate_memory_region(ByteSpan data) {
  // The span must alias this sandbox's linear memory.
  RR_ASSIGN_OR_RETURN(const ByteSpan whole,
                      sandbox_->SliceMemory(0, static_cast<uint32_t>(
                                                   sandbox_->instance()
                                                       .memory()
                                                       ->byte_size())));
  const uint8_t* base = whole.data();
  if (data.data() < base || data.data() + data.size() > base + whole.size()) {
    return InvalidArgumentError(
        "locate_memory_region: data does not alias this function's memory");
  }
  MemoryRegion region;
  region.address = static_cast<uint32_t>(data.data() - base);
  region.length = static_cast<uint32_t>(data.size());
  RR_RETURN_IF_ERROR(RegisterRegion(region));
  return region;
}

Status DataAccess::send_to_host(uint32_t address, uint32_t len) {
  if (!IsRegistered(address, len)) {
    return PermissionDeniedError("send_to_host of unregistered region");
  }
  staged_output_ = MemoryRegion{address, len};
  return Status::Ok();
}

std::optional<MemoryRegion> DataAccess::TakeStagedOutput() {
  std::optional<MemoryRegion> out = staged_output_;
  staged_output_.reset();
  return out;
}

Result<ByteSpan> DataAccess::read_memory_host(uint32_t address, uint32_t len) {
  if (!IsRegistered(address, len)) {
    return PermissionDeniedError(
        "read_memory_host: region not pre-registered (shim access denied)");
  }
  return sandbox_->SliceMemory(address, len);
}

Status DataAccess::write_memory_host(ByteSpan data, uint32_t address) {
  if (!IsRegistered(address, static_cast<uint32_t>(data.size()))) {
    return PermissionDeniedError(
        "write_memory_host: region not pre-registered (shim access denied)");
  }
  return sandbox_->WriteMemoryHost(address, data);
}

Status DataAccess::write_memory_host(const rr::BufferView& data,
                                     uint32_t address) {
  if (!IsRegistered(address, static_cast<uint32_t>(data.size()))) {
    return PermissionDeniedError(
        "write_memory_host: region not pre-registered (shim access denied)");
  }
  uint32_t offset = 0;
  for (size_t i = 0; i < data.segment_count(); ++i) {
    const ByteSpan segment = data.segment(i);
    RR_RETURN_IF_ERROR(sandbox_->WriteMemoryHost(address + offset, segment));
    offset += static_cast<uint32_t>(segment.size());
  }
  return Status::Ok();
}

Status DataAccess::RegisterRegion(MemoryRegion region) {
  if (!sandbox_->instance().memory()->InBounds(region.address, region.length)) {
    return OutOfRangeError("region exceeds linear memory bounds");
  }
  // Merge-tolerant: re-registering an identical or nested region is a no-op.
  if (IsRegistered(region.address, region.length)) return Status::Ok();
  regions_[region.address] = region;
  return Status::Ok();
}

Status DataAccess::TrimRegion(MemoryRegion region) {
  const auto it = regions_.find(region.address);
  if (it == regions_.end() || region.length > it->second.length) {
    return PermissionDeniedError("trim outside the region registered at " +
                                 std::to_string(region.address));
  }
  it->second.length = region.length;
  return Status::Ok();
}

bool DataAccess::IsRegistered(uint32_t address, uint32_t len) const {
  return FindCovering(address, len) != nullptr;
}

const MemoryRegion* DataAccess::FindCovering(uint32_t address,
                                             uint32_t len) const {
  // Candidate: the region with the greatest start <= address.
  auto it = regions_.upper_bound(address);
  if (it == regions_.begin()) return nullptr;
  --it;
  const MemoryRegion& region = it->second;
  const uint64_t end = static_cast<uint64_t>(address) + len;
  if (address >= region.address &&
      end <= static_cast<uint64_t>(region.address) + region.length) {
    return &region;
  }
  return nullptr;
}

}  // namespace rr::core
