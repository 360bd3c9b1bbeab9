#include "core/endpoint.h"

#include "obs/metrics.h"

namespace rr::core {

std::string_view TransferModeName(TransferMode mode) {
  switch (mode) {
    case TransferMode::kUserSpace: return "user-space";
    case TransferMode::kKernelSpace: return "kernel-space";
    case TransferMode::kNetwork: return "network";
  }
  return "?";
}

obs::Counter& ChannelBytes(TransferMode mode, const char* direction) {
  const char* label = "user";
  if (mode == TransferMode::kKernelSpace) label = "kernel";
  if (mode == TransferMode::kNetwork) label = "network";
  return *obs::Registry::Get().counter(
      "rr_channel_bytes_total", "Payload bytes moved through data channels",
      {{"mode", label}, {"direction", direction}});
}

TransferMode SelectMode(const Location& source, const Location& target) {
  if (source.SameVm(target)) return TransferMode::kUserSpace;
  if (source.SameNode(target)) return TransferMode::kKernelSpace;
  return TransferMode::kNetwork;
}

Result<ShimLease> Endpoint::Lease() {
  if (pool != nullptr) return pool->Lease();
  if (shim == nullptr) {
    return FailedPreconditionError("endpoint has neither pool nor shim");
  }
  // Pool-less endpoint (built outside a WorkflowManager): adopt per call
  // rather than caching into `pool` — a member write here would race
  // concurrent Lease() calls on a shared endpoint. Overlapping leases share
  // one pool through the adoption memo; once the last lease drops, the memo
  // expires and a later call rebuilds the (cheap, 1-instance wrapper) pool.
  RR_ASSIGN_OR_RETURN(std::shared_ptr<ShimPool> adopted, ShimPool::Adopt(shim));
  return adopted->Lease();
}

}  // namespace rr::core
