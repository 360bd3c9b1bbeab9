#include "core/user_channel.h"

#include <cstring>

#include "core/endpoint.h"
#include "obs/metrics.h"

namespace rr::core {

Result<UserSpaceChannel> UserSpaceChannel::Create(Shim* source, Shim* target) {
  if (source == nullptr || target == nullptr) {
    return InvalidArgumentError("user-space channel requires two shims");
  }
  if (!source->spec().SameTrustDomain(target->spec())) {
    return PermissionDeniedError(
        "user-space channel denied: " + source->name() + " and " +
        target->name() + " are not in the same workflow/tenant");
  }
  return UserSpaceChannel(source, target);
}

Result<MemoryRegion> UserSpaceChannel::Transfer(const MemoryRegion& source_region,
                                                const MemoryRegion* into) {
  // 1-2: locate + read the source data (zero-copy view via the shim).
  RR_ASSIGN_OR_RETURN(const ByteSpan source_view,
                      source_->OutputView(source_region));

  // 3-4: allocate in the target for the incoming data (or land in the
  // caller's pre-registered gather slice).
  MemoryRegion dest;
  if (into != nullptr) {
    if (into->length != source_region.length) {
      return InvalidArgumentError("destination slice length mismatch");
    }
    dest = *into;
  } else {
    RR_ASSIGN_OR_RETURN(dest, target_->PrepareInput(source_region.length));
  }
  RR_ASSIGN_OR_RETURN(MutableByteSpan dest_span, target_->InputSpan(dest));

  // 5: write — the single user-space copy between the two linear memories.
  if (!source_view.empty()) {
    std::memcpy(dest_span.data(), source_view.data(), source_view.size());
  }
  bytes_transferred_ += source_view.size();
  static obs::Counter& bytes_sent =
      ChannelBytes(TransferMode::kUserSpace, "sent");
  bytes_sent.Inc(source_view.size());
  return dest;
}

Result<InvokeOutcome> UserSpaceChannel::TransferAndInvoke(
    const MemoryRegion& source_region) {
  RR_ASSIGN_OR_RETURN(const MemoryRegion dest, Transfer(source_region));
  return target_->InvokeOnRegion(dest);
}

}  // namespace rr::core
