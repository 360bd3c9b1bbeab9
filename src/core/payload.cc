#include "core/payload.h"

namespace rr::core {

Payload::State::~State() {
  if (shim != nullptr) {
    MutexLock shim_lock(shim->exec_mutex());
    (void)shim->ReleaseRegion(region);
  }
}

Payload::Payload(rr::Buffer buffer) : state_(std::make_shared<State>()) {
  state_->buffer = std::move(buffer);
  state_->materialized = true;
  state_->size = state_->buffer.size();
}

Payload Payload::FromGuest(Shim* instance, MemoryRegion region) {
  Payload payload;
  payload.state_ = std::make_shared<State>();
  payload.state_->shim = instance;
  payload.state_->region = region;
  payload.state_->size = region.length;
  return payload;
}

size_t Payload::size() const { return state_ == nullptr ? 0 : state_->size; }

bool Payload::guest_resident() const {
  if (state_ == nullptr) return false;
  MutexLock lock(state_->mutex);
  return state_->shim != nullptr;
}

Shim* Payload::guest_shim() const {
  return state_ == nullptr ? nullptr : state_->shim;
}

const MemoryRegion* Payload::guest_region() const {
  if (state_ == nullptr || state_->shim == nullptr) return nullptr;
  return &state_->region;
}

Result<rr::Buffer> Payload::Materialize() const {
  if (state_ == nullptr) return rr::Buffer{};
  MutexLock lock(state_->mutex);
  if (state_->materialized) return state_->buffer;

  Shim* const shim = state_->shim;
  MutableByteSpan fill;
  rr::Buffer buffer = rr::Buffer::ForOverwrite(state_->region.length, &fill);
  {
    // The instance may be mid-invocation for another run (the pool re-leased
    // it after the producing invocation returned); its exec mutex
    // synchronizes this region read against that guest activity.
    MutexLock shim_lock(shim->exec_mutex());
    if (!fill.empty()) {
      RR_RETURN_IF_ERROR(shim->sandbox().ReadMemoryHost(state_->region.address,
                                                        fill));
      rr::Buffer::CountExternalCopy(fill.size());
    }
    (void)shim->ReleaseRegion(state_->region);
  }
  state_->shim = nullptr;
  state_->buffer = std::move(buffer);
  state_->materialized = true;
  return state_->buffer;
}

}  // namespace rr::core
