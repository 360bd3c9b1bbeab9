// RegionGuard: RAII ownership of a placed-but-not-yet-consumed guest memory
// region.
//
// Every receive/invoke path follows the same shape: place a region in a
// target instance (PrepareInput), fill it, hand it to an invoke that
// consumes it. Between placement and hand-off, any failure — a socket
// error, write_memory_host rejection, failed invoke — used to leave
// the region allocated in the instance's guest heap forever (the instance
// returns to its pool and lives on). The guard makes the release structural:
// arm it right after placement, Dismiss() at the exact point ownership
// transfers (successful invoke, successful return to the caller), and every
// early exit releases automatically.
//
// A deliberate non-feature: no locking. deallocate_memory mutates the
// instance's DataAccess registry, which the instance's exec mutex guards;
// the guard must live inside a scope that already holds that lock (every
// receive path does), or release explicitly via ReleaseNow() under it.
#pragma once

#include <utility>

#include "core/shim.h"

namespace rr::core {

class RegionGuard {
 public:
  RegionGuard() = default;
  RegionGuard(Shim* shim, MemoryRegion region) : shim_(shim), region_(region) {}

  ~RegionGuard() { (void)ReleaseNow(); }

  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

  RegionGuard(RegionGuard&& other) noexcept
      : shim_(std::exchange(other.shim_, nullptr)), region_(other.region_) {}
  RegionGuard& operator=(RegionGuard&& other) noexcept {
    if (this != &other) {
      (void)ReleaseNow();
      shim_ = std::exchange(other.shim_, nullptr);
      region_ = other.region_;
    }
    return *this;
  }

  const MemoryRegion& region() const { return region_; }
  bool armed() const { return shim_ != nullptr; }

  // Ownership transferred (the invoke consumed the region, or the caller
  // takes it): the guard stands down.
  void Dismiss() { shim_ = nullptr; }

  // Explicit early release, for sites that must hold the instance's exec
  // mutex only briefly. Idempotent; OK on unarmed guards.
  Status ReleaseNow() {
    Shim* const shim = std::exchange(shim_, nullptr);
    if (shim == nullptr) return Status::Ok();
    return shim->ReleaseRegion(region_);
  }

 private:
  Shim* shim_ = nullptr;
  MemoryRegion region_{};
};

}  // namespace rr::core
