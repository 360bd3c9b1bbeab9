// Payload: the executor-side handle to one function-output's bytes.
//
// A payload starts *guest-resident* — it owns the producer's registered
// output region — and becomes *host-resident* on first Materialize(): one
// read_memory_host egress into a ref-counted rr::Buffer chunk, after which
// the guest region is released (guest heap pressure ends at egress) and
// every holder shares the same immutable chunk. Copying a Payload is a
// refcount bump; an N-way fan-out hands the same handle to N successors and
// the plane performs exactly one egress copy, not N.
//
// Hops pick the cheapest access per transfer: user-space and kernel-space
// hops forward a still-guest-resident payload straight from the producer's
// linear memory (no host buffer at all), while network hops and fan-outs
// materialize once and then read the shared chunks with zero further copies.
//
// Concurrency: Materialize is internally synchronized and idempotent. The
// guest_shim()/guest_region() fast-path accessors are for a payload's single
// consumer (the executor materializes before sharing a payload with more
// than one); every touch of the owning instance's memory happens under that
// instance's exec mutex.
//
// A guest-resident payload pins its owning pool INSTANCE — the specific
// sandbox whose linear memory holds the region — but deliberately not the
// instance's pool lease: the producing invocation returns its instance to
// the pool immediately, and a region-consuming reader later synchronizes
// with whatever invocation the pool admitted next through the instance's
// exec mutex. (Holding the lease itself across DAG worker dispatch
// boundaries would deadlock a bounded pool against the bounded worker set:
// the successor that frees the instance may never get a worker.) The last
// handle to a never-materialized payload releases the guest region, so a
// cancelled run cleans up its frontier without executor bookkeeping.
#pragma once

#include <memory>
#include "common/mutex.h"

#include "common/buffer.h"
#include "core/shim.h"

namespace rr::core {

class Payload {
 public:
  Payload() = default;

  // Host-resident payload over an existing buffer (workflow input, merged
  // fan-in frame). Shares the buffer's chunks.
  explicit Payload(rr::Buffer buffer);

  // Adopts a guest output region in `instance` (the pool instance whose
  // invocation produced it): the payload owns the region and releases it at
  // egress or with the last handle. `instance` must outlive the payload (its
  // pool does; the instance may serve other invocations in the meantime).
  static Payload FromGuest(Shim* instance, MemoryRegion region);

  size_t size() const;

  // True while the bytes still live (only) in the producer's linear memory.
  bool guest_resident() const;

  // Single-consumer fast path (see header comment). Null when host-resident.
  Shim* guest_shim() const;
  const MemoryRegion* guest_region() const;

  // The host-resident bytes. The first call egresses the guest region (one
  // read_memory_host under the source shim's exec mutex, bytes counted as
  // the plane's payload copy) and releases it; later calls return the
  // shared chunk for free.
  Result<rr::Buffer> Materialize() const;

  // Drops this handle's claim without reading the bytes.
  void Reset() { state_.reset(); }

 private:
  struct State {
    ~State();

    Mutex mutex;
    // Non-null while a guest region is held.
    Shim* shim RR_GUARDED_BY(mutex) = nullptr;
    MemoryRegion region RR_GUARDED_BY(mutex){};
    rr::Buffer buffer RR_GUARDED_BY(mutex);
    // True once `buffer` holds the bytes.
    bool materialized RR_GUARDED_BY(mutex) = false;
    size_t size = 0;
  };

  std::shared_ptr<State> state_;
};

}  // namespace rr::core
