// FaultInjector: the deterministic fault-injection harness behind the chaos
// suite. Process-wide singleton wired under MuxClient and the NodeAgent
// planes behind test-only hooks; production code pays ONE relaxed atomic
// load per site while disarmed.
//
// Schedules are scripted and counter-based, so a run is exactly
// reproducible (and assertable) under TSan/ASan: every site counts its
// occurrences, and a plan fires on occurrence i when i % period == offset,
// at most max_fires times. "Kill the connection on every 3rd stream, twice"
// is Arm(kMuxConnReset, {.period = 3, .offset = 2, .max_fires = 2}).
//
// Sites:
//  * kMuxConnReset       — sender side, per StartStream: the mux connection
//                          is torn down right after the stream is staged,
//                          failing every stream sharing it with kUnavailable
//                          (exactly what a mid-flight RST delivers).
//  * kAgentDropCompletion— agent side, per completed frame receive: the
//                          frame is swallowed — no invoke, no completion
//                          frame, no delivery — a silent far side that only
//                          the sender's backstop deadline can detect.
//  * kAgentDelayCompletion — agent side, per frame: the invoke (and its
//                          completion + delivery) is held for plan.delay,
//                          long enough for the sender to give up and retry;
//                          the stale first-attempt delivery then exercises
//                          the correlation-token rejection path. The held
//                          stream keeps the instance it leased at open, so
//                          a retry needs a second instance in the pool.
//  * kAgentStarveGrant   — agent side, per due flow-control grant: the
//                          window update is withheld, stalling the sender
//                          until its progress deadline types the edge
//                          kDeadlineExceeded.
//
// Agent crash/restart is driven by the harness itself (NodeAgent::Shutdown
// + a fresh Start on the same port) — the agent is an in-process object, so
// no hook is needed to kill it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace rr::resilience {

enum class FaultSite : size_t {
  kMuxConnReset = 0,
  kAgentDropCompletion,
  kAgentDelayCompletion,
  kAgentStarveGrant,
  kCount,
};

struct FaultPlan {
  // Fire on occurrence i (0-based, per site) when i % period == offset.
  // period == 0 never fires.
  uint64_t period = 0;
  uint64_t offset = 0;
  // Stop firing after this many hits (the schedule keeps counting).
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
  // kAgentDelayCompletion: how long to hold the frame.
  Nanos delay{0};
};

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Installs a plan for one site and arms the injector. Replaces any
  // previous plan for the site; counters for the site reset.
  void Arm(FaultSite site, FaultPlan plan);

  // Disarms every site and zeroes all counters. Tests call this in
  // SetUp/TearDown so schedules never leak across cases.
  void Reset();

  // The hook: true when `site`'s plan fires on this occurrence. One relaxed
  // load while disarmed — the production fast path.
  bool ShouldFire(FaultSite site);

  Nanos delay(FaultSite site) const;

  // Observability for the chaos suite's assertions.
  uint64_t fires(FaultSite site) const;
  uint64_t occurrences(FaultSite site) const;

 private:
  FaultInjector() = default;

  struct SiteState {
    FaultPlan plan;
    uint64_t occurrences = 0;
    uint64_t fired = 0;
  };

  std::atomic<bool> armed_{false};
  mutable Mutex mutex_;
  std::array<SiteState, static_cast<size_t>(FaultSite::kCount)> sites_
      RR_GUARDED_BY(mutex_);
};

}  // namespace rr::resilience
