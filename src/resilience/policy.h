// ResiliencePolicy: the retry policy engine for remote (agent-ingress) DAG
// edges.
//
// A failed dispatch whose status is retryable (Status::IsRetryable, plus
// kDataLoss for a wire that died mid-frame — the frame is immutable and its
// correlation token was never completed, so resending cannot duplicate work)
// keeps its node deferred: the executor re-registers the pending slot under a
// FRESH token with a backoff deadline and the sweeper re-dispatches when it
// passes. No DAG worker ever parks in a backoff sleep, and a late completion of a previous attempt matches no pending
// token — it is rejected with kTokenMismatch instead of double-completing
// the node.
//
// Backoff is exponential with DECORRELATED JITTER (AWS architecture blog
// style): each delay is drawn uniformly from [base, 3 * previous], capped at
// max_backoff. The draw comes from a per-run rr::Rng seeded by the policy,
// so a test replaying the same fault schedule observes the same backoff
// sequence — determinism is what lets the chaos suite assert exact retry
// counts under TSan.
//
// The retry BUDGET bounds the total retries one run may spend across all of
// its edges: a run degraded by a widespread outage fails fast with a typed
// kUnavailable ("retry budget exhausted") instead of multiplying load
// against a struggling cluster — the gateway maps that to 503 + Retry-After.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"

namespace rr::resilience {

// Per-hop circuit breaker shape (see breaker.h). failure_threshold == 0
// disables breakers entirely — every dispatch is admitted.
struct BreakerOptions {
  // Consecutive wire-level failures that trip the breaker open.
  uint32_t failure_threshold = 5;
  // How long an open breaker rejects dispatches before admitting one
  // half-open probe.
  Nanos open_cooldown = std::chrono::seconds(1);
};

struct ResiliencePolicy {
  // Master switch. Disabled (the default) reproduces the pre-resilience
  // behavior bit for bit: first error fails the edge, no breakers arm.
  // api::Runtime::Options carries one policy for every run; a DagSpec may
  // override it per submission.
  bool enabled = false;

  // Attempts per replica per edge (1 = no retry). An edge's total attempt
  // bound is max_attempts * replica_count: when one replica's attempts are
  // spent the executor fails over to the next (registration order, wrapping).
  uint32_t max_attempts = 3;

  // Decorrelated-jitter exponential backoff: delay_n ~ U[base, 3 * delay_{n-1}],
  // capped at max_backoff.
  Nanos base_backoff = std::chrono::milliseconds(10);
  Nanos max_backoff = std::chrono::seconds(2);

  // Total retries one run may spend across all of its edges. 0 = no retries
  // at all (attempts still classify, but every retry is refused).
  uint32_t run_retry_budget = 32;

  // Seed for the per-run backoff jitter stream (common/rng xoshiro256**).
  uint64_t jitter_seed = 0x52525f5245545259ULL;  // "RR_RETRY"

  // Breaker shape applied to the workflow's HopTable when this policy is
  // enabled.
  BreakerOptions breaker;
};

// The dispatch-side retry classification: Status::IsRetryable plus
// kDataLoss (a connection that died mid-frame on an idempotent, tokenized
// transfer — see the header comment).
bool RetryableDispatch(const Status& status);

// Wire-level failures — the ones that indict the CHANNEL to a replica
// rather than the request: these feed the replica's circuit breaker. A
// typed in-sync refusal (kResourceExhausted: the remote pool was full) or a
// handler error travelled the wire successfully and must RESET the breaker,
// not trip it.
bool WireLevelFailure(const Status& status);

// Draws the next backoff delay. `prev` is the previous delay for this edge
// (Nanos{0} on the first retry). Thread-compatibility follows `rng`'s: the
// executor guards its per-run Rng with the mailbox mutex.
Nanos NextBackoff(const ResiliencePolicy& policy, Nanos prev, rr::Rng& rng);

// The per-run retry budget: a plain atomic down-counter shared by every
// edge of one run (resolution paths race on it from reactor threads, the
// sweeper, and DAG workers).
class RetryBudget {
 public:
  explicit RetryBudget(uint32_t budget = 0) : remaining_(budget) {}

  // Claims one retry; false when the budget is spent (the caller must fail
  // the edge terminally).
  bool TryConsume() {
    uint32_t current = remaining_.load(std::memory_order_relaxed);
    while (current > 0) {
      if (remaining_.compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  uint32_t remaining() const {
    return remaining_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> remaining_;
};

}  // namespace rr::resilience
