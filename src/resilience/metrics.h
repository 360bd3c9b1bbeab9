// The failure-recovery plane's metric series. All counters register eagerly
// at startup (repo convention: a scrape before the first failure sees them
// at zero, not missing); the per-breaker state gauges register when the
// breaker is created — on an edge's FIRST dispatch, still before any
// failure can occur.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace rr::resilience {

// Retries scheduled by the executor's policy engine (each one re-registers
// the node's pending slot in backoff).
obs::Counter& RetryAttemptsTotal();

// Dispatches that moved to a different replica than the previous attempt.
obs::Counter& FailoverTotal();

// Runs whose per-run retry budget ran dry (the edge then fails terminally
// with kUnavailable and the gateway answers 503).
obs::Counter& RetryBudgetExhaustedTotal();

// Stale deliveries rejected by correlation token: a completion whose
// transfer was already retired (timed out, retried under a fresh token, or
// cancelled). The replayed-completion safety tests assert on this.
obs::Counter& StaleDeliveriesTotal();

// Per-(function, replica) breaker state gauge:
// 0 = closed, 1 = open, 2 = half-open.
obs::Gauge& BreakerStateGauge(const std::string& function, size_t replica);

}  // namespace rr::resilience
