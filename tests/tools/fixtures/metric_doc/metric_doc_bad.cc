// rr-lint fixture: metric-doc must fire on lines 7 and 9.
#include "obs/metrics.h"

void Register() {
  auto& registry = rr::obs::Registry::Get();
  registry.counter("rr_fixture_runs_total", "documented");
  registry.counter("rr_fixture_dropped_total", "missing from the README");
  // Commented out, so never fires: "rr_fixture_commented_total".
  registry.histogram("rr_fixture_latency_seconds_mode", "missing too");
}
