// rr-lint fixture: metric-doc must stay clean.
#include "obs/metrics.h"

void Register() {
  auto& registry = rr::obs::Registry::Get();
  registry.counter("rr_fixture_runs_total", "a plain name");
  registry.counter("rr_fixture_bytes_sent_total", "brace shorthand");
  registry.counter("rr_fixture_bytes_received_total", "brace shorthand");
  registry.histogram("rr_fixture_latency_seconds", "label list stripped",
                     {{"mode", "kernel"}});
  // A series named in a comment never fires: "rr_fixture_commented_total".
  registry.counter("rr_fixture_scratch_total", "suppressed");  // rr-lint: allow(metric-doc)
  const char* prefix = "rr_";  // not a whole series name
  (void)prefix;
}
