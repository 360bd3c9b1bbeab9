// Counter probes read at phase boundaries: payload-plane accounting, pool
// metrics, registry series, getrusage, /proc/self/io and the bench's own
// operator-new counter. A phase's per-layer counters are the difference of
// two snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/shim_pool.h"

namespace rrbench {

struct Snapshot {
  double user_s = 0;
  double sys_s = 0;
  uint64_t minor_faults = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  uint64_t rw_syscalls = 0;   // /proc/self/io syscr + syscw
  uint64_t bytes_copied = 0;
  uint64_t bytes_allocated = 0;
  uint64_t pool_waits = 0;
  double lease_wait_sum_s = 0;
  uint64_t lease_wait_count = 0;
  uint64_t mux_stalls = 0;
  uint64_t completion_frames = 0;
  uint64_t new_calls = 0;
};

Snapshot TakeSnapshot(
    const std::vector<std::shared_ptr<rr::core::ShimPool>>& pools);

// Whole-process peak resident set (ru_maxrss), MiB.
double PeakRssMib();

// The live DAG ready-queue depth (rr_dag_queue_depth).
int64_t DagQueueDepth();

// Turns on the operator-new counter (off unless --trace: it costs an
// atomic add per allocation).
void CountAllocations();

}  // namespace rrbench
