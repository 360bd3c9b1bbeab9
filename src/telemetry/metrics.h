// Measurement primitives for the evaluation harness: latency breakdowns,
// summary statistics, and resource sampling around a measured section.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "osal/proc_stats.h"

namespace rr::telemetry {

// Latency components of one transfer, matching the paper's breakdown
// (Fig. 6a): pure data movement, serialization/deserialization, and the
// guest<->host copy penalty ("Wasm VM I/O").
struct LatencyBreakdown {
  Nanos total{0};
  Nanos transfer{0};
  Nanos serialization{0};
  Nanos wasm_io{0};

  Nanos accounted() const { return transfer + serialization + wasm_io; }

  LatencyBreakdown& operator+=(const LatencyBreakdown& other) {
    total += other.total;
    transfer += other.transfer;
    serialization += other.serialization;
    wasm_io += other.wasm_io;
    return *this;
  }
};

// Summary over repeated samples.
struct Summary {
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  size_t count = 0;
};

Summary Summarize(std::vector<double> samples);

// Throughput in requests/second, extrapolated for sub-second operations the
// way the paper does (§6.1b: "For operations completed in less than one
// second, we extrapolate throughput by calculating the rate of requests over
// one second").
double ThroughputRps(Nanos mean_latency);

// Samples process CPU (user/kernel) and RSS around a measured section.
class ResourceProbe {
 public:
  void Start() {
    start_wall_ = Now();
    start_cpu_ = osal::ProcessCpuTimes();
    start_rss_ = osal::ResidentSetBytes();
  }

  void Stop() {
    wall_ = Now() - start_wall_;
    cpu_delta_ = osal::ProcessCpuTimes() - start_cpu_;
    end_rss_ = osal::ResidentSetBytes();
  }

  osal::CpuUsage usage() const { return osal::ComputeUsage(cpu_delta_, wall_); }
  osal::CpuTimes cpu_delta() const { return cpu_delta_; }
  Nanos wall() const { return wall_; }
  uint64_t rss_bytes() const { return std::max(start_rss_, end_rss_); }

 private:
  TimePoint start_wall_{};
  osal::CpuTimes start_cpu_{};
  uint64_t start_rss_ = 0;
  Nanos wall_{0};
  osal::CpuTimes cpu_delta_{};
  uint64_t end_rss_ = 0;
};

// One measured data point of a benchmark run (a row of a figure's series).
struct RunMetrics {
  LatencyBreakdown latency;
  osal::CpuUsage cpu;
  uint64_t rss_bytes = 0;

  double total_seconds() const { return ToSeconds(latency.total); }
  double serialization_seconds() const { return ToSeconds(latency.serialization); }
};

}  // namespace rr::telemetry
