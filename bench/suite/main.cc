// rr-bench: one workload of the end-to-end and per-layer benchmark.
//
//   rr_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//            [--smoke] [--trace-out=PATH] [--corrupt]
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1
// runs an untraced half (counter probes, untraced p50) and a traced half
// (bench-side spans), and reports the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every request succeeded with a verified
// output. See README.md for the workloads and metric definitions.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "probes.h"
#include "trace.h"
#include "workload.h"

namespace rrbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Setups per untraced run; setup_s is their median. A small workload sets
// up in about 2 ms, where one scheduler hiccup doubles a single sample.
constexpr int kSetupReps = 15;
// Requests written to the Chrome trace (all traced requests are analyzed).
constexpr size_t kTraceWritten = 2000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke" && arg != "--corrupt" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--corrupt") {
      args->corrupt = true;
    } else {
      std::fprintf(stderr, "rr_bench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return args->seconds > 0;
}

rr::Nanos Seconds(double s) {
  return rr::Nanos(static_cast<int64_t>(s * 1e9));
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Confines the process to the highest CPU it may use; threads created later
// inherit the mask. The small workloads run this way: on a multi-CPU VM
// the scheduler either packs a request's whole thread hand-off chain onto
// one CPU or spreads it, once per process, and the two placements differ
// by about 1.5x in p50 — a coin flip no benchmark bound can absorb.
void PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

class Metrics {
 public:
  void Put(const std::string& name, double value, const char* unit) {
    values_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, entry] : values_) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", name.c_str(), entry.first,
                    entry.second);
      out += buffer;
    }
    return out + "}";
  }
  void Print(FILE* file) const {
    for (const auto& [name, entry] : values_) {
      std::fprintf(file, "  %-34s %14.3f %s\n", name.c_str(), entry.first,
                   entry.second);
    }
  }

 private:
  std::map<std::string, std::pair<double, const char*>> values_;
};

// Runs the workload once; returns the process exit code.
int RunBench(const Args& args, const WorkloadDef& def) {
  const Inputs inputs(def, args.seed);
  Recorder recorder;
  uint64_t next_id = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  const auto account = [&](const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    wrong += phase.wrong;
  };

  // Set-up: from nothing (no VM, pools, agent or gateway) to the first
  // verified request. Repeated in untraced runs; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  std::unique_ptr<LoadGen> gen;
  const int reps = args.trace || args.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    gen.reset();
    system.reset();
    const int64_t t0 = NowNs();
    auto started = StartSystem(def, &recorder, args.corrupt);
    if (!started.ok()) {
      std::fprintf(stderr, "rr_bench: set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    system = std::move(*started);
    auto created =
        LoadGen::Create(def, system.get(), &inputs, &recorder, &next_id);
    if (!created.ok()) {
      std::fprintf(stderr, "rr_bench: load generator failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    gen = std::move(*created);
    PhaseConfig first;
    first.outstanding = 1;
    first.max_ops = 1;
    first.duration = std::chrono::seconds(60);
    account(gen->Run(first));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // The phase whose latency the run reports: open loop at the frozen rate
  // on the small workloads, closed loop on the large ones.
  const auto latency_phase = [&](double seconds, bool trace) {
    PhaseConfig config;
    config.open_loop = def.small;
    config.rate = def.open_rps;
    config.outstanding = def.outstanding;
    config.duration = Seconds(seconds);
    config.trace = trace;
    return config;
  };
  const double smoke_s = 1.0;
  account(gen->Run(latency_phase(args.smoke ? 0.2 : 0.5, false)));  // warm-up

  Metrics metrics;
  if (!args.trace) {
    const double latency_s =
        args.smoke ? smoke_s : (def.small ? 0.65 : 1.0) * args.seconds;
    const Snapshot before = TakeSnapshot(system->pools);
    const PhaseResult latency = gen->Run(latency_phase(latency_s, false));
    const Snapshot after = TakeSnapshot(system->pools);
    account(latency);
    PhaseResult capacity = latency;
    if (def.small) {
      PhaseConfig closed;
      closed.outstanding = def.outstanding;
      closed.duration = Seconds(args.smoke ? smoke_s : 0.35 * args.seconds);
      capacity = gen->Run(closed);
      account(capacity);
    }
    const double ops = std::max<double>(1, static_cast<double>(latency.ok));
    const double rps =
        static_cast<double>(capacity.ok_in_window) / capacity.window_s;
    metrics.Put("setup_s", Median(setup_s), "s");
    metrics.Put("p50_us", Percentile(latency.latency_us, 0.50), "us");
    metrics.Put("capacity_rps", rps, "1/s");
    metrics.Put("goodput_mib_s",
                rps * static_cast<double>(inputs.input_bytes()) / kMiB,
                "MiB/s");
    metrics.Put("cpu_us_per_op",
                (after.user_s + after.sys_s - before.user_s - before.sys_s) *
                    1e6 / ops,
                "us");
    metrics.Put("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    const double half_s = args.smoke ? smoke_s : args.seconds / 2;
    const Snapshot before = TakeSnapshot(system->pools);
    const PhaseResult plain = gen->Run(latency_phase(half_s, false));
    const Snapshot after = TakeSnapshot(system->pools);
    account(plain);
    const PhaseResult traced = gen->Run(latency_phase(half_s, true));
    account(traced);

    const TraceSummary summary = Analyze(recorder, TopologyOf(def),
                                         traced.end_id, args.trace_out,
                                         kTraceWritten);
    for (const auto& [name, value] : summary.metrics) {
      const bool pct = name.find("_pct") != std::string::npos;
      const bool count = name == "bench.samples";
      metrics.Put(name, value, pct ? "%" : count ? "count" : "us");
    }
    const double ops = std::max<double>(1, static_cast<double>(plain.ok));
    const auto per_op = [&](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a) / ops;
    };
    // The kernel splits CPU time into user and system by sampling at timer
    // ticks, so the split is noisy run to run (the total is exact).
    metrics.Put("cpu.user_us_per_op", (after.user_s - before.user_s) * 1e6 / ops,
                "us");
    metrics.Put("cpu.sys_us_per_op", (after.sys_s - before.sys_s) * 1e6 / ops,
                "us");
    metrics.Put("tail.p99_us", Percentile(plain.latency_us, 0.99), "us");
    const uint64_t lease_waits = after.lease_wait_count - before.lease_wait_count;
    metrics.Put("runtime.pool_waits_per_op",
                per_op(before.pool_waits, after.pool_waits), "count");
    metrics.Put("runtime.lease_wait_us.mean",
                lease_waits == 0 ? 0
                                 : (after.lease_wait_sum_s -
                                    before.lease_wait_sum_s) *
                                       1e6 / static_cast<double>(lease_waits),
                "us");
    metrics.Put("dag.queue_depth.mean",
                plain.queue_depth_sum /
                    std::max<double>(1, static_cast<double>(
                                            plain.queue_depth_samples)),
                "count");
    metrics.Put("core.payload_copies_per_op",
                per_op(before.bytes_copied, after.bytes_copied) /
                    static_cast<double>(inputs.input_bytes()),
                "count");
    metrics.Put("core.plane_alloc_mib_per_op",
                per_op(before.bytes_allocated, after.bytes_allocated) / kMiB,
                "MiB");
    metrics.Put("osal.minor_faults_per_op",
                per_op(before.minor_faults, after.minor_faults), "count");
    metrics.Put("alloc.new_calls_per_op",
                per_op(before.new_calls, after.new_calls), "count");
    metrics.Put("core.mux_stalls_per_op",
                per_op(before.mux_stalls, after.mux_stalls), "count");
    metrics.Put("core.completion_frames_per_op",
                per_op(before.completion_frames, after.completion_frames),
                "count");
    metrics.Put("osal.rw_syscalls_per_op",
                per_op(before.rw_syscalls, after.rw_syscalls), "count");
    metrics.Put("osal.ctx_switches_per_op",
                per_op(before.ctx_switches, after.ctx_switches), "count");
    const double plain_p50 = Percentile(plain.latency_us, 0.5);
    const double traced_p50 = Percentile(traced.latency_us, 0.5);
    metrics.Put("bench.trace_overhead_pct",
                plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50
                              : 0,
                "%");
  }

  gen.reset();
  system.reset();

  std::fprintf(stderr, "rr_bench %s seed=%llu trace=%d: %llu attempted, "
                       "%llu failed (%llu wrong outputs)\n",
               def.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(wrong));
  metrics.Print(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rrbench

int main(int argc, char** argv) {
  rrbench::Args args;
  if (!rrbench::ParseArgs(argc, argv, &args)) return 2;
  const rrbench::WorkloadDef* def = rrbench::FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "rr_bench: unknown workload \"%s\"\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace) rrbench::CountAllocations();
  if (def->small) rrbench::PinToOneCpu();
  return rrbench::RunBench(args, *def);
}
