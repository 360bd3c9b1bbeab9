// Concurrent-invocation throughput: the deliverable proof of the per-
// function instance pools.
//
// K concurrent submits of ONE shared 3-node chain, swept over the functions'
// pool size. Pool size 1 reproduces the pre-pool behavior — every invocation
// of a function serializes on its single Wasm VM (the old shim exec_mutex) —
// so the chain executes node-by-node at ~1x throughput however many runs are
// in flight. With a pool of N warm instances per function, concurrent runs
// lease distinct sandboxes and their invocations overlap: aggregate
// throughput scales toward min(K, N).
//
// Each function models the common serverless shape whose latency is
// dominated by blocking on something external (a storage GET, a downstream
// call): a fixed wait plus a checksum touch of the payload. That is exactly
// the workload the exec_mutex serialized most painfully — and the scaling
// here is pool-admission scaling, not core-count scaling, so the figure
// reproduces on a single-core host.
//
// Flags (on top of bench_common's --full/--reps=N/--csv):
//   --json        suppress tables and emit machine-readable JSON on stdout
//                 (CI redirects it to BENCH_throughput.json)
//   --submits=K   concurrent submits per measurement (default 8)
//   --wait-ms=W   per-node simulated I/O wait (default 10)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "bench_common.h"
#include "common/strings.h"
#include "core/shim_pool.h"
#include "runtime/function.h"
#include "runtime/instance_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/reporter.h"

namespace {

using namespace rr;

struct ThroughputConfig {
  rrbench::BenchConfig base;
  bool json = false;
  size_t submits = 8;
  int wait_ms = 10;
};

ThroughputConfig ParseArgs(int argc, char** argv) {
  ThroughputConfig config;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      config.json = true;
    } else if (arg.rfind("--submits=", 0) == 0) {
      config.submits = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (arg.rfind("--wait-ms=", 0) == 0) {
      config.wait_ms = std::atoi(argv[i] + 10);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  config.base = rrbench::BenchConfig::FromArgs(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (config.submits == 0) config.submits = 8;
  return config;
}

enum class Mode { kUser, kKernel };

const char* ModeName(Mode mode) {
  return mode == Mode::kUser ? "user-space" : "kernel-space";
}

struct Measurement {
  std::string mode;
  size_t pool_size = 0;
  size_t submits = 0;
  int reps = 0;
  double wall_ms = 0;        // mean per rep: submit burst -> last Wait
  double p50_ms = 0;         // per-rep wall-time distribution
  double p95_ms = 0;
  double p99_ms = 0;
  double runs_per_sec = 0;   // aggregate throughput
  double speedup = 1.0;      // vs. this mode's pool-size-1 row
  runtime::PoolMetrics pool;  // source function's pool, post-run
};

// One measurement: K concurrent submits of the shared chain, `reps` times
// (plus a warm-up), against functions pooled at `pool_size`.
Result<Measurement> MeasurePoint(Mode mode, size_t pool_size,
                                 const ThroughputConfig& config) {
  const Bytes binary = runtime::BuildFunctionModuleBinary();
  const int wait_ms = config.wait_ms;
  const auto handler = [wait_ms](ByteSpan input) -> Result<Bytes> {
    // The simulated external wait, then a real touch of the payload so the
    // run is verifiable end to end.
    PreciseSleep(std::chrono::milliseconds(wait_ms));
    uint64_t sum = 0;
    for (const auto byte : input) sum += byte;
    Bytes out(input.begin(), input.end());
    out.push_back(static_cast<uint8_t>(sum & 0xff));
    return out;
  };

  api::Runtime::Options options;
  options.dag_workers = 4 * config.submits;
  api::Runtime rt("bench-throughput", options);

  runtime::WasmVm vm("bench-throughput");
  runtime::PoolOptions pool_options;
  pool_options.min_warm = pool_size;
  pool_options.max_instances = pool_size;

  std::shared_ptr<core::ShimPool> source_pool;
  const std::vector<std::string> names = {"stage0", "stage1", "stage2"};
  for (const std::string& name : names) {
    runtime::FunctionSpec spec;
    spec.name = name;
    spec.workflow = "bench-throughput";
    RR_ASSIGN_OR_RETURN(
        std::shared_ptr<core::ShimPool> pool,
        mode == Mode::kUser
            ? core::ShimPool::CreateInVm(vm, std::move(spec), binary, {},
                                         pool_options)
            : core::ShimPool::Create(std::move(spec), binary, {}, pool_options));
    RR_RETURN_IF_ERROR(pool->Deploy(handler));
    core::Endpoint endpoint;
    endpoint.pool = pool;
    endpoint.location = mode == Mode::kUser ? core::Location{"n1", "vm1"}
                                            : core::Location{"n1", ""};
    RR_RETURN_IF_ERROR(rt.Register(endpoint));
    if (source_pool == nullptr) source_pool = std::move(pool);
  }

  const api::ChainSpec chain{names};
  const rr::Buffer input = rr::Buffer::FromString("throughput-payload");
  const int reps = config.base.repetitions();

  const auto run_burst = [&]() -> Result<Nanos> {
    const Stopwatch wall;
    std::vector<std::shared_ptr<api::Invocation>> invocations;
    invocations.reserve(config.submits);
    for (size_t i = 0; i < config.submits; ++i) {
      RR_ASSIGN_OR_RETURN(auto invocation, rt.Submit(chain, input));
      invocations.push_back(std::move(invocation));
    }
    for (const auto& invocation : invocations) {
      RR_RETURN_IF_ERROR(invocation->Wait().status());
    }
    return wall.Elapsed();
  };

  RR_RETURN_IF_ERROR(run_burst().status());  // warm-up: connect, first leases
  std::vector<double> rep_ms;
  rep_ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    RR_ASSIGN_OR_RETURN(const Nanos elapsed, run_burst());
    rep_ms.push_back(ToMillis(elapsed));
  }
  const telemetry::Summary wall = telemetry::Summarize(rep_ms);

  Measurement point;
  point.mode = ModeName(mode);
  point.pool_size = pool_size;
  point.submits = config.submits;
  point.reps = reps;
  point.wall_ms = wall.mean;
  point.p50_ms = wall.p50;
  point.p95_ms = wall.p95;
  point.p99_ms = wall.p99;
  point.runs_per_sec =
      point.wall_ms > 0
          ? static_cast<double>(config.submits) / (point.wall_ms / 1000.0)
          : 0;
  point.pool = source_pool->metrics();
  return point;
}

void PrintTable(const std::vector<Measurement>& points, bool csv) {
  rr::telemetry::PrintBanner(
      "Aggregate throughput: concurrent submits of one shared 3-node chain");
  rr::telemetry::Table table({"Mode", "Pool", "Submits", "Wall (ms)",
                              "p99 (ms)", "Runs/s", "Speedup vs pool=1",
                              "Leases", "Waits", "Grows"});
  for (const Measurement& point : points) {
    table.AddRow({point.mode, std::to_string(point.pool_size),
                  std::to_string(point.submits),
                  StrFormat("%.1f", point.wall_ms),
                  StrFormat("%.1f", point.p99_ms),
                  StrFormat("%.1f", point.runs_per_sec),
                  StrFormat("%.2fx", point.speedup),
                  std::to_string(point.pool.leases),
                  std::to_string(point.pool.waits),
                  std::to_string(point.pool.grows)});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (csv) std::fputs(table.RenderCsv().c_str(), stdout);
}

void PrintJson(const std::vector<Measurement>& points,
               const ThroughputConfig& config) {
  std::printf("{\n  \"bench\": \"throughput\",\n");
  std::printf("  \"chain_nodes\": 3,\n  \"submits\": %zu,\n", config.submits);
  std::printf("  \"node_wait_ms\": %d,\n  \"results\": [\n", config.wait_ms);
  for (size_t i = 0; i < points.size(); ++i) {
    const Measurement& point = points[i];
    std::printf(
        "    {\"mode\": \"%s\", \"pool_size\": %zu, \"submits\": %zu, "
        "\"reps\": %d, \"wall_ms\": %.3f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"runs_per_sec\": %.3f, "
        "\"speedup_vs_pool1\": %.3f, \"pool_leases\": %" PRIu64
        ", \"pool_waits\": %" PRIu64 ", \"pool_grows\": %" PRIu64 "}%s\n",
        point.mode.c_str(), point.pool_size, point.submits, point.reps,
        point.wall_ms, point.p50_ms, point.p95_ms, point.p99_ms,
        point.runs_per_sec, point.speedup, point.pool.leases,
        point.pool.waits, point.pool.grows,
        i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const ThroughputConfig config = ParseArgs(argc, argv);
  std::vector<size_t> pool_sizes = {1, 2, 4, config.submits};
  if (config.base.full) pool_sizes = {1, 2, 4, 8, 16};

  std::vector<Measurement> points;
  for (const Mode mode : {Mode::kUser, Mode::kKernel}) {
    double baseline_ms = 0;
    for (const size_t pool_size : pool_sizes) {
      auto point = MeasurePoint(mode, pool_size, config);
      if (!point.ok()) {
        std::fprintf(stderr, "throughput bench failed (%s, pool %zu): %s\n",
                     ModeName(mode), pool_size,
                     point.status().ToString().c_str());
        return 1;
      }
      if (pool_size == 1) baseline_ms = point->wall_ms;
      point->speedup = point->wall_ms > 0 && baseline_ms > 0
                           ? baseline_ms / point->wall_ms
                           : 1.0;
      points.push_back(std::move(*point));
    }
  }

  if (config.json) {
    PrintJson(points, config);
  } else {
    PrintTable(points, config.base.csv);
  }
  return 0;
}
