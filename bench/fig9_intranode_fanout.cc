// Figure 9: intra-node fan-out scalability (a -> {b_1..b_N}) with 10 MB
// transfers (paper) / smaller in quick mode. Panels (a)-(h).
//
// The Roadrunner entries submit the fan-out as a real a -> {b_1..b_N} DAG
// through api::Runtime: dag::DagExecutor's parallel hop scheduler with
// per-edge mode selection, as for every figure (workload/drivers.h).
#include <cstdio>

#include "bench_common.h"

using namespace rrbench;

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  const std::vector<size_t> degrees = FanoutDegrees(config);
  const size_t payload = FanoutPayloadBytes(config, /*inter_node=*/false);
  const int reps = config.repetitions();

  std::printf("Figure 9 reproduction: intra-node fan-out, %s payload "
              "(%s mode, %d reps)\n",
              FormatMiB(payload).c_str(), config.full ? "full" : "quick", reps);

  struct SystemDef {
    const char* label;
    rr::Result<std::unique_ptr<rr::workload::ChainDriver>> (*make)(
        rr::workload::DriverOptions);
  };
  const SystemDef systems[] = {
      {"RoadRunner (User space)", rr::workload::MakeRoadrunnerUserDriver},
      {"RoadRunner (Kernel space)", rr::workload::MakeRoadrunnerKernelDriver},
      {"RunC", rr::workload::MakeRunCDriver},
      {"Wasmedge", rr::workload::MakeWasmEdgeDriver},
  };

  SweepResult sweep;
  for (const SystemDef& system : systems) {
    Series series;
    for (const size_t degree : degrees) {
      rr::workload::DriverOptions options;
      options.fanout = degree;
      auto driver = system.make(options);
      if (!driver.ok()) {
        std::fprintf(stderr, "setup failed for %s @%zu: %s\n", system.label,
                     degree, driver.status().ToString().c_str());
        return 1;
      }
      auto mean = RunPoint(**driver, payload, reps);
      if (!mean.ok()) {
        std::fprintf(stderr, "%s @%zu failed: %s\n", system.label, degree,
                     mean.status().ToString().c_str());
        return 1;
      }
      series.push_back({degree, *mean});
    }
    sweep.emplace_back(system.label, std::move(series));
    std::printf("  %-28s done\n", system.label);
  }

  PrintEightPanels("Figure 9", sweep, "Fanout Degree",
                   [](size_t x) { return std::to_string(x); }, config.csv);
  return 0;
}
