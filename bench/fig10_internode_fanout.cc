// Figure 10: inter-node fan-out scalability over the emulated link.
// Panels (a)-(h).
//
// The Roadrunner entry submits the fan-out through api::Runtime: every edge
// routes through a NodeAgent ingress behind the shaped link, dispatched by
// dag::DagExecutor's parallel hop scheduler (workload/drivers.h).
#include <cstdio>

#include "bench_common.h"

using namespace rrbench;

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  const std::vector<size_t> degrees = FanoutDegrees(config);
  const size_t payload = FanoutPayloadBytes(config, /*inter_node=*/true);
  const int reps = config.repetitions();

  std::printf("Figure 10 reproduction: inter-node fan-out over "
              "100 Mbps / 1 ms RTT, %s payload (%s mode, %d reps)\n",
              FormatMiB(payload).c_str(), config.full ? "full" : "quick", reps);

  rr::workload::DriverOptions base;
  base.link = PaperLink();

  struct SystemDef {
    const char* label;
    rr::Result<std::unique_ptr<rr::workload::ChainDriver>> (*make)(
        rr::workload::DriverOptions);
  };
  const SystemDef systems[] = {
      {"RoadRunner (Network)", rr::workload::MakeRoadrunnerNetworkDriver},
      {"RunC", rr::workload::MakeRunCDriver},
      {"Wasmedge", rr::workload::MakeWasmEdgeDriver},
  };

  SweepResult sweep;
  for (const SystemDef& system : systems) {
    Series series;
    for (const size_t degree : degrees) {
      rr::workload::DriverOptions options = base;
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
    std::printf("  %-24s done\n", system.label);
  }

  PrintEightPanels("Figure 10", sweep, "Fanout Degree",
                   [](size_t x) { return std::to_string(x); }, config.csv);
  return 0;
}
