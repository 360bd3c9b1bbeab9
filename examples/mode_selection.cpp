// Mode selection demo: the same two-function workflow executed under three
// placements — same VM, same node, different nodes (through the emulated
// 100 Mbps link) — showing how the shim picks user-space, kernel-space or
// network transfer and what each costs (§3.2.3, §7 trade-offs).
//
//   $ ./mode_selection [payload_mb]
#include <cstdio>

#include "core/workflow.h"
#include "netsim/shaped_link.h"
#include "runtime/function.h"
#include "workload/drivers.h"
#include "telemetry/reporter.h"
#include "workload/payload.h"

using namespace rr;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "mode_selection failed: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t payload_mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const size_t payload = payload_mb << 20;

  std::printf("mode selection: %zu MB payload under three placements\n\n",
              payload_mb);

  // Placement decisions as an orchestrator would report them.
  const core::Location vm0{"node-1", "vm-0"};
  const core::Location node1{"node-1", ""};
  const core::Location node2{"node-2", ""};

  struct Case {
    const char* description;
    core::Location a, b;
  };
  for (const Case& c : {Case{"co-located in one Wasm VM", vm0, vm0},
                        Case{"two sandboxes on one node", node1, node1},
                        Case{"sandboxes on different nodes", node1, node2}}) {
    std::printf("placement: %-32s -> mode: %s\n", c.description,
                std::string(core::TransferModeName(core::SelectMode(c.a, c.b)))
                    .c_str());
  }

  // Now measure each mode on real transfers using the workload drivers.
  std::printf("\nmeasured one-transfer latency (%zu MB):\n", payload_mb);
  using DriverFactory = Result<std::unique_ptr<workload::ChainDriver>> (*)(
      workload::DriverOptions);
  struct DriverCase {
    const char* label;
    DriverFactory make;
    workload::DriverOptions options;
  };
  workload::DriverOptions inter;
  inter.link = netsim::LinkConfig{};  // paper defaults: 100 Mbps, 1 ms RTT

  const DriverCase cases[] = {
      {"user-space  (same VM)", workload::MakeRoadrunnerUserDriver, {}},
      {"kernel-space (same node)", workload::MakeRoadrunnerKernelDriver, {}},
      {"network     (100 Mbps link)", workload::MakeRoadrunnerNetworkDriver,
       inter},
  };
  for (const DriverCase& c : cases) {
    // One driver at a time: the network driver traces its runtime (the
    // agent's spans carry its Wasm VM I/O), and that tracing must not
    // reach the other modes' measurements.
    auto driver = c.make(c.options);
    if (!driver.ok()) return Fail(driver.status());
    // Warm-up then measure.
    auto warm = (*driver)->RunOnce(payload);
    if (!warm.ok()) return Fail(warm.status());
    auto metrics = (*driver)->RunOnce(payload);
    if (!metrics.ok()) return Fail(metrics.status());
    std::printf("  %-28s total=%-12s transfer=%-12s wasm-io=%s\n", c.label,
                telemetry::FormatSeconds(metrics->total_seconds()).c_str(),
                telemetry::FormatSeconds(ToSeconds(metrics->latency.transfer))
                    .c_str(),
                telemetry::FormatSeconds(ToSeconds(metrics->latency.wasm_io))
                    .c_str());
  }

  std::printf("\ntrade-offs (§7): user space is fastest but tightly coupled;\n"
              "kernel space isolates sandboxes at IPC cost; network scales\n"
              "across hosts but pays bandwidth and RTT.\n");
  return 0;
}
