// Headline claims check: re-derives the summary numbers of §1/§6 from
// measured data and prints measured-vs-paper side by side.
//
//   intra-node:  RR(User) latency  -44%..-89% vs WasmEdge, -10%..-80% vs RunC
//                RR(Kernel) latency -76%..-83% vs WasmEdge, up to -13% vs RunC
//                throughput up to 69x vs WasmEdge
//   inter-node:  RR total -62% vs WasmEdge, -7% vs RunC
//                serialization -97% vs WasmEdge
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"

using namespace rrbench;
using rr::telemetry::RunMetrics;

namespace {

struct Measured {
  std::vector<size_t> sizes;
  std::vector<RunMetrics> points;
};

rr::Result<Measured> Sweep(
    rr::Result<std::unique_ptr<rr::workload::ChainDriver>> (*make)(
        rr::workload::DriverOptions),
    rr::workload::DriverOptions options, const std::vector<size_t>& sizes,
    int reps) {
  RR_ASSIGN_OR_RETURN(const auto driver, make(options));
  Measured measured;
  measured.sizes = sizes;
  for (const size_t size : sizes) {
    RR_ASSIGN_OR_RETURN(const RunMetrics mean, RunPoint(*driver, size, reps));
    measured.points.push_back(mean);
  }
  return measured;
}

// Range of latency reduction of `ours` vs `baseline` across the sweep.
std::pair<double, double> ReductionRange(const Measured& ours,
                                         const Measured& baseline) {
  double lo = 1e9, hi = -1e9;
  for (size_t i = 0; i < ours.points.size(); ++i) {
    const double reduction = (1 - ours.points[i].total_seconds() /
                                      baseline.points[i].total_seconds()) *
                             100;
    lo = std::min(lo, reduction);
    hi = std::max(hi, reduction);
  }
  return {lo, hi};
}

double MaxThroughputRatio(const Measured& ours, const Measured& baseline) {
  double best = 0;
  for (size_t i = 0; i < ours.points.size(); ++i) {
    best = std::max(best, baseline.points[i].total_seconds() /
                              ours.points[i].total_seconds());
  }
  return best;
}

double MaxSerializationReduction(const Measured& ours, const Measured& baseline) {
  double best = 0;
  for (size_t i = 0; i < ours.points.size(); ++i) {
    const double base = baseline.points[i].serialization_seconds();
    if (base <= 0) continue;
    best = std::max(best,
                    (1 - ours.points[i].serialization_seconds() / base) * 100);
  }
  return best;
}

void Claim(const char* what, const std::string& measured, const char* paper) {
  std::printf("  %-58s measured %-22s paper %s\n", what, measured.c_str(), paper);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  const int reps = config.repetitions();
  const std::vector<size_t> intra_sizes = IntraNodePayloadSizes(config);
  const std::vector<size_t> inter_sizes = InterNodePayloadSizes(config);

  std::printf("Headline claims: measured vs paper (%s mode, %d reps)\n",
              config.full ? "full" : "quick", reps);

  const auto fail = [](const rr::Status& status) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  };

  auto rr_user = Sweep(rr::workload::MakeRoadrunnerUserDriver, {}, intra_sizes, reps);
  if (!rr_user.ok()) return fail(rr_user.status());
  auto rr_kernel =
      Sweep(rr::workload::MakeRoadrunnerKernelDriver, {}, intra_sizes, reps);
  if (!rr_kernel.ok()) return fail(rr_kernel.status());
  auto runc_intra = Sweep(rr::workload::MakeRunCDriver, {}, intra_sizes, reps);
  if (!runc_intra.ok()) return fail(runc_intra.status());
  auto wasmedge_intra = Sweep(rr::workload::MakeWasmEdgeDriver, {}, intra_sizes, reps);
  if (!wasmedge_intra.ok()) return fail(wasmedge_intra.status());

  // Interpreter-mode WasmEdge at one representative size: the regime behind
  // the paper's headline numbers (its WasmEdge baseline interpreted the
  // serialization path; see DESIGN.md).
  const size_t mid = intra_sizes[intra_sizes.size() / 2];
  rr::workload::DriverOptions interp_options;
  interp_options.interpreted_serialization = true;
  auto wasmedge_interp_intra =
      Sweep(rr::workload::MakeWasmEdgeDriver, interp_options, {mid}, reps);
  if (!wasmedge_interp_intra.ok()) return fail(wasmedge_interp_intra.status());
  auto rr_user_mid = Sweep(rr::workload::MakeRoadrunnerUserDriver, {}, {mid}, reps);
  if (!rr_user_mid.ok()) return fail(rr_user_mid.status());

  // The inter-node sweeps run last: the network driver turns tracing on for
  // the whole process, and the intra-node sweeps above must run untraced.
  rr::workload::DriverOptions inter;
  inter.link = PaperLink();
  auto rr_net =
      Sweep(rr::workload::MakeRoadrunnerNetworkDriver, inter, inter_sizes, reps);
  if (!rr_net.ok()) return fail(rr_net.status());
  auto runc_inter = Sweep(rr::workload::MakeRunCDriver, inter, inter_sizes, reps);
  if (!runc_inter.ok()) return fail(runc_inter.status());
  auto wasmedge_inter =
      Sweep(rr::workload::MakeWasmEdgeDriver, inter, inter_sizes, reps);
  if (!wasmedge_inter.ok()) return fail(wasmedge_inter.status());

  std::printf("\nIntra-node:\n");
  {
    const auto [lo, hi] = ReductionRange(*rr_user, *wasmedge_intra);
    Claim("RR(User) latency reduction vs WasmEdge",
          rr::StrFormat("%.0f%%..%.0f%%", lo, hi), "44%..89%");
  }
  {
    const auto [lo, hi] = ReductionRange(*rr_user, *runc_intra);
    Claim("RR(User) latency reduction vs RunC",
          rr::StrFormat("%.0f%%..%.0f%%", lo, hi), "10%..80%");
  }
  {
    const auto [lo, hi] = ReductionRange(*rr_kernel, *wasmedge_intra);
    Claim("RR(Kernel) latency reduction vs WasmEdge",
          rr::StrFormat("%.0f%%..%.0f%%", lo, hi), "76%..83%");
  }
  {
    const auto [lo, hi] = ReductionRange(*rr_kernel, *runc_intra);
    Claim("RR(Kernel) latency reduction vs RunC (max)",
          rr::StrFormat("%.0f%%", hi), "up to 13%");
    (void)lo;
  }
  Claim("RR(User) max throughput ratio vs WasmEdge",
        rr::StrFormat("%.1fx", MaxThroughputRatio(*rr_user, *wasmedge_intra)),
        "up to 69x");
  Claim("RR serialization reduction vs WasmEdge (max)",
        rr::StrFormat("%.1f%%",
                      MaxSerializationReduction(*rr_user, *wasmedge_intra)),
        "97%");

  {
    const auto [lo, hi] = ReductionRange(*rr_user_mid, *wasmedge_interp_intra);
    Claim("RR(User) latency reduction vs WasmEdge (interpreted)",
          rr::StrFormat("%.0f%% @%zuMB", hi, mid >> 20), "44%..89%");
    (void)lo;
  }
  Claim("RR(User) throughput ratio vs WasmEdge (interpreted)",
        rr::StrFormat("%.1fx @%zuMB",
                      MaxThroughputRatio(*rr_user_mid, *wasmedge_interp_intra),
                      mid >> 20),
        "up to 69x");

  std::printf("\nInter-node:\n");
  {
    const auto [lo, hi] = ReductionRange(*rr_net, *wasmedge_inter);
    Claim("RR(Network) latency reduction vs WasmEdge (max)",
          rr::StrFormat("%.0f%%", hi), "62%");
    (void)lo;
  }
  {
    const auto [lo, hi] = ReductionRange(*rr_net, *runc_inter);
    Claim("RR(Network) latency reduction vs RunC (max)",
          rr::StrFormat("%.0f%%", hi), "7%");
    (void)lo;
  }
  Claim("RR(Network) serialization reduction vs WasmEdge (max)",
        rr::StrFormat("%.1f%%",
                      MaxSerializationReduction(*rr_net, *wasmedge_inter)),
        "97%");
  return 0;
}
