// Traffic data analytics (the paper's second motivating workload, §1):
// a streaming-ingestion function hands each district's sensor batch to that
// district's aggregator function on the same host. Every district is one
// chain (ingest -> district-<d>) submitted through api::Runtime; the
// functions sit in separate sandboxes on one node, so placement picks the
// kernel-space hop, and all districts run concurrently.
//
//   $ ./traffic_analytics [districts] [readings-per-district]
#include <cstdio>

#include <memory>
#include <vector>

#include "api/runtime.h"
#include "common/rng.h"
#include "common/strings.h"
#include "runtime/function.h"
#include "serde/json.h"

using namespace rr;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "traffic_analytics failed: %s\n",
               status.ToString().c_str());
  return 1;
}

// A sensor reading batch is a CSV block: "sensor_id,speed_kmh,count\n"...
std::string MakeBatch(int district, int readings) {
  Rng rng(static_cast<uint64_t>(district) * 7919 + 13);
  std::string batch;
  batch.reserve(static_cast<size_t>(readings) * 24);
  for (int i = 0; i < readings; ++i) {
    batch += std::to_string(district * 1000 + i % 97);
    batch += ',';
    batch += std::to_string(20 + rng.NextBelow(100));
    batch += ',';
    batch += std::to_string(1 + rng.NextBelow(40));
    batch += '\n';
  }
  return batch;
}

// Aggregator: mean speed + total vehicle count over the batch.
Result<Bytes> Aggregate(ByteSpan input) {
  const std::string_view text = AsStringView(input);
  uint64_t vehicles = 0, speed_sum = 0, rows = 0;
  for (const std::string_view line : Split(text, '\n')) {
    if (line.empty()) continue;
    const auto cols = Split(line, ',');
    if (cols.size() != 3) return InvalidArgumentError("malformed CSV row");
    uint64_t speed = 0, count = 0;
    if (!ParseUint64(cols[1], &speed) || !ParseUint64(cols[2], &count)) {
      return InvalidArgumentError("non-numeric CSV field");
    }
    speed_sum += speed;
    vehicles += count;
    ++rows;
  }
  serde::JsonObject summary;
  summary.emplace("rows", serde::JsonValue(static_cast<double>(rows)));
  summary.emplace("vehicles", serde::JsonValue(static_cast<double>(vehicles)));
  summary.emplace("mean_speed_kmh",
                  serde::JsonValue(rows ? static_cast<double>(speed_sum) /
                                              static_cast<double>(rows)
                                        : 0.0));
  return ToBytes(serde::JsonEncode(serde::JsonValue(std::move(summary))));
}

}  // namespace

int main(int argc, char** argv) {
  const int districts = argc > 1 ? std::atoi(argv[1]) : 4;
  const int readings = argc > 2 ? std::atoi(argv[2]) : 50000;
  const Bytes binary = runtime::BuildFunctionModuleBinary();

  const auto spec = [](const std::string& name) {
    runtime::FunctionSpec s;
    s.name = name;
    s.workflow = "traffic";
    return s;
  };

  api::Runtime rt("traffic");
  // Every function in its own sandbox on one node: kernel-space hops.
  const auto add = [&rt](core::Shim* shim) {
    core::Endpoint endpoint;
    endpoint.shim = shim;
    endpoint.location = {"node-1", ""};
    return rt.Register(endpoint);
  };

  // Ingestion function (source): passes each batch on as its output.
  auto ingest = core::Shim::Create(spec("ingest"), binary);
  if (!ingest.ok()) return Fail(ingest.status());
  if (const Status s = (*ingest)->Deploy([](ByteSpan input) -> Result<Bytes> {
        return Bytes(input.begin(), input.end());
      });
      !s.ok()) {
    return Fail(s);
  }
  if (const Status s = add(ingest->get()); !s.ok()) return Fail(s);

  // One aggregator sandbox per district.
  std::vector<std::unique_ptr<core::Shim>> aggregators;
  for (int d = 0; d < districts; ++d) {
    auto shim = core::Shim::Create(spec("district-" + std::to_string(d)), binary);
    if (!shim.ok()) return Fail(shim.status());
    if (const Status s = (*shim)->Deploy(Aggregate); !s.ok()) return Fail(s);
    if (const Status s = add(shim->get()); !s.ok()) return Fail(s);
    aggregators.push_back(std::move(*shim));
  }

  std::printf("traffic analytics: %d district batches (%d readings each) "
              "through kernel-space hops\n",
              districts, readings);

  const Stopwatch total_timer;
  // One chain per district, each carrying that district's batch; all in
  // flight at once.
  std::vector<std::shared_ptr<api::Invocation>> runs;
  for (int d = 0; d < districts; ++d) {
    const std::string batch = MakeBatch(d, readings);
    auto run = rt.Submit(
        api::ChainSpec{{"ingest", "district-" + std::to_string(d)}},
        AsBytes(batch));
    if (!run.ok()) return Fail(run.status());
    runs.push_back(std::move(*run));
  }

  for (int d = 0; d < districts; ++d) {
    const Result<rr::Buffer>& summary = runs[d]->Wait();
    if (!summary.ok()) return Fail(summary.status());
    const std::string text = summary->ToString();
    std::printf("  district %d: %s\n", d, text.c_str());
  }
  std::printf("fan-out + aggregation completed in %.2f ms\n",
              total_timer.ElapsedMillis());
  return 0;
}
