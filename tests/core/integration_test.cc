// End-to-end integration: complete workflows across channels and the shaped
// link, the workload drivers, and full payload-integrity verification.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "netsim/shaped_link.h"
#include "workload/drivers.h"
#include "workload/image.h"
#include "workload/payload.h"

namespace rr {
namespace {

TEST(DriverIntegrationTest, RoadrunnerUserDriverMovesCorrectBytes) {
  auto driver = workload::MakeRoadrunnerUserDriver({});
  ASSERT_TRUE(driver.ok()) << driver.status();
  for (const size_t size : {size_t{1024}, size_t{1} << 20}) {
    auto metrics = (*driver)->RunOnce(size);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_GT(metrics->latency.total.count(), 0);
    EXPECT_EQ(metrics->latency.serialization.count(), 0);  // serialization-free
  }
}

TEST(DriverIntegrationTest, RoadrunnerNetworkDriverAttributesWasmIo) {
  // Fig. 6a's split of the network mode's transfer phase: Wasm VM I/O is the
  // agent writing the body into guest memory (its ingress span), the rest is
  // transfer, and nothing is serialized.
  workload::DriverOptions options;
  netsim::LinkConfig link = netsim::LinkConfig::Unshaped();
  link.bandwidth_bytes_per_sec = 50e6;
  options.link = link;
  auto driver = workload::MakeRoadrunnerNetworkDriver(options);
  ASSERT_TRUE(driver.ok()) << driver.status();
  auto metrics = (*driver)->RunOnce(1 << 20);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->latency.wasm_io.count(), 0);
  EXPECT_EQ(metrics->latency.serialization.count(), 0);
  EXPECT_LT(metrics->latency.wasm_io, metrics->latency.transfer);
  EXPECT_EQ(metrics->latency.transfer + metrics->latency.wasm_io,
            metrics->latency.total);
}

TEST(DriverIntegrationTest, RoadrunnerNetworkDriverThroughShapedLink) {
  workload::DriverOptions options;
  netsim::LinkConfig link = netsim::LinkConfig::Unshaped();
  link.bandwidth_bytes_per_sec = 50e6;  // keep the test quick but shaped
  options.link = link;
  auto driver = workload::MakeRoadrunnerNetworkDriver(options);
  ASSERT_TRUE(driver.ok()) << driver.status();
  auto metrics = (*driver)->RunOnce(4 << 20);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // 4 MB over 50 MB/s >= 80 ms.
  EXPECT_GT(metrics->total_seconds(), 0.06);
}

TEST(DriverIntegrationTest, RunCDriverServesAndDeserializes) {
  auto driver = workload::MakeRunCDriver({});
  ASSERT_TRUE(driver.ok()) << driver.status();
  auto metrics = (*driver)->RunOnce(1 << 20);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->latency.serialization.count(), 0);
  EXPECT_GT(metrics->latency.total.count(),
            metrics->latency.serialization.count());
}

TEST(DriverIntegrationTest, WasmEdgeDriverPaysSerializationAndWasmIo) {
  auto driver = workload::MakeWasmEdgeDriver({});
  ASSERT_TRUE(driver.ok()) << driver.status();
  auto metrics = (*driver)->RunOnce(1 << 20);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->latency.serialization.count(), 0);
  EXPECT_GT(metrics->latency.wasm_io.count(), 0);
}

TEST(DriverIntegrationTest, WasmEdgeInterpretedSerializationCostsMore) {
  // The interpreter-mode regime (§2.2/Fig. 2b): serialization through
  // bytecode dominates the AOT-grade path by a large factor, while the
  // payload still arrives intact (checksum verified inside RunOnce).
  auto aot = workload::MakeWasmEdgeDriver({});
  workload::DriverOptions interp_options;
  interp_options.interpreted_serialization = true;
  auto interp = workload::MakeWasmEdgeDriver(interp_options);
  ASSERT_TRUE(aot.ok() && interp.ok());

  auto aot_metrics = (*aot)->RunOnce(1 << 20);
  auto interp_metrics = (*interp)->RunOnce(1 << 20);
  ASSERT_TRUE(aot_metrics.ok()) << aot_metrics.status();
  ASSERT_TRUE(interp_metrics.ok()) << interp_metrics.status();
  EXPECT_GT(interp_metrics->serialization_seconds(),
            3 * aot_metrics->serialization_seconds());
}

TEST(DriverIntegrationTest, FanoutDeliversToEveryTarget) {
  for (auto make : {workload::MakeRoadrunnerUserDriver,
                    workload::MakeRoadrunnerKernelDriver}) {
    workload::DriverOptions options;
    options.fanout = 4;
    auto driver = make(options);
    ASSERT_TRUE(driver.ok()) << driver.status();
    // RunOnce verifies the (sampled) checksum in every target internally.
    auto metrics = (*driver)->RunOnce(256 * 1024);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
  }
}

TEST(DriverIntegrationTest, RoadrunnerDagDriversTimeTheTransferPhase) {
  // The Roadrunner drivers submit the fan-out as a DAG through api::Runtime
  // and time the run's transfer phase; user and kernel placement report it
  // whole as transfer.
  workload::DriverOptions options;
  options.fanout = 2;
  constexpr size_t kPayload = size_t{1} << 20;
  for (auto make : {workload::MakeRoadrunnerUserDriver,
                    workload::MakeRoadrunnerKernelDriver}) {
    auto driver = make(options);
    ASSERT_TRUE(driver.ok()) << driver.status();
    auto metrics = (*driver)->RunOnce(kPayload);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_GT(metrics->latency.total.count(), 0) << (*driver)->name();
    EXPECT_EQ(metrics->latency.transfer, metrics->latency.total)
        << (*driver)->name();
  }

  // Behind a 50 MB/s link the phase must reach the remote deliveries, not
  // stop at dispatch: both payloads cross the link inside it.
  netsim::LinkConfig link = netsim::LinkConfig::Unshaped();
  link.bandwidth_bytes_per_sec = 50e6;
  options.link = link;
  auto network = workload::MakeRoadrunnerNetworkDriver(options);
  ASSERT_TRUE(network.ok()) << network.status();
  auto metrics = (*network)->RunOnce(kPayload);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const double wire_floor_seconds =
      static_cast<double>(options.fanout * kPayload) /
      link.bandwidth_bytes_per_sec;
  EXPECT_GE(metrics->total_seconds(), 0.75 * wire_floor_seconds);
}

TEST(DriverIntegrationTest, RoadrunnerBeatsWasmEdgeIntraNode) {
  // The paper's core claim at small scale: user-space Roadrunner transfers
  // are at least several times faster than the serialized WASI baseline.
  auto rr_driver = workload::MakeRoadrunnerUserDriver({});
  auto we_driver = workload::MakeWasmEdgeDriver({});
  ASSERT_TRUE(rr_driver.ok() && we_driver.ok());
  (void)(*rr_driver)->RunOnce(1 << 20);  // warm-up
  (void)(*we_driver)->RunOnce(1 << 20);

  auto rr_metrics = (*rr_driver)->RunOnce(4 << 20);
  auto we_metrics = (*we_driver)->RunOnce(4 << 20);
  ASSERT_TRUE(rr_metrics.ok() && we_metrics.ok());
  EXPECT_LT(rr_metrics->total_seconds() * 3, we_metrics->total_seconds())
      << "RoadRunner should be >3x faster intra-node";
}

TEST(PayloadTest, BodyDeterministicAndSized) {
  const std::string a = workload::MakeBody(10000, 5);
  const std::string b = workload::MakeBody(10000, 5);
  const std::string c = workload::MakeBody(10000, 6);
  EXPECT_EQ(a.size(), 10000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PayloadTest, SampledChecksumDetectsCorruption) {
  Bytes payload(1 << 20);
  Rng rng(7);
  rng.Fill(payload);
  const uint64_t clean = workload::SampledChecksum(payload);

  Bytes truncated(payload.begin(), payload.end() - 1);
  EXPECT_NE(workload::SampledChecksum(truncated), clean);

  Bytes head_corrupt = payload;
  head_corrupt[10] ^= 0xff;
  EXPECT_NE(workload::SampledChecksum(head_corrupt), clean);

  Bytes tail_corrupt = payload;
  tail_corrupt[payload.size() - 10] ^= 0xff;
  EXPECT_NE(workload::SampledChecksum(tail_corrupt), clean);
}

TEST(ImageTest, DownscaleHalvesDimensions) {
  const workload::Image image = workload::MakeTestImage(64, 48, 1);
  auto small = workload::DownscaleHalf(image);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->width, 32u);
  EXPECT_EQ(small->height, 24u);
  EXPECT_EQ(small->rgba.size(), 32u * 24 * 4);
}

TEST(ImageTest, DownscaleAveragesBlocks) {
  workload::Image image;
  image.width = 2;
  image.height = 2;
  image.rgba = {0, 0, 0, 0, 100, 100, 100, 100,
                100, 100, 100, 100, 200, 200, 200, 200};
  auto small = workload::DownscaleHalf(image);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->rgba[0], 100);  // (0+100+100+200)/4
}

TEST(ImageTest, EncodeDecodeRoundTrip) {
  const workload::Image image = workload::MakeTestImage(31, 17, 9);
  auto decoded = workload::DecodeImage(workload::EncodeImage(image));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->width, image.width);
  EXPECT_EQ(decoded->height, image.height);
  EXPECT_EQ(decoded->rgba, image.rgba);
}

TEST(ImageTest, DecodeRejectsBadSizes) {
  EXPECT_FALSE(workload::DecodeImage(AsBytes("tiny")).ok());
  Bytes bogus(8 + 10);
  StoreLE<uint32_t>(bogus.data(), 100);
  StoreLE<uint32_t>(bogus.data() + 4, 100);
  EXPECT_FALSE(workload::DecodeImage(bogus).ok());
}

TEST(ImageTest, HistogramCountsEveryPixel) {
  const workload::Image image = workload::MakeTestImage(40, 30, 3);
  auto histogram = workload::LuminanceHistogram(image);
  ASSERT_TRUE(histogram.ok());
  uint64_t total = 0;
  for (const uint64_t bin : *histogram) total += bin;
  EXPECT_EQ(total, 40u * 30);
}

}  // namespace
}  // namespace rr
