// The runtime's in-process socket hops, one suite over both modes ConnectHop
// builds them for: the kernel hop (an AF_UNIX pair) and the network loopback
// hop (a 127.0.0.1 TCP pair, target port 0). On both, one calling
// thread pumps the pair, reading a guest-resident payload in place from the
// producer's linear memory (or a host-resident payload's shared chunks) and
// receiving straight into the target's linear memory. Covers frames larger
// than the socket buffers, empty frames, runs of tiny frames, segmented
// payloads landing in a fan-in slice, placement refusals that must leave
// the wire usable, and the Close/healthy() contract the executor's hop
// eviction relies on.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "core/payload.h"
#include "core/transport.h"
#include "obs/metrics.h"
#include "runtime/function.h"

namespace rr::core {
namespace {

constexpr Nanos kDeadline = std::chrono::seconds(2);

runtime::FunctionSpec Spec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "wf";
  spec.tenant = "default";
  return spec;
}

std::unique_ptr<Shim> MakeShim(const std::string& name,
                               uint32_t max_pages = 32768) {
  auto shim =
      Shim::Create(Spec(name), runtime::BuildFunctionModuleBinary(32, max_pages));
  EXPECT_TRUE(shim.ok()) << shim.status();
  return shim.ok() ? std::move(*shim) : nullptr;
}

// Stages bytes as a source function's registered output region.
MemoryRegion Stage(Shim& shim, ByteSpan data) {
  auto addr = shim.data().allocate_memory(
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size())));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(shim.data().write_memory_host(data, *addr).ok());
  return {*addr, static_cast<uint32_t>(data.size())};
}

struct TransportCase {
  const char* name;
  TransferMode mode;
  const char* mode_label;  // rr_channel_bytes_total's `mode`
};

// Names each instance by its transport in test listings.
void PrintTo(const TransportCase& transport, std::ostream* os) {
  *os << transport.name;
}

class SocketHopTest : public ::testing::TestWithParam<TransportCase> {
 protected:
  // Both endpoints carry port 0: the network mode pairs them over loopback
  // TCP (a target with an agent port has no local hop).
  std::unique_ptr<Hop> Connect(Shim& source, Shim& target) {
    Endpoint from;
    from.shim = &source;
    Endpoint to;
    to.shim = &target;
    TransportOptions options;
    options.transfer_deadline = kDeadline;
    auto hop = ConnectHop(GetParam().mode, from, to, options);
    EXPECT_TRUE(hop.ok()) << hop.status();
    if (!hop.ok()) return nullptr;
    EXPECT_EQ((*hop)->mode(), GetParam().mode);
    return std::move(*hop);
  }

  uint64_t ChannelBytes(const char* direction) {
    return obs::Registry::Get()
        .counter("rr_channel_bytes_total", "",
                 {{"mode", GetParam().mode_label}, {"direction", direction}})
        ->Value();
  }
};

std::string ReadRegion(Shim& shim, const MemoryRegion& region) {
  auto view = shim.data().read_memory_host(region.address, region.length);
  EXPECT_TRUE(view.ok()) << view.status();
  return view.ok() ? std::string(AsStringView(*view)) : std::string();
}

TEST_P(SocketHopTest, EightMiBGuestResidentEdgeArrivesByteExact) {
  // Far larger than the socket buffer: the single thread must interleave
  // sends and receives. The payload is read in place — it stays
  // guest-resident and the plane copies nothing.
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);

  Bytes bytes(8 * 1024 * 1024);
  Rng rng(11);
  rng.Fill(bytes);
  const Payload payload =
      Payload::FromGuest(source.get(), Stage(*source, bytes));

  const uint64_t copied_before = rr::Buffer::TotalBytesCopied();
  const uint64_t sent_before = ChannelBytes("sent");
  const uint64_t received_before = ChannelBytes("received");
  auto delivered = hop->Forward(payload, *target);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(rr::Buffer::TotalBytesCopied() - copied_before, 0u);
  EXPECT_TRUE(payload.guest_resident()) << "the hop materialized the payload";
  // The bytes are counted under the hop's own mode.
  EXPECT_EQ(ChannelBytes("sent") - sent_before, bytes.size());
  EXPECT_EQ(ChannelBytes("received") - received_before, bytes.size());

  ASSERT_EQ(delivered->length, bytes.size());
  auto view = target->data().read_memory_host(delivered->address,
                                              delivered->length);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Fnv1a(*view), Fnv1a(bytes));
  EXPECT_TRUE(hop->healthy());
}

TEST_P(SocketHopTest, ZeroLengthPayloadsCross) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);

  const Payload guest = Payload::FromGuest(source.get(), Stage(*source, {}));
  auto from_guest = hop->Forward(guest, *target);
  ASSERT_TRUE(from_guest.ok()) << from_guest.status();
  EXPECT_EQ(from_guest->length, 0u);

  const Payload host{rr::Buffer{}};
  auto from_host = hop->Forward(host, *target);
  ASSERT_TRUE(from_host.ok()) << from_host.status();
  EXPECT_EQ(from_host->length, 0u);

  // The header-only frames left the wire at a frame boundary.
  const Payload next(rr::Buffer::FromString("after-empty"));
  auto after = hop->Forward(next, *target);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(ReadRegion(*target, *after), "after-empty");
}

TEST_P(SocketHopTest, TinyForwardsAreNotStalled) {
  // Back-to-back 16-byte frames must each cross in milliseconds: on the TCP
  // pair, a Nagle or delayed-ACK stall would park a frame for tens of ms.
  // 40 ms leaves generous slack for a loaded host.
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);

  Nanos slowest{0};
  for (int i = 0; i < 200; ++i) {
    const Payload payload(rr::Buffer::Adopt(Bytes(16, static_cast<uint8_t>(i))));
    const Stopwatch timer;
    auto delivered = hop->Forward(payload, *target);
    slowest = std::max(slowest, timer.Elapsed());
    ASSERT_TRUE(delivered.ok()) << "forward " << i << ": " << delivered.status();
    ASSERT_EQ(delivered->length, 16u);
    ASSERT_TRUE(target->ReleaseRegion(*delivered).ok());
  }
  EXPECT_LT(slowest, std::chrono::milliseconds(40))
      << "slowest tiny forward took " << ToMillis(slowest) << " ms";
}

TEST_P(SocketHopTest, SegmentedHostPayloadLandsInFanInSlice) {
  // The fan-in gather path: a fan-out's multi-chunk buffer is gathered onto
  // the wire as it is, and lands in a caller-chosen slice of a larger
  // registered region — the bytes around the slice stay untouched.
  auto source = MakeShim("a");
  auto target = MakeShim("join");
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);

  rr::Buffer chunks = rr::Buffer::FromString("alpha|");
  chunks.AppendCopy(AsBytes("beta|"));
  chunks.AppendCopy(AsBytes("gamma"));
  ASSERT_EQ(chunks.chunk_count(), 3u);
  const Payload payload(chunks);

  const MemoryRegion gather =
      Stage(*target, AsBytes("[--------------------]"));
  const MemoryRegion slice{gather.address + 2, 16};
  const size_t regions_before = target->data().registered_region_count();
  auto delivered = hop->Forward(payload, *target, &slice);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(delivered->address, slice.address);
  EXPECT_EQ(delivered->length, slice.length);
  EXPECT_EQ(ReadRegion(*target, gather), "[-alpha|beta|gamma---]");
  // The slice belongs to the caller: nothing was allocated for it.
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
}

TEST_P(SocketHopTest, PlacementFailureIsTypedLeaksNothingAndKeepsTheHop) {
  // The target's guest memory cannot grow past 40 pages (2.5 MiB), so a
  // 4 MiB frame cannot be placed. The destination is placed before any byte
  // is sent: the refusal leaves the wire untouched and the hop healthy.
  auto source = MakeShim("a");
  auto target = MakeShim("small", /*max_pages=*/40);
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);
  const size_t regions_before = target->data().registered_region_count();

  const Payload oversized(rr::Buffer::Adopt(Bytes(4 * 1024 * 1024, 'x')));
  auto refused = hop->Forward(oversized, *target);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
  EXPECT_TRUE(hop->healthy());

  // A fan-in slice of the wrong length is refused the same way.
  const MemoryRegion gather = Stage(*target, AsBytes("0123456789"));
  const MemoryRegion short_slice{gather.address, 3};
  auto mismatched = hop->Forward(Payload(rr::Buffer::FromString("toolong")),
                                 *target, &short_slice);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(ReadRegion(*target, gather), "0123456789");
  EXPECT_TRUE(hop->healthy());

  // The next transfer on the SAME hop parses from its own header.
  const Payload healthy =
      Payload::FromGuest(source.get(), Stage(*source, AsBytes("healthy")));
  auto delivered = hop->Forward(healthy, *target);
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(ReadRegion(*target, *delivered), "healthy");
}

TEST_P(SocketHopTest, CloseFailsTheNextForwardTypedAndMarksTheHopDead) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  auto hop = Connect(*source, *target);
  ASSERT_NE(hop, nullptr);
  ASSERT_TRUE(hop->Forward(Payload(rr::Buffer::FromString("before")), *target)
                  .ok());

  hop->Close();
  EXPECT_FALSE(hop->healthy());
  const size_t regions_before = target->data().registered_region_count();
  const Stopwatch timer;
  auto after = hop->Forward(Payload(rr::Buffer::FromString("after")), *target);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable) << after.status();
  EXPECT_LT(timer.Elapsed(), kDeadline);
  EXPECT_EQ(target->data().registered_region_count(), regions_before);
  hop->Close();  // idempotent
  EXPECT_FALSE(hop->healthy());
}

TEST_P(SocketHopTest, ConcurrentForwardsShareTheWire) {
  // Two runs forward over one cached hop into distinct leased instances at
  // once: the hop's mutex serializes them on the wire, and each reads its
  // source instance's memory under that instance's exec mutex.
  auto source = MakeShim("a");
  std::vector<std::unique_ptr<Shim>> targets;
  targets.push_back(MakeShim("b0"));
  targets.push_back(MakeShim("b1"));
  auto hop = Connect(*source, *targets[0]);
  ASSERT_NE(hop, nullptr);

  constexpr int kRounds = 10;
  std::vector<std::thread> runs;
  std::vector<int> failures(targets.size(), 0);
  for (size_t t = 0; t < targets.size(); ++t) {
    runs.emplace_back([&, t] {
      Shim& target = *targets[t];
      for (int round = 0; round < kRounds; ++round) {
        const Bytes bytes(300 * 1024, static_cast<uint8_t>('A' + t * 16 + round));
        MemoryRegion staged;
        {
          MutexLock lock(source->exec_mutex());
          staged = Stage(*source, bytes);
        }
        const Payload payload = Payload::FromGuest(source.get(), staged);
        auto delivered = hop->Forward(payload, target);
        MutexLock lock(target.exec_mutex());
        if (!delivered.ok()) {
          ++failures[t];
          continue;
        }
        auto view = target.data().read_memory_host(delivered->address,
                                                   delivered->length);
        if (!view.ok() || Fnv1a(*view) != Fnv1a(bytes)) ++failures[t];
        (void)target.ReleaseRegion(*delivered);
      }
    });
  }
  for (std::thread& run : runs) run.join();
  for (size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(failures[t], 0) << "target " << t;
  }
  EXPECT_TRUE(hop->healthy());
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SocketHopTest,
    ::testing::Values(
        TransportCase{"Kernel", TransferMode::kKernelSpace, "kernel"},
        TransportCase{"Network", TransferMode::kNetwork, "network"}));

// A target with an agent port has no local hop: its NodeAgent receives and
// invokes, so the network mode refuses it instead of pairing a loopback wire.
TEST(ConnectHopTest, NetworkModeRefusesATargetWithAnAgentPort) {
  auto source = MakeShim("a");
  auto target = MakeShim("b");
  Endpoint from;
  from.shim = source.get();
  Endpoint to;
  to.shim = target.get();
  to.port = 9;
  auto hop = ConnectHop(TransferMode::kNetwork, from, to, TransportOptions{});
  ASSERT_FALSE(hop.ok());
  EXPECT_EQ(hop.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rr::core
