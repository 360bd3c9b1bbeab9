#include "workload/drivers.h"

#include <atomic>
#include <thread>

#include "common/strings.h"
#include "core/node_agent.h"
#include "core/workflow.h"
#include "api/runtime.h"
#include "dag/dag.h"
#include "http/server.h"
#include "obs/trace.h"
#include "osal/socket.h"
#include "runtime/function.h"
#include "runtime/native_sandbox.h"
#include "runtime/wasm_sandbox.h"
#include "serde/record.h"
#include "workload/guest_serde.h"
#include "workload/payload.h"

namespace rr::workload {
namespace {

using core::Shim;
using telemetry::RunMetrics;

constexpr uint32_t kBenchMemoryLimitPages = 24576;  // 1.5 GiB per sandbox

runtime::FunctionSpec MakeSpec(const std::string& name) {
  runtime::FunctionSpec spec;
  spec.name = name;
  spec.workflow = "bench-workflow";
  spec.memory_limit_pages = kBenchMemoryLimitPages;
  return spec;
}

// Caches generated bodies by size: every repetition and every system moves
// byte-identical payloads.
class BodyCache {
 public:
  const std::string& Get(size_t size) {
    if (size != cached_size_) {
      body_ = MakeBody(size, /*seed=*/size + 7);
      cached_size_ = size;
    }
    return body_;
  }

 private:
  std::string body_;
  size_t cached_size_ = SIZE_MAX;
};

// Mean duration of one run's agent `ingress:*` spans: each is the agent
// writing a received body into its target's linear memory.
Nanos MeanIngressSpan(uint64_t trace_id) {
  Nanos sum{0};
  int64_t count = 0;
  for (const obs::SpanRecord& span : obs::Tracer::Get().Snapshot()) {
    if (span.trace_id == trace_id && StartsWith(span.name, "ingress:")) {
      sum += span.duration;
      ++count;
    }
  }
  return count > 0 ? sum / count : Nanos{0};
}

// ---------------------------------------------------------------------------
// Roadrunner: the fan-out experiment as a real DAG (a -> {b_1..b_N})
// submitted through the api::Runtime façade — one Submit per run, the
// outcome consumed through the Invocation handle — so the bench exercises
// the exact path applications use: registry, per-edge hop selection,
// parallel hop scheduler, and for network placement the agent's mux wire.
// ---------------------------------------------------------------------------

class RoadrunnerDriver : public ChainDriver {
 public:
  enum class Placement { kUser, kKernel, kNetwork };

  static Result<std::unique_ptr<ChainDriver>> Create(Placement placement,
                                                     DriverOptions options) {
    if (placement != Placement::kNetwork && options.link.has_value()) {
      return InvalidArgumentError("this transfer mode is intra-node only");
    }
    auto driver = std::make_unique<RoadrunnerDriver>(placement);
    driver->options_ = options;
    driver->binary_ = runtime::BuildFunctionModuleBinary();

    api::Runtime::Options runtime_options;
    // Enough workers that paper-scale fan-out keeps every hop in flight.
    runtime_options.dag_workers =
        std::max<size_t>(4, std::min<size_t>(options.fanout, 32));
    // The agent's ingress spans carry the Wasm VM I/O split.
    runtime_options.tracing = placement == Placement::kNetwork;
    driver->runtime_ = std::make_unique<api::Runtime>("bench-workflow",
                                                      runtime_options);

    core::Location source_location, target_location;
    uint16_t target_port = 0;
    switch (placement) {
      case Placement::kUser:
        source_location = target_location = {"n1", "vm1"};
        break;
      case Placement::kKernel:
        source_location = target_location = {"n1", ""};
        break;
      case Placement::kNetwork: {
        source_location = {"n1", ""};
        target_location = {"n2", ""};
        RR_ASSIGN_OR_RETURN(driver->agent_, core::NodeAgent::Start(0));
        target_port = driver->agent_->port();
        if (options.link.has_value()) {
          RR_ASSIGN_OR_RETURN(
              driver->link_,
              netsim::ShapedLink::Start(driver->agent_->port(), *options.link));
          target_port = driver->link_->port();
        }
        break;
      }
    }

    const auto make_shim = [&](const std::string& name)
        -> Result<std::unique_ptr<Shim>> {
      if (placement == Placement::kUser) {
        return Shim::CreateInVm(driver->vm_, MakeSpec(name), driver->binary_);
      }
      return Shim::Create(MakeSpec(name), driver->binary_);
    };
    const auto add_endpoint = [&](Shim* shim, const core::Location& location,
                                  uint16_t port) {
      core::Endpoint endpoint;
      endpoint.shim = shim;
      endpoint.location = location;
      endpoint.port = port;
      return driver->runtime_->Register(endpoint);
    };

    // The source's "output" is the payload itself: identity handler, so every
    // edge replicates the staged body to its target.
    RR_ASSIGN_OR_RETURN(driver->source_, make_shim("fn-a"));
    RR_RETURN_IF_ERROR(driver->source_->Deploy(
        [](ByteSpan input) -> Result<Bytes> {
          return Bytes(input.begin(), input.end());
        }));
    RR_RETURN_IF_ERROR(add_endpoint(driver->source_.get(), source_location, 0));

    // Target functions acknowledge with the payload checksum, giving the
    // bench end-to-end delivery verification through the engine.
    const auto checksum_handler = [](ByteSpan input) -> Result<Bytes> {
      Bytes out(8);
      StoreLE<uint64_t>(out.data(), SampledChecksum(input));
      return out;
    };

    dag::DagBuilder builder("fanout");
    builder.AddNode("fn-a");
    std::vector<std::string> names;
    for (size_t i = 0; i < options.fanout; ++i) {
      names.push_back("fn-b" + std::to_string(i));
      RR_ASSIGN_OR_RETURN(auto target, make_shim(names.back()));
      RR_RETURN_IF_ERROR(target->Deploy(checksum_handler));
      RR_RETURN_IF_ERROR(
          add_endpoint(target.get(), target_location, target_port));
      if (driver->agent_ != nullptr) {
        RR_RETURN_IF_ERROR(driver->agent_->RegisterFunction(
            target.get(), driver->runtime_->DeliverySink()));
      }
      driver->targets_.push_back(std::move(target));
    }
    builder.FanOut("fn-a", names);
    RR_ASSIGN_OR_RETURN(driver->dag_, builder.Build());
    return std::unique_ptr<ChainDriver>(std::move(driver));
  }

  explicit RoadrunnerDriver(Placement placement) : placement_(placement) {}

  std::string name() const override {
    switch (placement_) {
      case Placement::kUser: return "RoadRunner (User space)";
      case Placement::kKernel: return "RoadRunner (Kernel space)";
      case Placement::kNetwork: return "RoadRunner (Network)";
    }
    return "RoadRunner";
  }

  Result<RunMetrics> RunOnce(size_t payload_bytes) override {
    const std::string& body = bodies_.Get(payload_bytes);
    const uint64_t checksum = SampledChecksum(AsBytes(body));

    telemetry::ResourceProbe probe;
    probe.Start();
    auto invocation = runtime_->Submit(api::DagSpec{*dag_}, AsBytes(body));
    RR_RETURN_IF_ERROR(invocation.status());
    const Result<rr::Buffer>& result = (*invocation)->Wait();
    probe.Stop();
    RR_RETURN_IF_ERROR(result.status());

    // Every sink acknowledged with the payload checksum.
    if (result->size() != 8 * targets_.size()) {
      return DataLossError("dag fan-out returned " +
                           std::to_string(result->size()) + " ack bytes");
    }
    const Bytes acks = result->ToBytes();
    for (size_t i = 0; i < targets_.size(); ++i) {
      if (LoadLE<uint64_t>(acks.data() + 8 * i) != checksum) {
        return DataLossError("target " + std::to_string(i) +
                             " received a corrupted payload");
      }
    }

    // The timed section is the transfer phase: ingress staging and sink
    // egress stay outside it. NodeAgent edges are invoke-coupled, so the
    // network numbers also carry each target's checksum handler and the
    // delivery callback round-trip.
    RunMetrics metrics;
    metrics.latency.total = (*invocation)->stats().transfer_phase;
    if (placement_ == Placement::kNetwork) {
      metrics.latency.wasm_io = std::min(
          MeanIngressSpan((*invocation)->trace_id()), metrics.latency.total);
    }
    metrics.latency.transfer = metrics.latency.total - metrics.latency.wasm_io;
    metrics.cpu = probe.usage();
    metrics.rss_bytes = probe.rss_bytes();
    return metrics;
  }

  Placement placement_;
  DriverOptions options_;
  Bytes binary_;
  runtime::WasmVm vm_{"bench-workflow"};
  std::unique_ptr<Shim> source_;
  std::vector<std::unique_ptr<Shim>> targets_;
  std::unique_ptr<api::Runtime> runtime_;
  std::optional<dag::Dag> dag_;
  // Declared after the runtime and shims so teardown runs link -> agent
  // first: the agent joins its workers (which call the runtime's delivery
  // sink and invoke target shims) before any of those die.
  std::unique_ptr<core::NodeAgent> agent_;
  std::unique_ptr<netsim::ShapedLink> link_;
  BodyCache bodies_;
};

// ---------------------------------------------------------------------------
// RunC (container baseline): JSON over HTTP between native functions.
// ---------------------------------------------------------------------------

class RunCDriver : public ChainDriver {
 public:
  static Result<std::unique_ptr<ChainDriver>> Create(DriverOptions options) {
    auto driver = std::make_unique<RunCDriver>();
    driver->options_ = options;
    driver->decode_nanos_ = std::vector<std::atomic<int64_t>>(options.fanout);
    driver->received_checksums_ = std::vector<std::atomic<uint64_t>>(options.fanout);

    RR_ASSIGN_OR_RETURN(auto source, runtime::NativeSandbox::Create(MakeSpec("fn-a")));
    driver->source_ = std::move(source);

    // One platform ingress server hosting every target function (the
    // orchestrator's service routing); thread-per-connection => concurrent
    // fan-out handling, like the paper's async runtime.
    for (size_t i = 0; i < options.fanout; ++i) {
      RR_ASSIGN_OR_RETURN(auto target, runtime::NativeSandbox::Create(
                                           MakeSpec("fn-b" + std::to_string(i))));
      auto* raw_driver = driver.get();
      RR_RETURN_IF_ERROR(target->Deploy(
          [raw_driver, i](ByteSpan input) -> Result<Bytes> {
            const Stopwatch decode_timer;
            RR_ASSIGN_OR_RETURN(const serde::Record record,
                                serde::DeserializeRecord(AsStringView(input)));
            raw_driver->decode_nanos_[i]
                .store(ToNanos(decode_timer.Elapsed()), std::memory_order_relaxed);
            raw_driver->received_checksums_[i].store(
                SampledChecksum(AsBytes(record.body)), std::memory_order_relaxed);
            return ToBytes("ok");
          }));
      driver->targets_.push_back(std::move(target));
    }

    RR_ASSIGN_OR_RETURN(
        driver->server_,
        http::Server::Start(0, [raw = driver.get()](const http::Request& request) {
          return raw->Route(request);
        }));

    uint16_t connect_port = driver->server_->port();
    if (options.link.has_value()) {
      RR_ASSIGN_OR_RETURN(
          driver->link_,
          netsim::ShapedLink::Start(driver->server_->port(), *options.link));
      connect_port = driver->link_->port();
    }
    for (size_t i = 0; i < options.fanout; ++i) {
      RR_ASSIGN_OR_RETURN(auto client, http::Client::Connect("127.0.0.1", connect_port));
      driver->clients_.push_back(std::move(client));
    }
    return std::unique_ptr<ChainDriver>(std::move(driver));
  }

  std::string name() const override { return "RunC"; }

  http::Response Route(const http::Request& request) {
    uint64_t index = 0;
    if (!StartsWith(request.target, "/fn/") ||
        !ParseUint64(request.target.substr(4), &index) ||
        index >= targets_.size()) {
      return http::Response{404, "Not Found", {}, ToBytes("no such function")};
    }
    auto output = targets_[index]->Invoke(request.body);
    if (!output.ok()) {
      return http::Response{500, "Internal Server Error", {},
                            ToBytes(output.status().ToString())};
    }
    return http::Response{200, "OK", {}, std::move(*output)};
  }

  Result<RunMetrics> RunOnce(size_t payload_bytes) override {
    const serde::Record& record = records_.GetRecord(payload_bytes);
    const uint64_t checksum = SampledChecksum(AsBytes(record.body));
    const size_t n = targets_.size();
    std::vector<Status> post_status(n);

    telemetry::ResourceProbe probe;
    probe.Start();
    const Stopwatch total_timer;

    // Source function serializes once (its "output" for all targets).
    const Stopwatch encode_timer;
    const std::string json = serde::SerializeRecord(record);
    const Nanos encode_time = encode_timer.Elapsed();

    {
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        threads.emplace_back([this, i, &json, &post_status] {
          http::Request request;
          request.method = "POST";
          request.target = "/fn/" + std::to_string(i);
          request.headers["Content-Type"] = "application/json";
          request.body = ToBytes(json);
          auto response = clients_[i].RoundTrip(request);
          if (!response.ok()) {
            post_status[i] = response.status();
          } else if (response->status_code != 200) {
            post_status[i] =
                InternalError("HTTP " + std::to_string(response->status_code) +
                              ": " + ToString(response->body));
          }
        });
      }
      for (auto& thread : threads) thread.join();
    }
    const Nanos total = total_timer.Elapsed();
    probe.Stop();

    Nanos decode_sum{0};
    for (size_t i = 0; i < n; ++i) {
      RR_RETURN_IF_ERROR(post_status[i]);
      if (received_checksums_[i].load(std::memory_order_relaxed) != checksum) {
        return DataLossError("target " + std::to_string(i) +
                             " deserialized a corrupted payload");
      }
      decode_sum += Nanos(decode_nanos_[i].load(std::memory_order_relaxed));
    }

    RunMetrics metrics;
    metrics.latency.total = total;
    metrics.latency.serialization =
        encode_time + decode_sum / static_cast<int64_t>(n);
    metrics.latency.transfer = total - metrics.latency.serialization;
    metrics.cpu = probe.usage();
    metrics.rss_bytes = probe.rss_bytes();
    return metrics;
  }

  // Caches the Record (not just the body) per size.
  class RecordCache {
   public:
    const serde::Record& GetRecord(size_t size) {
      if (size != cached_size_) {
        record_ = MakeRecord(size, /*id=*/size + 3);
        cached_size_ = size;
      }
      return record_;
    }

   private:
    serde::Record record_;
    size_t cached_size_ = SIZE_MAX;
  };

  DriverOptions options_;
  std::unique_ptr<runtime::NativeSandbox> source_;
  std::vector<std::unique_ptr<runtime::NativeSandbox>> targets_;
  std::unique_ptr<http::Server> server_;
  std::unique_ptr<netsim::ShapedLink> link_;
  std::vector<http::Client> clients_;
  std::vector<std::atomic<int64_t>> decode_nanos_;
  std::vector<std::atomic<uint64_t>> received_checksums_;
  RecordCache records_;
};

// ---------------------------------------------------------------------------
// WasmEdge (Wasm baseline): JSON serialized inside the VM, exchanged over
// WASI-mediated sockets with the mandatory guest<->host copies.
// ---------------------------------------------------------------------------

class WasmEdgeDriver : public ChainDriver {
 public:
  static Result<std::unique_ptr<ChainDriver>> Create(DriverOptions options) {
    auto driver = std::make_unique<WasmEdgeDriver>();
    driver->options_ = options;
    // Interpreted-serialization mode needs the escape/unescape exports.
    driver->binary_ = options.interpreted_serialization
                          ? BuildGuestSerdeModuleBinary()
                          : runtime::BuildFunctionModuleBinary();

    RR_ASSIGN_OR_RETURN(driver->source_, runtime::WasmSandbox::Create(
                                             MakeSpec("fn-a"), driver->binary_));

    RR_ASSIGN_OR_RETURN(auto listener, osal::TcpListener::Bind(0));
    uint16_t connect_port = listener.port();
    if (options.link.has_value()) {
      RR_ASSIGN_OR_RETURN(driver->link_,
                          netsim::ShapedLink::Start(listener.port(), *options.link));
      connect_port = driver->link_->port();
    }

    for (size_t i = 0; i < options.fanout; ++i) {
      RR_ASSIGN_OR_RETURN(auto target,
                          runtime::WasmSandbox::Create(
                              MakeSpec("fn-b" + std::to_string(i)), driver->binary_));

      RR_ASSIGN_OR_RETURN(osal::Connection client,
                          osal::TcpConnect("127.0.0.1", connect_port));
      client.SetNoDelay(true);
      RR_ASSIGN_OR_RETURN(osal::Connection accepted, listener.Accept());
      accepted.SetNoDelay(true);

      driver->source_fds_.push_back(
          driver->source_->wasi().AttachConnection(std::move(client)));
      driver->target_fds_.push_back(
          target->wasi().AttachConnection(std::move(accepted)));
      driver->targets_.push_back(std::move(target));
    }
    return std::unique_ptr<ChainDriver>(std::move(driver));
  }

  std::string name() const override {
    return options_.interpreted_serialization ? "Wasmedge (interpreted)"
                                              : "Wasmedge";
  }

  Result<RunMetrics> RunOnce(size_t payload_bytes) override {
    const std::string& body = bodies_.Get(payload_bytes);
    const uint64_t checksum = SampledChecksum(AsBytes(body));
    const size_t n = targets_.size();

    // Pre-phase: the source function already holds its output in linear
    // memory (as any producing function would).
    RR_ASSIGN_OR_RETURN(
        const uint32_t body_addr,
        source_->AllocateMemory(static_cast<uint32_t>(body.size())));
    RR_RETURN_IF_ERROR(source_->WriteMemoryHost(body_addr, AsBytes(body)));

    const Nanos wasi_copy_before = TotalWasiCopyTime();

    telemetry::ResourceProbe probe;
    probe.Start();
    const Stopwatch total_timer;

    // --- serialization inside the source VM -------------------------------
    // "converting complex data structures within the Wasm VM into a linear,
    // standardized format, allocating memory for the serialized output, and
    // copying the data" (§2.2). All three steps are timed as serialization.
    const Stopwatch encode_timer;
    const uint32_t body_len = static_cast<uint32_t>(body.size());
    uint32_t wire_addr = 0;
    uint32_t wire_len = 0;
    serde::Record record;
    record.id = payload_bytes;
    record.source = "fn-a";
    record.destination = "fn-b";
    record.timestamp_ns = 42;
    record.content_type = "application/json";
    if (options_.interpreted_serialization) {
      // Metadata encodes natively (tiny); the body escape — the O(n) cost —
      // runs as interpreted bytecode inside the source VM. Wire format:
      // [u64 meta_len][meta json][escaped body].
      const std::string meta_json = serde::SerializeRecord(record);
      const uint32_t meta_len = static_cast<uint32_t>(meta_json.size());
      RR_ASSIGN_OR_RETURN(wire_addr,
                          source_->AllocateMemory(8 + meta_len + 2 * body_len + 16));
      uint8_t meta_header[8];
      StoreLE<uint64_t>(meta_header, meta_len);
      RR_RETURN_IF_ERROR(
          source_->WriteMemoryHost(wire_addr, ByteSpan(meta_header, 8)));
      RR_RETURN_IF_ERROR(
          source_->WriteMemoryHost(wire_addr + 8, AsBytes(meta_json)));
      RR_ASSIGN_OR_RETURN(const uint32_t escaped_len,
                          GuestSerde::EscapeInSandbox(*source_, body_addr,
                                                      body_len,
                                                      wire_addr + 8 + meta_len));
      wire_len = 8 + meta_len + escaped_len;
    } else {
      RR_ASSIGN_OR_RETURN(const ByteSpan body_view,
                          source_->SliceMemory(body_addr, body_len));
      record.body.assign(reinterpret_cast<const char*>(body_view.data()),
                         body_view.size());
      const std::string json = serde::SerializeRecord(record);
      wire_len = static_cast<uint32_t>(json.size());
      RR_ASSIGN_OR_RETURN(wire_addr, source_->AllocateMemory(wire_len));
      RR_RETURN_IF_ERROR(source_->WriteMemoryHost(wire_addr, AsBytes(json)));
    }
    const Nanos encode_time = encode_timer.Elapsed();

    // --- WASI-mediated transfer -------------------------------------------
    // Sender runs in the (single-threaded) source VM; each target VM
    // receives concurrently.
    std::vector<Status> recv_status(n);
    std::vector<uint32_t> staging_addr(n, 0);

    // Targets must know how much to read: length prefix from guest memory.
    RR_ASSIGN_OR_RETURN(const uint32_t len_addr, source_->AllocateMemory(8));
    uint8_t len_bytes[8];
    StoreLE<uint64_t>(len_bytes, wire_len);
    RR_RETURN_IF_ERROR(source_->WriteMemoryHost(len_addr, ByteSpan(len_bytes, 8)));

    Status send_status;
    std::vector<std::thread> receivers;
    receivers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      receivers.emplace_back([this, i, wire_len, &recv_status, &staging_addr] {
        recv_status[i] = ReceiveIntoTarget(i, wire_len, &staging_addr[i]);
      });
    }
    std::thread sender([this, n, len_addr, wire_addr, wire_len, &send_status] {
      for (size_t i = 0; i < n && send_status.ok(); ++i) {
        send_status = source_->wasi().GuestWriteAll(source_->instance(),
                                                    source_fds_[i], len_addr, 8);
        if (!send_status.ok()) break;
        send_status = source_->wasi().GuestWriteAll(
            source_->instance(), source_fds_[i], wire_addr, wire_len);
      }
    });
    sender.join();
    for (auto& receiver : receivers) receiver.join();
    RR_RETURN_IF_ERROR(send_status);
    for (const Status& status : recv_status) RR_RETURN_IF_ERROR(status);

    // --- deserialization inside each target VM -----------------------------
    const Stopwatch decode_timer;
    std::vector<uint32_t> delivered_addr(n, 0);
    std::vector<uint32_t> delivered_len(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (options_.interpreted_serialization) {
        RR_ASSIGN_OR_RETURN(
            const uint64_t meta_len,
            targets_[i]->instance().memory()->Load<uint64_t>(staging_addr[i]));
        if (8 + meta_len > wire_len) {
          return DataLossError("wasmedge: malformed interpreted wire");
        }
        RR_ASSIGN_OR_RETURN(const ByteSpan meta_view,
                            targets_[i]->SliceMemory(
                                staging_addr[i] + 8,
                                static_cast<uint32_t>(meta_len)));
        RR_ASSIGN_OR_RETURN(const serde::Record meta,
                            serde::DeserializeRecord(AsStringView(meta_view)));
        if (meta.destination != "fn-b") {
          return DataLossError("wasmedge: metadata corrupted");
        }
        const uint32_t escaped_off =
            staging_addr[i] + 8 + static_cast<uint32_t>(meta_len);
        const uint32_t escaped_len =
            wire_len - 8 - static_cast<uint32_t>(meta_len);
        RR_ASSIGN_OR_RETURN(
            delivered_addr[i],
            targets_[i]->AllocateMemory(std::max<uint32_t>(1, escaped_len)));
        // The unescape — again O(n), again interpreted bytecode.
        RR_ASSIGN_OR_RETURN(
            delivered_len[i],
            GuestSerde::UnescapeInSandbox(*targets_[i], escaped_off,
                                          escaped_len, delivered_addr[i]));
      } else {
        RR_ASSIGN_OR_RETURN(const ByteSpan json_view,
                            targets_[i]->SliceMemory(staging_addr[i], wire_len));
        RR_ASSIGN_OR_RETURN(const serde::Record decoded,
                            serde::DeserializeRecord(AsStringView(json_view)));
        RR_ASSIGN_OR_RETURN(
            delivered_addr[i],
            targets_[i]->AllocateMemory(
                std::max<uint32_t>(1, static_cast<uint32_t>(decoded.body.size()))));
        RR_RETURN_IF_ERROR(targets_[i]->WriteMemoryHost(delivered_addr[i],
                                                        AsBytes(decoded.body)));
        delivered_len[i] = static_cast<uint32_t>(decoded.body.size());
      }
    }
    const Nanos decode_time = decode_timer.Elapsed();

    const Nanos total = total_timer.Elapsed();
    probe.Stop();

    // Verification + cleanup (untimed).
    for (size_t i = 0; i < n; ++i) {
      RR_ASSIGN_OR_RETURN(const ByteSpan view,
                          targets_[i]->SliceMemory(delivered_addr[i],
                                                   delivered_len[i]));
      if (SampledChecksum(view) != checksum) {
        return DataLossError("wasmedge target received corrupted payload");
      }
      RR_RETURN_IF_ERROR(targets_[i]->DeallocateMemory(staging_addr[i]));
      RR_RETURN_IF_ERROR(targets_[i]->DeallocateMemory(delivered_addr[i]));
    }
    RR_RETURN_IF_ERROR(source_->DeallocateMemory(len_addr));
    RR_RETURN_IF_ERROR(source_->DeallocateMemory(wire_addr));
    RR_RETURN_IF_ERROR(source_->DeallocateMemory(body_addr));

    RunMetrics metrics;
    metrics.latency.total = total;
    metrics.latency.serialization =
        encode_time + decode_time / static_cast<int64_t>(n);
    metrics.latency.wasm_io = TotalWasiCopyTime() - wasi_copy_before;
    metrics.latency.transfer =
        total - metrics.latency.serialization - metrics.latency.wasm_io;
    if (metrics.latency.transfer < Nanos(0)) metrics.latency.transfer = Nanos(0);
    metrics.cpu = probe.usage();
    metrics.rss_bytes = probe.rss_bytes();
    return metrics;
  }

 private:
  Status ReceiveIntoTarget(size_t index, uint32_t expected_len,
                           uint32_t* staging_addr_out) {
    runtime::WasmSandbox& target = *targets_[index];
    // Length prefix into an 8-byte guest scratch region.
    RR_ASSIGN_OR_RETURN(const uint32_t len_addr, target.AllocateMemory(8));
    RR_RETURN_IF_ERROR(target.wasi().GuestReadExact(target.instance(),
                                                    target_fds_[index],
                                                    len_addr, 8));
    RR_ASSIGN_OR_RETURN(const uint64_t announced,
                        target.instance().memory()->Load<uint64_t>(len_addr));
    RR_RETURN_IF_ERROR(target.DeallocateMemory(len_addr));
    if (announced != expected_len) {
      return DataLossError("wasmedge: length prefix mismatch");
    }
    RR_ASSIGN_OR_RETURN(const uint32_t staging,
                        target.AllocateMemory(expected_len));
    RR_RETURN_IF_ERROR(target.wasi().GuestReadExact(
        target.instance(), target_fds_[index], staging, expected_len));
    *staging_addr_out = staging;
    return Status::Ok();
  }

  Nanos TotalWasiCopyTime() const {
    Nanos total = source_->wasi().copy_time();
    for (const auto& target : targets_) total += target->wasi().copy_time();
    return total;
  }

  DriverOptions options_;
  Bytes binary_;
  std::unique_ptr<runtime::WasmSandbox> source_;
  std::vector<std::unique_ptr<runtime::WasmSandbox>> targets_;
  std::unique_ptr<netsim::ShapedLink> link_;
  std::vector<int32_t> source_fds_;
  std::vector<int32_t> target_fds_;
  BodyCache bodies_;
};

}  // namespace

Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerUserDriver(DriverOptions options) {
  return RoadrunnerDriver::Create(RoadrunnerDriver::Placement::kUser, options);
}
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerKernelDriver(DriverOptions options) {
  return RoadrunnerDriver::Create(RoadrunnerDriver::Placement::kKernel, options);
}
Result<std::unique_ptr<ChainDriver>> MakeRoadrunnerNetworkDriver(DriverOptions options) {
  return RoadrunnerDriver::Create(RoadrunnerDriver::Placement::kNetwork, options);
}
Result<std::unique_ptr<ChainDriver>> MakeRunCDriver(DriverOptions options) {
  return RunCDriver::Create(options);
}
Result<std::unique_ptr<ChainDriver>> MakeWasmEdgeDriver(DriverOptions options) {
  return WasmEdgeDriver::Create(options);
}

}  // namespace rr::workload
