// Gateway front-door load bench: open-loop HTTP load against a live
// Runtime behind the epoll gateway, measuring tail latency and goodput
// under controlled overload.
//
// The backend is the throughput bench's shape — a 2-node chain whose nodes
// each block ~wait_ms on a simulated external call, pooled at --pool warm
// instances — so capacity is pool-admission bound (pool/wait), not
// core-count bound, and the figure reproduces on a single-core host.
//
// Method:
//   1. Calibrate: a small closed-loop fleet measures sustainable capacity.
//   2. Offer 1x (0.8 * capacity: no overload), 2x, and 4x that base rate
//      open-loop across --connections keep-alive connections. Open loop
//      means requests are sent on schedule whether or not earlier ones have
//      answered, and latency is measured from the *scheduled* send time —
//      the coordinated-omission correction; a stalled server cannot make
//      its own percentiles look good by slowing the load generator down.
//   3. Report per phase: goodput (200s/s), 429 sheds, p50/p99/p999.
//
// The headline claim this asserts in CI: at 4x overload the admission
// interceptor sheds the excess as fast 429s while goodput holds >= 70% of
// the no-overload rate — load shedding, not latency collapse.
//
// Flags (on top of bench_common's --full/--reps=N/--csv):
//   --json             machine-readable JSON on stdout (CI redirects to
//                      BENCH_gateway.json)
//   --connections=N    client fleet size (default 256; --full 1024)
//   --duration-ms=D    per-phase offered-load window (default 1500; full 4000)
//   --wait-ms=W        per-node simulated I/O wait (default 5)
//   --pool=P           warm instances per function (default 4)
#include <errno.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "bench_common.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/shim_pool.h"
#include "gateway/gateway.h"
#include "gateway/interceptor.h"
#include "http/parser.h"
#include "osal/poll.h"
#include "osal/socket.h"
#include "runtime/function.h"
#include "telemetry/reporter.h"

namespace {

using namespace rr;

struct GatewayBenchConfig {
  rrbench::BenchConfig base;
  bool json = false;
  size_t connections = 0;  // 0 = mode default
  int duration_ms = 0;     // 0 = mode default
  int wait_ms = 5;
  size_t pool = 4;

  size_t fleet() const { return connections ? connections : (base.full ? 1024 : 256); }
  Nanos phase_window() const {
    return std::chrono::milliseconds(duration_ms ? duration_ms
                                                 : (base.full ? 4000 : 1500));
  }
};

GatewayBenchConfig ParseArgs(int argc, char** argv) {
  GatewayBenchConfig config;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      config.json = true;
    } else if (arg.rfind("--connections=", 0) == 0) {
      config.connections = static_cast<size_t>(std::atoi(argv[i] + 14));
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      config.duration_ms = std::atoi(argv[i] + 14);
    } else if (arg.rfind("--wait-ms=", 0) == 0) {
      config.wait_ms = std::atoi(argv[i] + 10);
    } else if (arg.rfind("--pool=", 0) == 0) {
      config.pool = static_cast<size_t>(std::atoi(argv[i] + 7));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  config.base = rrbench::BenchConfig::FromArgs(
      static_cast<int>(passthrough.size()), passthrough.data());
  if (config.pool == 0) config.pool = 4;
  if (config.wait_ms <= 0) config.wait_ms = 5;
  return config;
}

// The fleet plus response-drain fds must fit; the container default soft
// limit (often 1024) does not. Raise to the hard limit before connecting.
void RaiseFdLimit() {
  struct rlimit limit;
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  limit.rlim_cur = limit.rlim_max;
  setrlimit(RLIMIT_NOFILE, &limit);
}

// --- backend: runtime + pooled chain behind a gateway ------------------------

struct Backend {
  std::unique_ptr<runtime::WasmVm> vm;
  std::unique_ptr<api::Runtime> rt;
  std::unique_ptr<gateway::Gateway> gw;
};

// Admission policy the bench measures: shed with 429 once this many runs
// are in flight. Bounds admitted-request latency to roughly
// cap / capacity seconds, which is what keeps the 1x tail flat.
constexpr size_t kInflightCap = 48;

Result<Backend> StartBackend(const GatewayBenchConfig& config) {
  Backend backend;
  backend.vm = std::make_unique<runtime::WasmVm>("bench-gateway");

  api::Runtime::Options options;
  options.dag_workers = 64;
  backend.rt = std::make_unique<api::Runtime>("bench-gateway", options);

  const Bytes binary = runtime::BuildFunctionModuleBinary();
  const int wait_ms = config.wait_ms;
  const auto handler = [wait_ms](ByteSpan input) -> Result<Bytes> {
    PreciseSleep(std::chrono::milliseconds(wait_ms));
    uint64_t sum = 0;
    for (const auto byte : input) sum += byte;
    Bytes out(input.begin(), input.end());
    out.push_back(static_cast<uint8_t>(sum & 0xff));
    return out;
  };

  runtime::PoolOptions pool_options;
  pool_options.min_warm = config.pool;
  pool_options.max_instances = config.pool;
  for (const std::string& name : {"f0", "f1"}) {
    runtime::FunctionSpec spec;
    spec.name = name;
    spec.workflow = "bench-gateway";
    RR_ASSIGN_OR_RETURN(auto pool,
                        core::ShimPool::CreateInVm(*backend.vm, std::move(spec),
                                                   binary, {}, pool_options));
    RR_RETURN_IF_ERROR(pool->Deploy(handler));
    core::Endpoint endpoint;
    endpoint.pool = std::move(pool);
    endpoint.location = core::Location{"n1", "vm1"};
    RR_RETURN_IF_ERROR(backend.rt->Register(endpoint));
  }

  gateway::AdmissionInterceptor::Options admission;
  admission.max_inflight_runs = kInflightCap;
  // Lease-wait shedding stays off: the inflight bound alone makes the
  // shed-vs-goodput figure deterministic across host speeds.
  admission.max_avg_lease_wait_seconds = 0;
  admission.inflight = [rt = backend.rt.get()] { return rt->in_flight(); };

  gateway::Gateway::Options gateway_options;
  gateway_options.server.max_connections = 16384;
  gateway_options.server.max_pipeline_depth = 64;
  gateway_options.interceptors = {
      std::make_shared<gateway::RequestIdInterceptor>(),
      std::make_shared<gateway::AdmissionInterceptor>(admission)};
  RR_ASSIGN_OR_RETURN(backend.gw, gateway::Gateway::Start(backend.rt.get(),
                                                          gateway_options));
  RR_RETURN_IF_ERROR(
      backend.gw->AddRoute("bench", api::ChainSpec{{"f0", "f1"}}));
  return backend;
}

// --- load generator ----------------------------------------------------------

struct PhaseResult {
  std::string name;
  double offered_rps = 0;
  uint64_t sent = 0;
  uint64_t good = 0;      // 200s
  uint64_t shed = 0;      // 429s
  uint64_t errors = 0;    // anything else, torn connections included
  uint64_t timeouts = 0;  // unanswered at the drain deadline
  double elapsed_s = 0;
  double goodput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

class LoadGen {
 public:
  static Result<LoadGen> Connect(uint16_t port, size_t count) {
    RR_ASSIGN_OR_RETURN(osal::Epoll epoll, osal::Epoll::Create());
    LoadGen gen(std::move(epoll));
    gen.conns_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      RR_ASSIGN_OR_RETURN(osal::Connection conn,
                          osal::TcpConnect("127.0.0.1", port));
      conn.SetNoDelay(true);
      RR_RETURN_IF_ERROR(osal::SetNonBlocking(conn.fd(), true));
      RR_RETURN_IF_ERROR(
          gen.epoll_.Add(conn.fd(), osal::Epoll::kReadable, i));
      gen.conns_[i].conn = std::move(conn);
    }
    // One request on the wire, reused for every send.
    gen.request_ =
        "POST /v1/invoke/bench HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/octet-stream\r\n"
        "Content-Length: 64\r\n\r\n" +
        std::string(64, 'x');
    return gen;
  }

  size_t alive() const {
    size_t n = 0;
    for (const auto& conn : conns_) n += conn.dead ? 0 : 1;
    return n;
  }

  // Closed loop: the first `fleet` connections each keep exactly one
  // request outstanding for `window`. Measures sustainable capacity.
  PhaseResult RunClosed(size_t fleet, Nanos window) {
    return Run("calibrate", /*open_rps=*/0, std::min(fleet, conns_.size()),
               window);
  }

  // Open loop at `rps` across the whole fleet.
  PhaseResult RunOpen(const std::string& name, double rps, Nanos window) {
    return Run(name, rps, conns_.size(), window);
  }

 private:
  struct ClientConn {
    osal::Connection conn;
    http::ResponseParser parser;
    std::deque<TimePoint> pending;  // scheduled send times, FIFO
    std::string outbox;
    size_t outbox_off = 0;
    bool want_write = false;
    bool dead = false;
  };

  PhaseResult Run(const std::string& name, double open_rps, size_t fleet,
                  Nanos window) {
    PhaseResult result;
    result.name = name;
    result.offered_rps = open_rps;
    const bool open_loop = open_rps > 0;
    const TimePoint start = Now();
    const TimePoint offer_end = start + window;
    // Overloaded phases need the shed/drain tail to clear; admission 429s
    // come back in milliseconds, so this is generous.
    const TimePoint drain_deadline = offer_end + std::chrono::seconds(5);
    const Nanos interval =
        open_loop ? Nanos(static_cast<int64_t>(1e9 / open_rps)) : Nanos(0);
    const uint64_t total =
        open_loop ? static_cast<uint64_t>(open_rps * ToSeconds(window)) : 0;

    latencies_.clear();
    latencies_.reserve(open_loop ? total : 4096);
    outstanding_ = 0;
    result_ = &result;
    closed_until_ = open_loop ? TimePoint{} : offer_end;

    if (!open_loop) {
      // Prime: one outstanding request per closed-loop connection.
      for (size_t i = 0; i < fleet; ++i) {
        if (!conns_[i].dead) Enqueue(i, Now());
      }
    }

    uint64_t scheduled = 0;
    size_t cursor = 0;
    std::vector<osal::Epoll::Event> events;
    while (true) {
      const TimePoint now = Now();
      if (now > drain_deadline) break;
      if (open_loop) {
        while (scheduled < total &&
               start + interval * static_cast<int64_t>(scheduled) <= now) {
          // Round-robin over live connections; the scheduled (not actual)
          // send time is what latency is measured from.
          size_t probes = 0;
          while (conns_[cursor % fleet].dead && probes++ < fleet) ++cursor;
          if (probes > fleet) break;  // whole fleet torn down
          Enqueue(cursor % fleet,
                  start + interval * static_cast<int64_t>(scheduled));
          ++cursor;
          ++scheduled;
        }
      }
      const bool offering = open_loop ? scheduled < total : now < offer_end;
      if (!offering && outstanding_ == 0) break;

      Nanos timeout = std::chrono::milliseconds(10);
      if (open_loop && scheduled < total) {
        const TimePoint next =
            start + interval * static_cast<int64_t>(scheduled);
        timeout = std::min(timeout, std::max(Nanos(0), next - now));
      }
      events.clear();
      if (!epoll_.Wait(events, timeout).ok()) break;
      for (const auto& event : events) {
        ClientConn& conn = conns_[event.tag];
        if (conn.dead) continue;
        if (event.events & (osal::Epoll::kReadable | osal::Epoll::kError)) {
          DrainReads(event.tag);
        }
        if (conn.dead) continue;
        if (event.events & osal::Epoll::kWritable) Flush(event.tag);
      }
    }

    // Whatever is still unanswered is a timeout; its connection is out of
    // sync (a late response would be matched to the wrong send), so it is
    // retired rather than reused.
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].dead && !conns_[i].pending.empty()) {
        result.timeouts += conns_[i].pending.size();
        Retire(i, /*count_pending_as_errors=*/false);
      }
    }

    result.sent = open_loop ? scheduled
                            : result.good + result.shed + result.errors +
                                  result.timeouts;
    result.elapsed_s = ToSeconds(Now() - start);
    result.goodput_rps =
        result.elapsed_s > 0 ? static_cast<double>(result.good) / result.elapsed_s
                             : 0;
    std::sort(latencies_.begin(), latencies_.end());
    result.p50_ms = Percentile(latencies_, 0.50);
    result.p99_ms = Percentile(latencies_, 0.99);
    result.p999_ms = Percentile(latencies_, 0.999);
    result_ = nullptr;
    return result;
  }

  void Enqueue(size_t index, TimePoint scheduled) {
    ClientConn& conn = conns_[index];
    conn.outbox.append(request_);
    conn.pending.push_back(scheduled);
    ++outstanding_;
    Flush(index);
  }

  void Flush(size_t index) {
    ClientConn& conn = conns_[index];
    while (conn.outbox_off < conn.outbox.size()) {
      const ssize_t n =
          ::send(conn.conn.fd(), conn.outbox.data() + conn.outbox_off,
                 conn.outbox.size() - conn.outbox_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbox_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          if (!epoll_
                   .Modify(conn.conn.fd(),
                           osal::Epoll::kReadable | osal::Epoll::kWritable,
                           index)
                   .ok()) {
            Retire(index, /*count_pending_as_errors=*/true);
          }
        }
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      Retire(index, /*count_pending_as_errors=*/true);
      return;
    }
    conn.outbox.clear();
    conn.outbox_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      if (!epoll_.Modify(conn.conn.fd(), osal::Epoll::kReadable, index).ok()) {
        Retire(index, /*count_pending_as_errors=*/true);
      }
    }
  }

  void DrainReads(size_t index) {
    ClientConn& conn = conns_[index];
    char buffer[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(conn.conn.fd(), buffer, sizeof(buffer), 0);
      if (n > 0) {
        std::vector<http::Response> responses;
        if (!conn.parser
                 .Feed(ByteSpan(reinterpret_cast<const uint8_t*>(buffer),
                                static_cast<size_t>(n)),
                       &responses)
                 .ok()) {
          Retire(index, /*count_pending_as_errors=*/true);
          return;
        }
        const TimePoint now = Now();
        for (const http::Response& response : responses) {
          if (conn.pending.empty()) {  // response with no send: desynced
            Retire(index, /*count_pending_as_errors=*/true);
            return;
          }
          const TimePoint scheduled = conn.pending.front();
          conn.pending.pop_front();
          --outstanding_;
          latencies_.push_back(ToMillis(now - scheduled));
          if (response.status_code == 200) {
            ++result_->good;
          } else if (response.status_code == 429) {
            ++result_->shed;
          } else {
            ++result_->errors;
          }
          // Closed loop: the next request leaves the moment this one lands.
          if (closed_until_ != TimePoint{} && now < closed_until_ &&
              !conn.dead) {
            Enqueue(index, now);
          }
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      Retire(index, /*count_pending_as_errors=*/true);  // EOF or hard error
      return;
    }
  }

  void Retire(size_t index, bool count_pending_as_errors) {
    ClientConn& conn = conns_[index];
    if (conn.dead) return;
    if (count_pending_as_errors && result_ != nullptr) {
      result_->errors += conn.pending.size();
    }
    outstanding_ -= conn.pending.size();
    conn.pending.clear();
    conn.dead = true;
    // Best-effort: the fd is closed on the next line, which drops it from
    // the epoll set regardless.
    (void)epoll_.Remove(conn.conn.fd());
    conn.conn.Close();
  }

  explicit LoadGen(osal::Epoll epoll) : epoll_(std::move(epoll)) {}

  osal::Epoll epoll_;
  std::vector<ClientConn> conns_;
  std::string request_;
  std::vector<double> latencies_;
  size_t outstanding_ = 0;
  TimePoint closed_until_{};  // non-epoch: closed loop, re-enqueue until then
  PhaseResult* result_ = nullptr;
};

// --- reporting ---------------------------------------------------------------

void PrintTable(const std::vector<PhaseResult>& phases, size_t connections,
                double capacity_rps, bool csv) {
  rr::telemetry::PrintBanner(
      "Gateway under open-loop load: goodput and tail latency vs overload");
  std::printf("fleet: %zu keep-alive connections, measured capacity %.0f runs/s\n\n",
              connections, capacity_rps);
  rr::telemetry::Table table({"Phase", "Offered r/s", "Sent", "Good (200)",
                              "Shed (429)", "Errors", "Timeouts", "Goodput r/s",
                              "p50 (ms)", "p99 (ms)", "p99.9 (ms)"});
  for (const PhaseResult& phase : phases) {
    table.AddRow({phase.name, StrFormat("%.0f", phase.offered_rps),
                  std::to_string(phase.sent), std::to_string(phase.good),
                  std::to_string(phase.shed), std::to_string(phase.errors),
                  std::to_string(phase.timeouts),
                  StrFormat("%.1f", phase.goodput_rps),
                  StrFormat("%.2f", phase.p50_ms),
                  StrFormat("%.2f", phase.p99_ms),
                  StrFormat("%.2f", phase.p999_ms)});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (csv) std::fputs(table.RenderCsv().c_str(), stdout);
}

void PrintJson(const std::vector<PhaseResult>& phases,
               const GatewayBenchConfig& config, double capacity_rps) {
  std::printf("{\n  \"bench\": \"gateway\",\n");
  std::printf("  \"connections\": %zu,\n", config.fleet());
  std::printf("  \"pool_size\": %zu,\n  \"node_wait_ms\": %d,\n", config.pool,
              config.wait_ms);
  std::printf("  \"inflight_cap\": %zu,\n", kInflightCap);
  std::printf("  \"capacity_rps\": %.3f,\n  \"results\": [\n", capacity_rps);
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& phase = phases[i];
    std::printf(
        "    {\"phase\": \"%s\", \"offered_rps\": %.3f, \"sent\": %llu, "
        "\"good\": %llu, \"shed_429\": %llu, \"errors\": %llu, "
        "\"timeouts\": %llu, \"elapsed_s\": %.3f, \"goodput_rps\": %.3f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f}%s\n",
        phase.name.c_str(), phase.offered_rps,
        static_cast<unsigned long long>(phase.sent),
        static_cast<unsigned long long>(phase.good),
        static_cast<unsigned long long>(phase.shed),
        static_cast<unsigned long long>(phase.errors),
        static_cast<unsigned long long>(phase.timeouts), phase.elapsed_s,
        phase.goodput_rps, phase.p50_ms, phase.p99_ms, phase.p999_ms,
        i + 1 < phases.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const GatewayBenchConfig config = ParseArgs(argc, argv);
  RaiseFdLimit();

  auto backend = StartBackend(config);
  if (!backend.ok()) {
    std::fprintf(stderr, "gateway bench: backend failed to start: %s\n",
                 backend.status().ToString().c_str());
    return 1;
  }

  auto gen = LoadGen::Connect(backend->gw->port(), config.fleet());
  if (!gen.ok()) {
    std::fprintf(stderr, "gateway bench: fleet connect failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }

  // Calibrate sustainable capacity with a small closed-loop fleet (enough
  // concurrency to saturate the pools, below the admission cap so nothing
  // sheds), then offer multiples of 0.8 * capacity open-loop.
  const PhaseResult calibration =
      gen->RunClosed(/*fleet=*/16, config.phase_window());
  const double capacity =
      std::max(20.0, calibration.goodput_rps);
  const double base = 0.8 * capacity;

  std::vector<PhaseResult> phases;
  for (const auto& [name, factor] :
       std::initializer_list<std::pair<const char*, double>>{
           {"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}}) {
    phases.push_back(gen->RunOpen(name, base * factor, config.phase_window()));
    if (gen->alive() == 0) {
      std::fprintf(stderr, "gateway bench: entire fleet torn down in %s\n",
                   name);
      return 1;
    }
  }

  if (config.json) {
    PrintJson(phases, config, capacity);
  } else {
    PrintTable(phases, config.fleet(), capacity, config.base.csv);
  }
  return 0;
}
