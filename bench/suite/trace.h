// Bench-side span recording for the --trace run.
//
// Every boundary is stamped by bench code around a call into a layer's
// public API: the generator around send()/Submit(), two interceptors placed
// first and last in the gateway's global chain, the function handlers
// (guest body enter/exit), the DeliverySink wrapper of remote functions and
// the NotifyDone callback. Nothing inside the program is instrumented.
//
// Stamps are keyed by the request id every payload carries in bytes [0,8).
// They land in fixed per-request records (one relaxed atomic store each)
// and stay in memory until the run ends; Analyze() then turns them into
// spans, per-layer distributions and a Chrome-trace JSON file.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rrbench {

// Boundary points of one request.
enum Point : int {
  kDue = 0,      // when the generator meant to send it
  kSendStart,    // generator starts send() / Submit()
  kSendDone,     // request bytes written / Submit() returned
  kEnterFirst,   // first bench interceptor OnEnter
  kEnterLast,    // last bench interceptor OnEnter
  kReturnLast,   // last bench interceptor OnReturn (runs first on unwind)
  kReturnFirst,  // first bench interceptor OnReturn
  kDone,         // Invocation::NotifyDone callback
  kParsed,       // HTTP response parsed by the generator
  kNodeBase,     // per DAG node: enter, exit, delivered (remote nodes)
};

inline constexpr int kMaxNodes = 5;
inline constexpr int kPoints = kNodeBase + 3 * kMaxNodes;

constexpr int NodeEnter(int node) { return kNodeBase + 3 * node; }
constexpr int NodeExit(int node) { return kNodeBase + 3 * node + 1; }
constexpr int NodeDelivered(int node) { return kNodeBase + 3 * node + 2; }

// steady_clock in nanoseconds; never 0, so 0 means "not stamped".
int64_t NowNs();

class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Records requests with ids in [first_id, first_id + capacity) from now
  // on. Generator thread only; Stop() before reading.
  void Start(uint64_t first_id);
  void Stop() { active_.store(false, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }

  // Makes `id`'s record exist before its request leaves the generator, so
  // Mark never allocates. Generator thread only.
  void Reserve(uint64_t id);

  // Stamps `point` of request `id` (now, or `ns`). Any thread; a no-op when
  // not recording or when the id has no record.
  void Mark(uint64_t id, int point) {
    if (active()) MarkAt(id, point, NowNs());
  }
  void MarkAt(uint64_t id, int point, int64_t ns);

  // Reads one stamp (0 when absent). Call after Stop() and after every
  // request of the traced phase has settled.
  int64_t Get(uint64_t id, int point) const;

  uint64_t first_id() const { return first_id_; }

 private:
  struct Record {
    std::array<std::atomic<int64_t>, kPoints> t{};
  };
  static constexpr size_t kBlock = 4096;
  static constexpr size_t kMaxBlocks = 256;

  Record* Find(uint64_t id) const;

  std::atomic<bool> active_{false};
  uint64_t first_id_ = 0;
  std::array<std::atomic<Record*>, kMaxBlocks> blocks_{};
  std::vector<std::unique_ptr<Record[]>> owned_;
};

// The request's path through the program, as the analysis needs it.
struct Topology {
  struct Node {
    std::string name;
    std::vector<int> preds;  // edge-declaration order
    std::string edge;        // "user" | "kernel" | "remote" | "fanin" | ""
    bool remote = false;     // served through the NodeAgent
  };
  std::vector<Node> nodes;
  std::vector<int> sinks;
  bool http = false;
  bool open_loop = false;
};

struct TraceSummary {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  uint64_t samples = 0;                   // requests with a complete trace
};

// Builds spans for requests [first_id, end_id): per-layer distributions,
// critical path and unattributed residual, and — for the first
// `max_written` requests — a Chrome-trace JSON file at `trace_path`.
TraceSummary Analyze(const Recorder& recorder, const Topology& topology,
                     uint64_t end_id, const std::string& trace_path,
                     size_t max_written);

// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> values, double q);

}  // namespace rrbench
