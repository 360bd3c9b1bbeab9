#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace rrbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Recorder::Start(uint64_t first_id) {
  first_id_ = first_id;
  active_.store(true, std::memory_order_release);
}

void Recorder::Reserve(uint64_t id) {
  if (id < first_id_) return;
  const size_t block = (id - first_id_) / kBlock;
  if (block >= kMaxBlocks ||
      blocks_[block].load(std::memory_order_relaxed) != nullptr) {
    return;
  }
  owned_.push_back(std::make_unique<Record[]>(kBlock));
  blocks_[block].store(owned_.back().get(), std::memory_order_release);
}

Recorder::Record* Recorder::Find(uint64_t id) const {
  if (id < first_id_) return nullptr;
  const size_t index = id - first_id_;
  if (index / kBlock >= kMaxBlocks) return nullptr;
  Record* block = blocks_[index / kBlock].load(std::memory_order_acquire);
  return block != nullptr ? &block[index % kBlock] : nullptr;
}

void Recorder::MarkAt(uint64_t id, int point, int64_t ns) {
  if (Record* record = Find(id)) {
    record->t[point].store(ns, std::memory_order_relaxed);
  }
}

int64_t Recorder::Get(uint64_t id, int point) const {
  const Record* record = Find(id);
  return record != nullptr ? record->t[point].load(std::memory_order_relaxed)
                           : 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Length of [begin, end) covered by the union of `spans`.
int64_t Covered(std::vector<Span> spans, int64_t begin, int64_t end) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  int64_t covered = 0;
  int64_t reach = begin;
  for (const Span& span : spans) {
    const int64_t from = std::max(span.start, reach);
    const int64_t to = std::min(span.end, end);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path)
      : file_(path.empty() ? nullptr : std::fopen(path.c_str(), "w")) {
    if (file_ != nullptr) std::fputs("{\"traceEvents\":[\n", file_);
  }
  ~TraceWriter() {
    if (file_ == nullptr) return;
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", file_);
    std::fclose(file_);
  }
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void Thread(uint64_t tid, const std::string& name) {
    if (file_ == nullptr) return;
    Separator();
    std::fprintf(file_,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%llu,\"args\":{\"name\":\"%s\"}}",
                 static_cast<unsigned long long>(tid), name.c_str());
  }

  void Complete(uint64_t tid, uint64_t id, const std::string& name,
                int64_t start, int64_t end, const char* parent,
                double self_us) {
    if (file_ == nullptr) return;
    Separator();
    std::fprintf(file_,
                 "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request_id\":%llu,"
                 "\"parent\":%s%s%s,\"self_us\":%.3f}}",
                 name.c_str(), static_cast<unsigned long long>(tid), Us(start),
                 Us(end - start), static_cast<unsigned long long>(id),
                 parent != nullptr ? "\"" : "",
                 parent != nullptr ? parent : "null",
                 parent != nullptr ? "\"" : "", self_us);
  }

 private:
  void Separator() {
    if (!first_) std::fputs(",\n", file_);
    first_ = false;
  }

  FILE* file_;
  bool first_ = true;
};

}  // namespace

TraceSummary Analyze(const Recorder& recorder, const Topology& topology,
                     uint64_t end_id, const std::string& trace_path,
                     size_t max_written) {
  std::map<std::string, std::vector<double>> dist;
  std::vector<double> unattributed_pct;
  TraceWriter writer(trace_path);
  uint64_t samples = 0;
  const size_t node_count = topology.nodes.size();

  for (uint64_t id = recorder.first_id(); id < end_id; ++id) {
    std::array<int64_t, kPoints> t{};
    for (int p = 0; p < kPoints; ++p) t[p] = recorder.Get(id, p);
    const auto has = [&](int p) { return t[p] != 0; };

    const int begin_point = topology.open_loop ? kDue : kSendStart;
    const int end_point = topology.http ? kParsed : kDone;
    if (!has(begin_point) || !has(end_point)) continue;  // a failed request
    ++samples;

    // When a node's output is available to the rest of the run.
    const auto avail = [&](int node) {
      return topology.nodes[node].remote ? t[NodeDelivered(node)]
                                         : t[NodeExit(node)];
    };
    // A missing stamp drops the sample here and leaves its interval
    // uncovered on the critical path below: it shows up as unattributed.
    const auto sample = [&](const std::string& name, int64_t from,
                            int64_t to) {
      if (from != 0 && to != 0) dist[name].push_back(Us(to - from));
    };

    sample("bench.gen_lag_us", t[kDue], t[kSendStart]);
    const int64_t run_start = topology.http ? t[kEnterLast] : t[kSendDone];
    if (topology.http) {
      sample("gateway.ingress_us", t[kSendDone], t[kEnterFirst]);
      if (has(kEnterFirst) && has(kEnterLast) && has(kReturnLast) &&
          has(kReturnFirst)) {
        dist["gateway.interceptors_us"].push_back(
            Us((t[kEnterLast] - t[kEnterFirst]) +
               (t[kReturnFirst] - t[kReturnLast])));
      }
      sample("gateway.respond_us", t[kReturnFirst], t[kParsed]);
    } else {
      sample("api.submit_us", t[kSendStart], t[kSendDone]);
    }

    int source = 0;
    for (size_t n = 0; n < node_count; ++n) {
      const Topology::Node& node = topology.nodes[n];
      const int index = static_cast<int>(n);
      sample("guest.invoke_us", t[NodeEnter(index)], t[NodeExit(index)]);
      if (node.remote) {
        sample("edge.remote_return_us", t[NodeExit(index)],
               t[NodeDelivered(index)]);
      }
      if (node.preds.empty()) {
        source = index;
        continue;
      }
      // A fan-in starts once its last predecessor's output is available.
      int64_t ready = 0;
      bool stamped = true;
      for (int pred : node.preds) {
        stamped = stamped && avail(pred) != 0;
        ready = std::max(ready, avail(pred));
      }
      sample("edge." + node.edge + "_us", stamped ? ready : 0,
             t[NodeEnter(index)]);
    }
    sample("api.start_us", run_start, t[NodeEnter(source)]);

    int last_sink = topology.sinks.front();
    for (int sink : topology.sinks) {
      if (avail(sink) > avail(last_sink)) last_sink = sink;
    }
    const int64_t complete_end = topology.http ? t[kReturnLast] : t[kDone];
    sample("api.complete_us", avail(last_sink), complete_end);

    // The critical path, front to back: every span ends where the next
    // begins, so any residual means a boundary the bench failed to stamp.
    std::vector<Span> path;
    if (topology.open_loop) path.push_back({"bench.lag", t[kDue], t[kSendStart]});
    if (topology.http) {
      path.push_back({"bench.send", t[kSendStart], t[kSendDone]});
      path.push_back({"gateway.ingress", t[kSendDone], t[kEnterFirst]});
      path.push_back({"gateway.interceptors", t[kEnterFirst], t[kEnterLast]});
    } else {
      path.push_back({"api.submit", t[kSendStart], t[kSendDone]});
    }
    path.push_back({"api.start", run_start, t[NodeEnter(source)]});
    std::vector<Span> chain;  // built sink-to-source, reversed below
    std::vector<bool> on_path(node_count, false);
    for (int node = last_sink;;) {
      on_path[node] = true;
      const Topology::Node& info = topology.nodes[node];
      if (info.remote) {
        chain.push_back({"edge.remote_return", t[NodeExit(node)],
                         t[NodeDelivered(node)]});
      }
      chain.push_back({"guest.invoke:" + info.name, t[NodeEnter(node)],
                       t[NodeExit(node)]});
      if (info.preds.empty()) break;
      int pred = info.preds.front();
      for (int candidate : info.preds) {
        if (avail(candidate) > avail(pred)) pred = candidate;
      }
      chain.push_back({"edge." + info.edge + ":" +
                           topology.nodes[pred].name + "->" + info.name,
                       avail(pred), t[NodeEnter(node)]});
      node = pred;
    }
    path.insert(path.end(), chain.rbegin(), chain.rend());
    path.push_back({"api.complete", avail(last_sink), complete_end});
    if (topology.http) {
      path.push_back({"gateway.interceptors", t[kReturnLast], t[kReturnFirst]});
      path.push_back({"gateway.respond", t[kReturnFirst], t[kParsed]});
    }

    std::erase_if(path, [](const Span& span) {
      return span.start == 0 || span.end == 0;
    });
    const int64_t begin = t[begin_point];
    const int64_t end = t[end_point];
    const int64_t duration = std::max<int64_t>(end - begin, 1);
    const int64_t residual = duration - Covered(path, begin, end);
    unattributed_pct.push_back(100.0 * static_cast<double>(residual) /
                               static_cast<double>(duration));

    if (samples > max_written) continue;
    const uint64_t tid = id * 8;
    writer.Thread(tid, "request " + std::to_string(id));
    writer.Complete(tid, id, "request", begin, end, nullptr, Us(residual));
    for (const Span& span : path) {
      writer.Complete(tid, id, span.name, span.start, span.end, "request",
                      Us(span.end - span.start));
    }
    // Off-path branches (a fan-out leg that finished early) on their own
    // track, so the request's track nests cleanly.
    for (size_t n = 0; n < node_count; ++n) {
      if (on_path[n]) continue;
      const int node = static_cast<int>(n);
      const uint64_t branch = tid + 1 + n;
      writer.Thread(branch, "request " + std::to_string(id) + " branch " +
                                topology.nodes[n].name);
      writer.Complete(branch, id, "guest.invoke:" + topology.nodes[n].name,
                      t[NodeEnter(node)], t[NodeExit(node)], "request",
                      Us(t[NodeExit(node)] - t[NodeEnter(node)]));
    }
  }

  TraceSummary summary;
  summary.samples = samples;
  const auto put = [&](const std::string& name, double q) {
    summary.metrics[name + (q == 0.5 ? ".p50" : ".p99")] =
        Percentile(dist[name], q);
  };
  for (const char* name :
       {"gateway.ingress_us", "gateway.respond_us", "api.submit_us",
        "api.start_us", "api.complete_us", "edge.user_us", "edge.kernel_us",
        "edge.remote_us"}) {
    put(name, 0.5);
    put(name, 0.99);
  }
  for (const char* name : {"gateway.interceptors_us", "edge.fanin_us",
                           "edge.remote_return_us", "guest.invoke_us"}) {
    put(name, 0.5);
  }
  put("bench.gen_lag_us", 0.99);
  summary.metrics["bench.unattributed_pct.p50"] =
      Percentile(unattributed_pct, 0.5);
  summary.metrics["bench.samples"] = static_cast<double>(samples);
  return summary;
}

}  // namespace rrbench
