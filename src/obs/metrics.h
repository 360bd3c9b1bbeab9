// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with per-thread-sharded hot-path recording.
//
// The payload plane records metrics from nanosecond-scale paths (channel
// sends, pool acquires, scheduler dispatch), so recording must never take a
// lock or bounce a shared cache line between cores:
//
//   * Counter and Histogram shard their state across kMetricShards
//     cache-line-aligned slots; a thread records into its own slot (threads
//     are assigned shards round-robin on first use) with relaxed atomic
//     adds — an increment is one uncontended RMW in the common case.
//   * Reads (Value/Snapshot/RenderPrometheus) sum the shards. Totals are
//     exact: every recorded increment lands in exactly one shard, scrapes
//     just observe a momentary interleaving.
//   * Gauge is a single atomic — gauges track levels (in-flight runs, queue
//     depth), which are written from slow paths.
//
// Registration is once-per-site and cached:
//
//   static obs::Counter* refused = obs::Registry::Get().counter(
//       "rr_agent_transfers_refused_total", "streams the agent refused");
//   refused->Inc();
//
// The registry keys a metric family by name; series within a family by
// label set (Prometheus data model). Pointers are stable for the process
// lifetime — metrics are never unregistered.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rr::obs {

// Label set of one series, rendered as {key="value",...}. Order is
// normalized (sorted by key) so equal sets always name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

inline constexpr size_t kMetricShards = 16;

namespace internal {
// Round-robin shard assignment: cached per thread, spreads hot threads
// evenly instead of hashing thread ids (which can collide arbitrarily).
size_t ThisThreadShard();
}  // namespace internal

// Monotonically increasing count. Inc is lock-free and contention-free
// across threads on distinct shards.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  friend class Registry;
  Counter() = default;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// A level that can go up and down (in-flight runs, live workers).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: bucket upper bounds are set at registration and
// never change, so Observe is a branchless-ish scan (bucket counts are
// small) plus two relaxed adds into the thread's shard. Totals are exact —
// the contention test hammers one histogram from 16 threads and checks the
// snapshot count/sum to the last increment.
class Histogram {
 public:
  struct Snapshot {
    std::vector<double> bounds;    // upper bounds, ascending
    std::vector<uint64_t> counts;  // per bucket; one extra +Inf slot at back
    double sum = 0;
    uint64_t count = 0;
  };

  void Observe(double value) {
    Shard& shard = shards_[internal::ThisThreadShard()];
    size_t bucket = bounds_.size();  // +Inf
    for (size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        bucket = i;
        break;
      }
    }
    shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  Snapshot Snap() const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<double> sum{0};
  };
  const std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

// Default latency buckets in seconds: a 1-2-5 decade ladder from 1 us to
// 10 s, matching the spread between a user-space copy and a shaped-link
// remote transfer.
const std::vector<double>& DefaultLatencyBucketsSeconds();

// Byte-size buckets: powers of 4 from 1 KiB to 256 MiB.
const std::vector<double>& DefaultSizeBuckets();

class Registry {
 public:
  // The process-wide registry. Instrumentation sites cache the returned
  // pointers in function-local statics.
  static Registry& Get();

  // Returns the series for (name, labels), creating family and series on
  // first use. `help` is recorded on first registration of the family.
  // Returns nullptr if `name` is already registered as a different metric
  // kind — a programming error surfaced without crashing the data path.
  Counter* counter(std::string_view name, std::string_view help = "",
                   Labels labels = {});
  Gauge* gauge(std::string_view name, std::string_view help = "",
               Labels labels = {});
  // `bounds` must be ascending; applied on the family's first registration
  // (later series of the same family share them).
  Histogram* histogram(std::string_view name, std::string_view help = "",
                       Labels labels = {},
                       const std::vector<double>& bounds = {});

  // Prometheus text exposition format (0.0.4): families sorted by name,
  // histogram series as cumulative _bucket/_sum/_count.
  std::string RenderPrometheus() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;               // histograms only
    std::map<std::string, Series> series;     // keyed by rendered label set
  };

  Series* GetSeries(std::string_view name, std::string_view help, Kind kind,
                    Labels labels, const std::vector<double>& bounds);

  mutable Mutex mutex_;
  std::map<std::string, Family, std::less<>> families_ RR_GUARDED_BY(mutex_);
};

}  // namespace rr::obs
