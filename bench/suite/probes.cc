#include "probes.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/buffer.h"
#include "obs/metrics.h"

namespace rrbench {
namespace {

std::atomic<bool> g_count_new{false};

struct alignas(64) NewSlot {
  std::atomic<uint64_t> calls{0};
};
NewSlot g_new_slots[16];

NewSlot& ThisThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot = next.fetch_add(1) % 16;
  return g_new_slots[slot];
}

uint64_t NewCalls() {
  uint64_t total = 0;
  for (const NewSlot& slot : g_new_slots) {
    total += slot.calls.load(std::memory_order_relaxed);
  }
  return total;
}

// syscr + syscw from /proc/self/io (0 when the file is unreadable).
uint64_t RwSyscalls() {
  FILE* file = std::fopen("/proc/self/io", "r");
  if (file == nullptr) return 0;
  uint64_t total = 0;
  char line[128];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "syscr: %llu", &value) == 1 ||
        std::sscanf(line, "syscw: %llu", &value) == 1) {
      total += value;
    }
  }
  std::fclose(file);
  return total;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

Snapshot TakeSnapshot(
    const std::vector<std::shared_ptr<rr::core::ShimPool>>& pools) {
  static rr::obs::Histogram* lease_wait = rr::obs::Registry::Get().histogram(
      "rr_pool_lease_wait_seconds", "", {},
      rr::obs::DefaultLatencyBucketsSeconds());
  static rr::obs::Counter* stalls =
      rr::obs::Registry::Get().counter("rr_agent_stream_stalls_total");
  static rr::obs::Counter* completions =
      rr::obs::Registry::Get().counter("rr_agent_completion_frames_total");

  Snapshot snap;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  snap.user_s = Seconds(usage.ru_utime);
  snap.sys_s = Seconds(usage.ru_stime);
  snap.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  snap.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  snap.rw_syscalls = RwSyscalls();
  snap.bytes_copied = rr::Buffer::TotalBytesCopied();
  snap.bytes_allocated = rr::Buffer::TotalBytesAllocated();
  for (const auto& pool : pools) snap.pool_waits += pool->metrics().waits;
  const rr::obs::Histogram::Snapshot waits = lease_wait->Snap();
  snap.lease_wait_sum_s = waits.sum;
  snap.lease_wait_count = waits.count;
  snap.mux_stalls = stalls->Value();
  snap.completion_frames = completions->Value();
  snap.new_calls = NewCalls();
  return snap;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int64_t DagQueueDepth() {
  static rr::obs::Gauge* depth =
      rr::obs::Registry::Get().gauge("rr_dag_queue_depth");
  return depth->Value();
}

void CountAllocations() { g_count_new.store(true, std::memory_order_relaxed); }

}  // namespace rrbench

// The bench binary's allocator hooks: plain malloc/free, plus a sharded
// call count while CountAllocations() is on.
void* operator new(std::size_t size) {
  if (rrbench::g_count_new.load(std::memory_order_relaxed)) {
    rrbench::ThisThreadSlot().calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
