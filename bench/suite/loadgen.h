// The load generator: one thread (the caller's), at most 4 connections or
// outstanding requests, over loopback.
//
// Open loop: requests leave on a fixed schedule whether or not earlier ones
// have answered, and latency is timed from the *scheduled* send, so a stall
// cannot hide behind a slowed generator. Closed loop: each lane sends its
// next request when the previous one completes. Either way the thread
// sleeps in epoll until a timerfd (the next due send or the phase end), a
// response or a completion wakes it; it never busy-waits.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "osal/poll.h"
#include "trace.h"
#include "workload.h"

namespace rrbench {

struct PhaseConfig {
  bool open_loop = false;
  double rate = 0;           // open loop: requests per second
  size_t outstanding = 1;    // closed loop: lanes kept busy
  rr::Nanos duration{0};
  uint64_t max_ops = 0;      // stop issuing after this many (0 = no cap)
  bool trace = false;        // stamp spans for this phase's requests
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;        // errors, non-200s, timeouts, wrong outputs
  uint64_t wrong = 0;         // outputs that failed verification
  uint64_t ok_in_window = 0;  // verified ops that completed in the window
  double window_s = 0;
  std::vector<double> latency_us;  // verified ops only
  double queue_depth_sum = 0;
  uint64_t queue_depth_samples = 0;
  uint64_t end_id = 0;
};

class LoadGen {
 public:
  // Connects to `system` the way the workload does: 4 keep-alive HTTP
  // connections to the gateway, or Runtime::Submit directly. Request ids
  // come from `*next_id` and are unique for the process.
  static rr::Result<std::unique_ptr<LoadGen>> Create(const WorkloadDef& def,
                                                     System* system,
                                                     const Inputs* inputs,
                                                     Recorder* recorder,
                                                     uint64_t* next_id);
  virtual ~LoadGen() = default;
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseResult Run(const PhaseConfig& config);

 protected:
  LoadGen(rr::osal::Epoll epoll, rr::osal::UniqueFd timer,
          const Inputs* inputs, Recorder* recorder, uint64_t* next_id)
      : epoll_(std::move(epoll)),
        timer_(std::move(timer)),
        inputs_(inputs),
        recorder_(recorder),
        next_id_(next_id) {}

  static constexpr uint64_t kTimerTag = 0;

  // Sends request `id` on `lane`, stamping kSendStart/kSendDone; returns
  // the send start, or 0 when the request failed on the spot.
  virtual int64_t Send(uint64_t id, size_t lane) = 0;
  virtual void OnEvent(const rr::osal::Epoll::Event& event) = 0;
  // Forgets requests still outstanding at the drain deadline.
  virtual void Abandon() = 0;
  virtual size_t lanes() const = 0;

  // For subclasses: a lane finished at `end_ns` (closed loop: the next
  // request leaves now), and the request's verdict once its output has
  // been checked. Freed comes first, so large outputs are verified while
  // the next request is already in flight.
  void Freed(size_t lane, int64_t end_ns);
  void Settle(uint64_t id, int64_t end_ns, bool ok, bool wrong);

  rr::osal::Epoll epoll_;
  rr::osal::UniqueFd timer_;
  const Inputs* const inputs_;
  Recorder* const recorder_;

 private:
  void Issue(size_t lane, int64_t due_ns);
  bool Issuing(int64_t at) const;

  uint64_t* const next_id_;
  PhaseConfig config_;
  PhaseResult result_;
  int64_t end_ns_ = 0;
  uint64_t issued_ = 0;
  uint64_t outstanding_ = 0;
  // Latency origin per outstanding request: its due time (open loop) or
  // its send start (closed loop).
  std::unordered_map<uint64_t, int64_t> origins_;
};

}  // namespace rrbench
